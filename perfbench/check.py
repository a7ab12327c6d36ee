"""Output check: every report cell against the exact LP, run untimed.

The marginal pair is recomputed here from the generated counts, and each
cell is compared with ``pnbounds.lp.pn_bounds_lp`` on that pair:

* an interval cell must equal the LP bounds within ``VALUE_TOL``;
* an ``incr`` point must equal the LP's singleton;
* a refused cell must be LP-infeasible (or have zero evidence), and an
  LP-infeasible cell must be refused;
* with ``--verify``, a cell that carries an estimate must be verified as
  contained and sharp; a skipped check on such a cell is a failure.

Closed-form ``mono`` cells on monotone-inconsistent data are LP-infeasible
although the program reports an interval, and ``--verify`` then skips them.
Those failures are counted like any other, but tagged as the known defect,
so that ``correct`` stays true while only they fail.
"""

from __future__ import annotations

import numpy as np

from pnbounds.core import (
    Assumptions,
    Conditioning,
    EventSpec,
    MarginalPair,
    OrdinalDistribution,
    ZeroEvidenceError,
)
from pnbounds.lp import LpInfeasibleError, pn_bounds_lp

from workloads import monotone_violation

VALUE_TOL = 1e-8
LAW_TOL = 1e-12
KNOWN_DEFECT = "estimate on an empty monotone polytope"


def _law(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum()


def identified_laws(entry: dict) -> tuple[np.ndarray, np.ndarray]:
    """(treated, control) laws implied by the generated counts of one input."""
    counts = entry["counts"]
    if "strata" in counts:
        tables = [np.asarray(s["counts"], dtype=float) for s in counts["strata"]]
        treated_total = sum(t[1].sum() for t in tables)
        treated = sum(t[1] for t in tables) / treated_total
        control = sum(t[1].sum() / treated_total * _law(t[0]) for t in tables)
        return treated, control
    exp = np.asarray(counts["experimental"], dtype=float)
    if "observational" not in counts:
        return _law(exp[1]), _law(exp[0])
    obs = np.asarray(counts["observational"], dtype=float)
    pr_treated = obs[1].sum() / obs.sum()
    control = (_law(exp[0]) - obs[0] / obs.sum()) / pr_treated
    return _law(obs[1]), control


def event_coeffs(spec: str, levels: int) -> tuple[int, ...]:
    kind, _, arg = spec.partition(":")
    if kind == "custom":
        return tuple(int(ch) for ch in arg)
    y = int(arg)
    if kind == "noteq":
        return tuple(int(l != y) for l in range(levels))
    if kind == "eq":
        return tuple(int(l == y) for l in range(levels))
    return tuple(int(l < y) for l in range(levels))


def _reference(pair: MarginalPair, cell: dict, levels: int):
    """LP bounds for one cell, or the name of the refusal it implies."""
    event = EventSpec(coeffs=event_coeffs(cell["event"], levels), label=cell["event"])
    try:
        result = pn_bounds_lp(pair, event, cell["evidence"], Assumptions(cell["assumptions"]))
    except ZeroEvidenceError:
        return "zero-evidence"
    except LpInfeasibleError:
        return "infeasible"
    return result.lower, result.upper


def _cell_failure(cell: dict, ref) -> str | None:
    kind = cell.get("kind")
    if isinstance(ref, str):
        if kind != "refused":
            return "estimate on an empty polytope" if ref == "infeasible" else "estimate without evidence"
        if cell["assumptions"] == "incr" and ref == "infeasible" and cell.get("lp_cross_check") != "infeasible":
            return "refusal without LP cross-check"
        return None
    lower, upper = ref
    if kind == "refused":
        return "refused a feasible cell"
    if kind == "point":
        if abs(upper - lower) > VALUE_TOL or abs(cell["value"] - lower) > VALUE_TOL:
            return "point differs from the LP singleton"
        return None
    if abs(cell["lower"] - lower) > VALUE_TOL or abs(cell["upper"] - upper) > VALUE_TOL:
        return "interval differs from the LP"
    return None


def _verification_failure(cell: dict, entry: dict) -> str | None:
    status = entry.get("verification")
    if cell.get("kind") == "refused":
        return None
    if not isinstance(status, dict):
        return "verification skipped on an estimate"
    if not (status.get("contained") and status.get("sharp")):
        return "verification failed"
    return None


def check_report(entry: dict, report: dict) -> list[str | None]:
    """One failure reason (or None) per expected cell of one report."""
    expected = entry["cells"]
    cells = report.get("cells", [])
    if len(cells) != expected:
        return [f"report has {len(cells)} cells, expected {expected}"] * expected
    treated, control = identified_laws(entry)
    marginals = report["marginals"]
    if (
        np.abs(np.asarray(marginals["treated_law"]) - treated).max() > LAW_TOL
        or np.abs(np.asarray(marginals["control_law"]) - control).max() > LAW_TOL
    ):
        return ["identified marginals differ from the counts"] * expected
    conditioning = Conditioning.UNCONDITIONAL if entry["route"] == "pc" else Conditioning.GIVEN_TREATED
    pair = MarginalPair(
        OrdinalDistribution(np.clip(treated, 0.0, None)),
        OrdinalDistribution(np.clip(control, 0.0, None)),
        conditioning,
    )
    inconsistent = monotone_violation(treated, control) > VALUE_TOL
    verification = report.get("verification")
    failures = []
    for i, cell in enumerate(cells):
        reason = _cell_failure(cell, _reference(pair, cell, entry["levels"]))
        if reason is None and verification is not None:
            reason = _verification_failure(cell, verification["cells"][i])
        if (
            reason in ("estimate on an empty polytope", "verification skipped on an estimate")
            and inconsistent
            and cell["assumptions"] == "mono"
            and cell.get("method") == "closed-form"
        ):
            reason = KNOWN_DEFECT
        failures.append(reason)
    return failures


def expected_exit(report: dict) -> int:
    verification = report.get("verification")
    return 3 if verification is not None and not verification["passed"] else 0
