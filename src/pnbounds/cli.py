"""Command line front end.

Loads count tables, runs the assumption ladder for the requested events and
evidence levels, and emits a machine-readable attribution report; with
--verify every reported cell is re-checked against sampled feasible joints
and endpoint witnesses.  Exit codes: 0 ok, 1 usage, 2 data error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any

from . import bounds as bounds_mod
from . import identify as identify_mod
from . import ingest, oracle
from .core import (
    Assumptions,
    CausalAttributionError,
    EventSpec,
    MarginalPair,
    ZeroEvidenceError,
    make_event,
)
from .lp import LpInfeasibleError, pn_bounds_lp

_SHARPNESS_TOL = 1e-6

USAGE_EXIT = 1
DATA_EXIT = 2
VERIFY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


@dataclass
class AnalysisConfig:
    mode: str = "pn"
    route: str = "experimental"
    exp: str | None = None
    obs: str | None = None
    strata: str | None = None
    events: list[str] = field(default_factory=list)
    evidence: list[int] = field(default_factory=list)
    assume: str = "all"
    all_canonical: bool = False
    verify: bool = False
    samples: int = 10000
    seed: int = 42
    table: bool = False
    out: str | None = None
    inject_widen: float = 0.0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pnbounds",
        description=(
            "Point identification and sharp bounds for counterfactual event "
            "probabilities with ordinal outcomes."
        ),
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--exp", help="experimental count table (csv or json)")
    parser.add_argument("--obs", help="observational count table (csv or json)")
    parser.add_argument("--strata", help="stratified observational tables (json)")
    parser.add_argument("--mode", choices=["pn", "pc"], default=None)
    parser.add_argument(
        "--route", choices=["experimental", "unconfounded"], default=None
    )
    parser.add_argument(
        "--event",
        action="append",
        dest="events",
        metavar="SPEC",
        help="noteq:y | eq:y' | lt:y | custom:<bits>; repeatable",
    )
    parser.add_argument(
        "--evidence", action="append", type=int, metavar="Y", help="repeatable"
    )
    parser.add_argument(
        "--assume", choices=["marginal", "mono", "incr", "all"], default=None
    )
    parser.add_argument(
        "--all-canonical",
        action="store_true",
        help="run the five canonical event families at every evidence level",
    )
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--table", action="store_true", help="render a plain-text grid"
    )
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument(
        "--inject-widen", type=float, default=None, help=argparse.SUPPRESS
    )
    return parser


def _merge_config(args: argparse.Namespace) -> AnalysisConfig:
    cfg = AnalysisConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ingest.DataFormatError(f"{args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ingest.DataFormatError(
                f"{args.config}:{exc.lineno}: invalid JSON: {exc.msg}"
            ) from exc
        for key, value in payload.items():
            attr = key.replace("-", "_")
            if not hasattr(cfg, attr):
                raise _UsageError(f"unknown config key {key!r}")
            setattr(cfg, attr, value)
    overrides = {
        "mode": args.mode,
        "route": args.route,
        "exp": args.exp,
        "obs": args.obs,
        "strata": args.strata,
        "events": args.events,
        "evidence": args.evidence,
        "assume": args.assume,
        "samples": args.samples,
        "seed": args.seed,
        "out": args.out,
        "inject_widen": args.inject_widen,
    }
    for attr, value in overrides.items():
        if value is not None:
            setattr(cfg, attr, value)
    cfg.all_canonical = cfg.all_canonical or args.all_canonical
    cfg.verify = cfg.verify or args.verify
    cfg.table = cfg.table or args.table
    return cfg


class _UsageError(Exception):
    pass


def _validate(cfg: AnalysisConfig) -> None:
    if cfg.mode == "pc":
        if cfg.route not in ("experimental", None, ""):
            # causation always uses the randomized route
            if cfg.route == "unconfounded":
                raise _UsageError("--route unconfounded is a pn-mode option")
        if not cfg.exp:
            raise _UsageError("pc mode needs --exp")
    elif cfg.route == "unconfounded":
        if not cfg.strata:
            raise _UsageError("--route unconfounded needs --strata")
    else:
        if not cfg.exp or not cfg.obs:
            raise _UsageError("--route experimental needs --exp and --obs")
    if not cfg.all_canonical and not cfg.events:
        raise _UsageError("give --event (repeatable) or --all-canonical")
    if cfg.samples < 1:
        raise _UsageError("--samples must be at least 1")


def load_marginals(cfg: AnalysisConfig) -> tuple[MarginalPair, dict[str, Any]]:
    """Load input tables per the configured route; returns pair + provenance."""
    provenance: dict[str, Any] = {"route": cfg.route, "mode": cfg.mode}
    if cfg.mode == "pc":
        exp = ingest.load_table(cfg.exp, ingest.Source.EXPERIMENTAL)
        provenance["experimental_counts"] = exp.counts.astype(int).tolist()
        return ingest.randomized_margins(exp), provenance
    if cfg.route == "unconfounded":
        strata = ingest.load_strata_json(cfg.strata)
        provenance["strata_counts"] = {
            name: t.counts.astype(int).tolist() for name, t in strata.strata
        }
        return ingest.counterfactual_margin_unconfounded(strata), provenance
    exp = ingest.load_table(cfg.exp, ingest.Source.EXPERIMENTAL)
    obs = ingest.load_table(cfg.obs, ingest.Source.OBSERVATIONAL)
    provenance["experimental_counts"] = exp.counts.astype(int).tolist()
    provenance["observational_counts"] = obs.counts.astype(int).tolist()
    return ingest.counterfactual_margin_experimental(exp, obs), provenance


def parse_event(spec: str, levels: int) -> EventSpec:
    kind, _, arg = spec.partition(":")
    if kind == "custom":
        if not arg or any(ch not in "01" for ch in arg):
            raise _UsageError(f"bad custom event {spec!r}; expected custom:<bits>")
        return make_event("custom", levels, coeffs=[int(ch) for ch in arg])
    if kind not in ("noteq", "eq", "lt"):
        raise _UsageError(f"unknown event kind in {spec!r}")
    try:
        level = int(arg)
    except ValueError:
        raise _UsageError(f"bad event level in {spec!r}") from None
    return make_event(kind, levels, level=level)


def canonical_event_specs(levels: int, y: int) -> list[str]:
    """The five canonical families at evidence y (single-level one per level)."""
    return [f"noteq:{y}"] + [f"eq:{v}" for v in range(levels)] + [f"lt:{y}"]


def _assumption_list(word: str) -> list[Assumptions]:
    if word == "all":
        return [
            Assumptions.MONOTONIC_INCREMENT,
            Assumptions.MARGINAL_ONLY,
            Assumptions.MONOTONICITY,
        ]
    return [Assumptions.from_cli(word)]


def _cell(event_spec: str, event: EventSpec, y: int, assumptions: Assumptions) -> dict:
    return {
        "event": event_spec,
        "label": event.label,
        "evidence": y,
        "assumptions": assumptions.value,
    }


def run_analysis(
    cfg: AnalysisConfig, loaded: tuple[MarginalPair, dict[str, Any]] | None = None
) -> dict[str, Any]:
    """Produce the attribution report as a JSON-ready dict.

    Every numeric cell carries the method that produced it; identification
    under the one-level-lift assumption is refused (with the LP
    cross-confirmation) when the gap brackets fail, never extrapolated.
    ``loaded`` is the result of ``load_marginals(cfg)`` when the caller
    already has it; otherwise the tables are loaded here.
    """
    pair, provenance = load_marginals(cfg) if loaded is None else loaded
    levels = pair.levels
    evidence = cfg.evidence or list(range(1, levels))
    for y in evidence:
        if not 0 <= y < levels:
            raise ingest.DataFormatError(
                f"evidence level {y} out of range for {levels} outcome levels"
            )
    if cfg.all_canonical:
        grid = [(spec, y) for y in evidence for spec in canonical_event_specs(levels, y)]
    else:
        grid = [(spec, y) for y in evidence for spec in cfg.events]
    falsification = identify_mod.falsification_check(pair)
    gaps = identify_mod.gap_sequence(pair)
    report: dict[str, Any] = {
        "mode": cfg.mode,
        "route": "randomized" if cfg.mode == "pc" else cfg.route,
        "levels": levels,
        "provenance": provenance,
        "marginals": {
            "treated_law": pair.treated_law.probs.tolist(),
            "control_law": pair.control_law.probs.tolist(),
            "conditioning": pair.conditioning.value,
        },
        "gaps": gaps.gaps.tolist(),
        "falsification": {
            "passed": falsification.passed,
            "brackets": [
                {
                    "k": c.k,
                    "lower": c.lower,
                    "gap": c.gap,
                    "upper": c.upper,
                    "ok": c.ok,
                }
                for c in falsification.checks
            ],
        },
        "monotone_consistent": bounds_mod.monotone_consistent(pair),
        "seed": cfg.seed,
        "cells": [],
    }
    for spec, y in grid:
        event = parse_event(spec, levels)
        for assumptions in _assumption_list(cfg.assume):
            report["cells"].append(_compute_cell(pair, spec, event, y, assumptions))
    return report


def _compute_cell(
    pair: MarginalPair,
    spec: str,
    event: EventSpec,
    y: int,
    assumptions: Assumptions,
) -> dict[str, Any]:
    cell = _cell(spec, event, y, assumptions)
    try:
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            try:
                value = identify_mod.pn_point(pair, event, y)
            except identify_mod.FalsificationError as exc:
                cell.update(kind="refused", note=str(exc), method="point-identification")
                try:
                    pn_bounds_lp(pair, event, y, assumptions)
                except LpInfeasibleError:
                    cell["lp_cross_check"] = "infeasible"
                else:  # brackets failed but the LP found a point: a bug
                    cell["lp_cross_check"] = "feasible (inconsistent)"
                return cell
            cell.update(kind="point", value=value, method="point-identification")
            return cell
        if assumptions is Assumptions.MARGINAL_ONLY:
            result = bounds_mod.pn_bounds_marginal(pair, event, y)
        else:
            try:
                result = bounds_mod.pn_bounds_monotone(pair, event, y)
            except bounds_mod.UnsupportedEventError:
                result = pn_bounds_lp(pair, event, y, assumptions)
        cell.update(
            kind="interval",
            lower=result.lower,
            upper=result.upper,
            method=result.method.value,
        )
        if result.note:
            cell["note"] = result.note
        return cell
    except ZeroEvidenceError as exc:
        cell.update(kind="refused", note=str(exc), method="none")
        return cell
    except LpInfeasibleError as exc:
        cell.update(kind="refused", note=str(exc), method="lp")
        return cell


def verify(cfg: AnalysisConfig) -> dict[str, Any]:
    """Run the analysis and re-check every cell; see verify_report."""
    pair, provenance = load_marginals(cfg)
    return verify_report(cfg, pair, run_analysis(cfg, (pair, provenance)))


def verify_report(
    cfg: AnalysisConfig, pair: MarginalPair, report: dict[str, Any]
) -> dict[str, Any]:
    """Re-check every cell by sampling and witness attainment.

    The samples depend only on the assumption level (the pair, the sample
    count and the seed are fixed), so one batch is drawn per level and
    shared by its cells, one level at a time.  A cell with an estimate
    whose level cannot be sampled fails the verification.
    """
    entries = [dict(cell) for cell in report["cells"]]
    by_level: dict[Assumptions, list[dict[str, Any]]] = {}
    for entry in entries:
        if entry["kind"] == "refused":
            entry["verification"] = "skipped: no estimate to verify"
        else:
            by_level.setdefault(Assumptions(entry["assumptions"]), []).append(entry)
    level_ok = [_verify_level(cfg, pair, a, cells) for a, cells in by_level.items()]
    return {"samples": cfg.samples, "seed": cfg.seed, "cells": entries, "passed": all(level_ok)}


def _verify_level(
    cfg: AnalysisConfig,
    pair: MarginalPair,
    assumptions: Assumptions,
    entries: list[dict[str, Any]],
) -> bool:
    """Verify the cells of one assumption level against one shared batch."""
    try:
        samples = oracle.draw_samples(pair, assumptions, cfg.samples, cfg.seed)
    except oracle.SamplingError as exc:
        for entry in entries:
            entry["verification"] = f"skipped: {exc}"
        return False
    ok = True
    for entry in entries:
        if entry["kind"] == "point":
            lower = upper = entry["value"]
        else:
            lower, upper = entry["lower"], entry["upper"]
        claim = bounds_mod.BoundsResult(
            lower=max(0.0, lower - cfg.inject_widen),
            upper=min(1.0, upper + cfg.inject_widen),
            assumptions=assumptions,
            method=bounds_mod.Method.CLOSED_FORM,
        )
        check = oracle.verify_bounds(
            pair, parse_event(entry["event"], pair.levels), entry["evidence"],
            assumptions, claim, cfg.samples, cfg.seed, samples=samples,
        )
        sharp = (
            check.sharpness_gap_lower <= _SHARPNESS_TOL
            and check.sharpness_gap_upper <= _SHARPNESS_TOL
        )
        entry["verification"] = {
            "contained": check.contained,
            "max_violation": check.max_violation,
            "sharpness_gap_lower": check.sharpness_gap_lower,
            "sharpness_gap_upper": check.sharpness_gap_upper,
            "n_samples": check.n_samples,
            "sharp": sharp,
        }
        ok = ok and check.contained and sharp
    return ok


def render_table(report: dict[str, Any]) -> str:
    """Plain-text grid: per evidence level, one row per assumption level."""
    levels = report["levels"]
    cells = report["cells"]
    by_key = {}
    families: dict[int, list[str]] = {}
    for cell in cells:
        y = cell["evidence"]
        families.setdefault(y, [])
        if cell["event"] not in families[y]:
            families[y].append(cell["event"])
        by_key[(cell["event"], y, cell["assumptions"])] = cell
    quantity = "PN" if report["mode"] == "pn" else "PC"
    lines = []
    row_specs = [
        (Assumptions.MONOTONIC_INCREMENT.value, "point (one-level lift)"),
        (Assumptions.MARGINAL_ONLY.value, "bounds (marginals only)"),
        (Assumptions.MONOTONICITY.value, "bounds (monotone)"),
    ]
    for y in sorted(families, reverse=True):
        fams = families[y]
        header = [f"{quantity}(w0, y={y})".ljust(24)] + [f.center(14) for f in fams]
        lines.append("  ".join(header))
        for key, title in row_specs:
            row = [title.ljust(24)]
            any_cell = False
            for fam in fams:
                cell = by_key.get((fam, y, key))
                if cell is None:
                    row.append(" " * 14)
                    continue
                any_cell = True
                if cell["kind"] == "point":
                    row.append(f"{cell['value']:.2f}".center(14))
                elif cell["kind"] == "interval":
                    row.append(
                        f"[{cell['lower']:.2f}, {cell['upper']:.2f}]".center(14)
                    )
                else:
                    row.append("refused".center(14))
            if any_cell:
                lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        _validate(cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ingest.DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    try:
        pair, provenance = load_marginals(cfg)
        report = run_analysis(cfg, (pair, provenance))
        verification = None
        if cfg.verify:
            verification = verify_report(cfg, pair, report)
            report["verification"] = verification
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CausalAttributionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    payload = json.dumps(report, indent=2)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload + "\n")
    if cfg.table:
        sys.stdout.write(render_table(report))
    elif not cfg.out:
        sys.stdout.write(payload + "\n")
    if verification is not None and not verification["passed"]:
        print("verification failed", file=sys.stderr)
        return VERIFY_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
