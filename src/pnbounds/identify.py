"""Point identification under the monotone one-level-lift assumption.

When the treatment can only keep the outcome or raise it by exactly one
level, the joint law of the potential outcomes is pinned down by its two
marginals: mass sits on the diagonal and the first subdiagonal, and the
subdiagonal entries are the cumulative gaps between the control and treated
laws.  That structure yields a closed-form point value for any
counterfactual-event probability, and a data-checkable bracket on each gap
whose failure refutes the assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ATOL,
    CausalAttributionError,
    EventSpec,
    GapSequence,
    JointProbabilityMatrix,
    MarginalPair,
    check_evidence,
)

#: Exactness tolerance for algebraic identities (margin reproduction, the
#: point formula versus direct evaluation on the reconstructed joint).
EXACT_ATOL = 1e-12


@dataclass(frozen=True)
class BracketCheck:
    """One gap's feasibility bracket and the diagonal nonnegativity it implies."""

    k: int
    lower: float
    gap: float
    upper: float
    within_bracket: bool
    diag_nonnegative: bool

    @property
    def ok(self) -> bool:
        return self.within_bracket and self.diag_nonnegative


@dataclass(frozen=True)
class FalsificationReport:
    passed: bool
    checks: tuple[BracketCheck, ...]

    def violations(self) -> tuple[BracketCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


class FalsificationError(CausalAttributionError):
    """Identification refused: the gap brackets are violated.

    Carries the full report so callers can surface the violating levels.
    """

    def __init__(self, report: FalsificationReport):
        self.report = report
        bad = ", ".join(
            f"k={c.k}: gap {c.gap:.6g} outside [{c.lower:.6g}, {c.upper:.6g}]"
            for c in report.violations()
        )
        super().__init__(f"one-level-lift assumption falsified by the data ({bad})")


def gap_sequence(pair: MarginalPair) -> GapSequence:
    """Cumulative control-minus-treated gaps, one per cut k = 1..J-1."""
    diff = pair.control_law.probs - pair.treated_law.probs
    return GapSequence(gaps=np.cumsum(diff)[: pair.levels - 1])


def falsification_check(pair: MarginalPair) -> FalsificationReport:
    """Test the data-checkable implication of the one-level-lift assumption.

    For each k = 1..J-1 the subdiagonal entry of the reconstructed joint
    equals the cumulative gap and must satisfy its two-event probability
    bracket

        max(0, treated[k] + control[k-1] - 1) <= gap_k
                                              <= min(treated[k], control[k-1]),

    and the diagonal entry treated[k] - gap_k must be nonnegative.  Failure
    is a report outcome, not an error; passing does not validate the
    assumption.
    """
    treated = pair.treated_law.probs
    control = pair.control_law.probs
    gaps = gap_sequence(pair)
    checks = []
    for k in range(1, pair.levels):
        lower = max(0.0, treated[k] + control[k - 1] - 1.0)
        upper = min(treated[k], control[k - 1])
        gap = gaps[k - 1]
        checks.append(
            BracketCheck(
                k=k,
                lower=float(lower),
                gap=float(gap),
                upper=float(upper),
                within_bracket=bool(lower - ATOL <= gap <= upper + ATOL),
                diag_nonnegative=bool(treated[k] - gap >= -ATOL),
            )
        )
    return FalsificationReport(passed=all(c.ok for c in checks), checks=tuple(checks))


def identify_joint(pair: MarginalPair) -> JointProbabilityMatrix:
    """Reconstruct the unique joint law on the diagonal-plus-subdiagonal pattern.

    q[0,0] = treated[0]; q[k,k-1] = gap_k; q[k,k] = treated[k] - gap_k; all
    other entries zero.  Refuses (raises FalsificationError) when the gap
    brackets fail, rather than silently returning a non-probability matrix.
    An entry that the brackets accept inside the ``ATOL`` band can be just
    below zero; it is clipped and the matrix rescaled to sum to one.
    """
    report = falsification_check(pair)
    if not report.passed:
        raise FalsificationError(report)
    levels = pair.levels
    treated = pair.treated_law.probs
    gaps = gap_sequence(pair)
    entries = np.zeros((levels, levels))
    entries[0, 0] = treated[0]
    for k in range(1, levels):
        entries[k, k - 1] = gaps[k - 1]
        entries[k, k] = treated[k] - gaps[k - 1]
    entries = np.clip(entries, 0.0, None)
    return JointProbabilityMatrix(entries=entries / entries.sum())


def pn_point(pair: MarginalPair, event: EventSpec, y: int) -> float:
    """Point value of the event probability given treated-outcome evidence y.

    Refuses zero evidence first (``ZeroEvidenceError``), then failed gap
    brackets (``FalsificationError``); the value is ``point_from_gaps``.
    Agrees with direct evaluation on the reconstructed joint to within
    ``EXACT_ATOL``.
    """
    mass = check_evidence(pair, event, y)
    report = falsification_check(pair)
    if not report.passed:
        raise FalsificationError(report)
    return point_from_gaps(event, y, gap_sequence(pair), mass)


def point_from_gaps(event: EventSpec, y: int, gaps: GapSequence, mass: float) -> float:
    """The point formula, with no checks: c_y + (c_{y-1} - c_y) * gap_y / mass.

    ``gaps`` is ``gap_sequence(pair)`` and ``mass`` is treated[y] > 0; for
    y = 0 the gap term is an empty sum, so the value is just c_0.
    """
    c_y = event.coeffs[y]
    if y == 0:
        return float(c_y)
    return float(c_y + (event.coeffs[y - 1] - c_y) * gaps[y - 1] / mass)
