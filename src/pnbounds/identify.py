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
    evidence_mass,
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


@dataclass(frozen=True)
class PairFacts:
    """What every cell of one marginal pair reads, computed once by ``pair_facts``.

    ``gaps`` is ``gap_sequence(pair)``; ``brackets`` is the
    ``falsification_check`` report on those gaps; ``mono_refusal`` names
    every cut whose gap is below ``-ATOL`` (the data contradict
    monotonicity), or is None.
    """

    pair: MarginalPair
    gaps: GapSequence
    brackets: FalsificationReport
    mono_refusal: str | None

    def point(self, event: EventSpec, y: int) -> float:
        """The one-row case of ``points``, after ``check_evidence``."""
        check_evidence(self.pair, event, y)
        return float(self.points(np.array([event.coeffs]), np.array([y]))[0])

    def points(self, coeffs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """c_y + (c_{y-1} - c_y) * gap_y / treated[y] for each row's event
        ``coeffs[i]`` and evidence ``ys[i]`` (c_0 at y = 0: an empty sum).

        Refuses zero evidence first (``ZeroEvidenceError``), then failed gap
        brackets (``FalsificationError``).
        """
        mass = evidence_mass(self.pair, ys)
        if not self.brackets.passed:
            raise FalsificationError(self.brackets)
        rows = np.arange(len(ys))
        c_y = coeffs[rows, ys]
        value = c_y + (coeffs[rows, ys - 1] - c_y) * self.gaps.gaps[ys - 1] / mass
        return np.where(ys == 0, c_y, value)

    def joint(self) -> JointProbabilityMatrix:
        """The one joint on the diagonal-plus-subdiagonal pattern; see ``identify_joint``."""
        if not self.brackets.passed:
            raise FalsificationError(self.brackets)
        gaps = self.gaps.gaps
        # treated[0], then treated[k] - gap_k on the diagonal; gap_k below it
        entries = np.diag(self.pair.treated_law.probs - np.append(0.0, gaps)) + np.diag(gaps, -1)
        entries = np.clip(entries, 0.0, None)
        return JointProbabilityMatrix(entries=entries / entries.sum())


def pair_facts(pair: MarginalPair) -> PairFacts:
    """The gaps, the bracket report and the monotone refusal of a pair.

    For each k = 1..J-1 the subdiagonal entry of the reconstructed joint
    equals the cumulative gap and must satisfy its two-event probability
    bracket

        max(0, treated[k] + control[k-1] - 1) <= gap_k
                                              <= min(treated[k], control[k-1]),

    and the diagonal entry treated[k] - gap_k must be nonnegative.
    """
    gaps = gap_sequence(pair)
    # Python floats: the same IEEE arithmetic as numpy scalars, without their overhead
    treated = pair.treated_law.probs.tolist()
    control = pair.control_law.probs.tolist()
    checks = []
    for k, gap in enumerate(gaps.gaps.tolist(), start=1):
        lower = max(0.0, treated[k] + control[k - 1] - 1.0)
        upper = min(treated[k], control[k - 1])
        checks.append(
            BracketCheck(
                k=k,
                lower=lower,
                gap=gap,
                upper=upper,
                within_bracket=lower - ATOL <= gap <= upper + ATOL,
                diag_nonnegative=treated[k] - gap >= -ATOL,
            )
        )
    brackets = FalsificationReport(passed=all(c.ok for c in checks), checks=tuple(checks))
    bad = ", ".join(f"k={c.k}: gap {c.gap:.6g}" for c in checks if c.gap < -ATOL)
    note = "monotonicity falsified by the data: negative cumulative gap at " + bad
    return PairFacts(pair, gaps, brackets, note if bad else None)


def falsification_check(pair: MarginalPair) -> FalsificationReport:
    """Test the data-checkable implication of the one-level-lift assumption.

    The gap brackets of ``pair_facts``.  Failure is a report outcome, not
    an error; passing does not validate the assumption.
    """
    return pair_facts(pair).brackets


def identify_joint(pair: MarginalPair) -> JointProbabilityMatrix:
    """Reconstruct the unique joint law on the diagonal-plus-subdiagonal pattern.

    q[0,0] = treated[0]; q[k,k-1] = gap_k; q[k,k] = treated[k] - gap_k; all
    other entries zero.  Refuses (raises FalsificationError) when the gap
    brackets fail, rather than silently returning a non-probability matrix.
    An entry that the brackets accept inside the ``ATOL`` band can be just
    below zero; it is clipped and the matrix rescaled to sum to one.
    """
    return pair_facts(pair).joint()


def pn_point(pair: MarginalPair, event: EventSpec, y: int) -> float:
    """Point value of the event probability given treated-outcome evidence y.

    ``PairFacts.point`` on ``pair_facts(pair)``.  Agrees with direct
    evaluation on the reconstructed joint to within ``EXACT_ATOL``.
    """
    return pair_facts(pair).point(event, y)
