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
    Conditioning,
    EventSpec,
    JointProbabilityMatrix,
    MarginalPair,
    check_evidence,
    evidence_mass,
)

__all__ = [
    "FalsificationError",
    "FalsificationReport",
    "falsification_check",
    "gap_sequence",
    "identify_joint",
    "pc_point",
    "pn_point",
]


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


def gap_sequence(pair: MarginalPair) -> np.ndarray:
    """Cumulative gaps between the control and treated laws, read-only.

    Entry k-1 is sum_{j<k} (control[j] - treated[j]) for k = 1..J-1: the
    amount of probability the treatment shifts past the cut below level k.
    Successive differences telescope back to per-level gaps.
    """
    gaps = np.cumsum(pair.control_law.probs - pair.treated_law.probs)[: pair.levels - 1]
    gaps.setflags(write=False)
    return gaps


@dataclass(frozen=True)
class PairFacts:
    """What every cell of one marginal pair reads, computed once by ``pair_facts``.

    ``gaps`` is ``gap_sequence(pair)``; ``cuts`` holds each cut's bracket as
    a row ``(k, lower, gap, upper, within_bracket, diag_nonnegative)``, and
    ``passed`` is whether all hold; ``mono_refusal`` names every cut whose
    gap is below ``-ATOL`` (the data contradict monotonicity), or is None.
    """

    pair: MarginalPair
    gaps: np.ndarray
    cuts: tuple[tuple[int, float, float, float, bool, bool], ...]
    passed: bool
    mono_refusal: str | None

    @property
    def brackets(self) -> FalsificationReport:
        """The ``falsification_check`` report of the cuts, built when read."""
        return FalsificationReport(self.passed, tuple(BracketCheck(*cut) for cut in self.cuts))

    def points(self, coeffs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """c_y + (c_{y-1} - c_y) * gap_y / treated[y] for each row's event
        ``coeffs[i]`` and evidence ``ys[i]`` (c_0 at y = 0: an empty sum).

        Refuses zero evidence first (``ZeroEvidenceError``), then failed gap
        brackets (``FalsificationError``).
        """
        mass = evidence_mass(self.pair, ys)
        if not self.passed:
            raise FalsificationError(self.brackets)
        rows = np.arange(len(ys))
        c_y = coeffs[rows, ys]
        value = c_y + (coeffs[rows, ys - 1] - c_y) * self.gaps[ys - 1] / mass
        return np.where(ys == 0, c_y, value)

    def joint(self) -> JointProbabilityMatrix:
        """The one joint on the diagonal-plus-subdiagonal pattern; see ``identify_joint``."""
        if not self.passed:
            raise FalsificationError(self.brackets)
        gaps = self.gaps
        # treated[0], then treated[k] - gap_k on the diagonal; gap_k below it
        entries = np.diag(self.pair.treated_law.probs - np.append(0.0, gaps)) + np.diag(gaps, -1)
        entries = np.clip(entries, 0.0, None)
        return JointProbabilityMatrix(entries=entries / entries.sum())


def pair_facts(pair: MarginalPair) -> PairFacts:
    """The gaps, the bracket rows and the monotone refusal of a pair.

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
    cuts = []
    for k, gap in enumerate(gaps.tolist(), start=1):
        lower = max(0.0, treated[k] + control[k - 1] - 1.0)
        upper = min(treated[k], control[k - 1])
        cuts.append((k, lower, gap, upper, lower - ATOL <= gap <= upper + ATOL,
                     treated[k] - gap >= -ATOL))
    passed = all(within and diag for *_, within, diag in cuts)
    bad = ", ".join(f"k={k}: gap {gap:.6g}" for k, _, gap, *_ in cuts if gap < -ATOL)
    note = "monotonicity falsified by the data: negative cumulative gap at " + bad
    return PairFacts(pair, gaps, tuple(cuts), passed, note if bad else None)


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

    ``check_evidence``, then the one-row case of ``PairFacts.points``.
    Agrees with direct evaluation on the reconstructed joint to within
    ``core.EXACT_ATOL``.
    """
    check_evidence(pair, event, y)
    return float(pair_facts(pair).points(np.array([event.coeffs]), np.array([y]))[0])


def _require_unconditional(pair: MarginalPair) -> None:
    if pair.conditioning is not Conditioning.UNCONDITIONAL:
        raise CausalAttributionError(
            "causation analyses need unconditional laws (a randomized design); "
            f"got conditioning={pair.conditioning.value!r}"
        )


def pc_point(pair: MarginalPair, event: EventSpec, y: int) -> float:
    """Point value of the event probability given treated potential outcome y.

    The probability of causation is ``pn_point`` on a randomized design's
    unconditional laws, which the two arms identify directly; other laws
    are refused.
    """
    _require_unconditional(pair)
    return pn_point(pair, event, y)
