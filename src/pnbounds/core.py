"""Domain types for counterfactual attribution with ordinal outcomes.

An ordinal outcome takes levels 0..J-1.  The analysis works with a pair of
marginal laws for the treated and control potential outcomes on a common
conditioning set, and with J x J joint probability matrices whose rows index
the treated outcome level and whose columns index the control outcome level
(fixed convention, used repo-wide).  A counterfactual event on the control
outcome is encoded as a binary coefficient vector over levels.

All types are immutable after construction and every function is pure, so
values can be shared freely across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

#: Absolute tolerance for probability comparisons.  Inputs are ratios of
#: counts, so this dominates float rounding by many orders of magnitude.
ATOL = 1e-9


class CausalAttributionError(Exception):
    """Base error for this package."""


class InvalidDistributionError(CausalAttributionError, ValueError):
    """A probability vector or matrix violates its invariants."""


class EventSpecError(CausalAttributionError, ValueError):
    """A counterfactual event specification is malformed."""


class ZeroEvidenceError(CausalAttributionError):
    """Conditioning on an outcome level with zero probability mass.

    Raised explicitly instead of returning NaN or silently producing 0.
    """

    @classmethod
    def at_level(cls, y: int) -> "ZeroEvidenceError":
        """The refusal of evidence level y, which has no treated mass."""
        return cls(f"treated outcome level {y} has zero probability")


class Conditioning(Enum):
    """Conditioning set on which both marginal laws live."""

    GIVEN_TREATED = "given-treated"  # laws of Y1, Y0 among treated units
    UNCONDITIONAL = "unconditional"  # laws of Y1, Y0 in the full population


class Assumptions(Enum):
    """Assumption ladder ordering the feasible sets of joint matrices.

    MARGINAL_ONLY fixes the two marginal laws and nothing else.
    MONOTONICITY additionally forbids the control outcome from exceeding
    the treated outcome (lower-triangular joint matrix).
    MONOTONIC_INCREMENT further restricts the treated outcome to at most
    one level above the control outcome (diagonal plus subdiagonal), which
    pins the joint matrix down uniquely when it is feasible at all.

    Each level's feasible set contains the next one's:
    MONOTONIC_INCREMENT subset-of MONOTONICITY subset-of MARGINAL_ONLY.
    """

    MARGINAL_ONLY = "marginal"
    MONOTONICITY = "mono"
    MONOTONIC_INCREMENT = "incr"


def allowed_mask(assumptions: Assumptions, levels: int) -> np.ndarray:
    """Boolean (levels, levels) mask of the cells (k, l) not pinned to zero.

    MONOTONICITY forbids k < l; MONOTONIC_INCREMENT forbids k < l and
    k > l + 1.  MARGINAL_ONLY pins nothing.
    """
    if assumptions is Assumptions.MARGINAL_ONLY:
        return np.ones((levels, levels), dtype=bool)
    if assumptions is Assumptions.MONOTONICITY:
        return np.tri(levels, dtype=bool)  # k >= l
    mask = np.zeros((levels, levels), dtype=bool)  # k = l and k = l + 1: two diagonals
    mask.flat[:: levels + 1] = True
    mask.flat[levels :: levels + 1] = True
    return mask


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OrdinalDistribution:
    """Probability vector over outcome levels 0..J-1, J >= 2.

    Entries are nonnegative and sum to one within ``ATOL``.  When built from
    counts the normalization happens exactly once, in ``from_counts``.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise InvalidDistributionError(
                f"need a 1-d vector with at least 2 levels, got shape {probs.shape}"
            )
        if not (probs.min() >= -ATOL and probs.max() <= 1 + ATOL):  # NaN fails both
            raise InvalidDistributionError(f"entries outside [0, 1]: {probs}")
        total = probs.sum()
        if abs(total - 1.0) > ATOL:
            raise InvalidDistributionError(f"entries sum to {total}, not 1")
        probs = np.clip(probs, 0.0, 1.0)  # a new array
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_counts(cls, counts: Sequence[float]) -> "OrdinalDistribution":
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise InvalidDistributionError("counts sum to zero")
        return cls(probs=counts / total)

    @property
    def levels(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class MarginalPair:
    """Marginal laws of the treated and control potential outcomes.

    Both laws live on the same conditioning set: among treated units for
    necessity analyses, unconditional for causation analyses.
    """

    treated_law: OrdinalDistribution
    control_law: OrdinalDistribution
    conditioning: Conditioning

    def __post_init__(self):
        if self.treated_law.levels != self.control_law.levels:
            raise InvalidDistributionError(
                f"level counts differ: treated {self.treated_law.levels}, "
                f"control {self.control_law.levels}"
            )

    @property
    def levels(self) -> int:
        return self.treated_law.levels


@dataclass(frozen=True)
class JointProbabilityMatrix:
    """J x J joint law of the potential outcomes.

    Row index k is the treated outcome level, column index l the control
    outcome level.  Entries are nonnegative and the grand sum is one within
    ``ATOL``; row and column sums reproduce the marginal pair a matrix was
    built from.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidDistributionError(f"need a square matrix, got {entries.shape}")
        if entries.min() < -ATOL:
            raise InvalidDistributionError(
                f"negative entry {entries.min()} below tolerance"
            )
        total = entries.sum()
        if abs(total - 1.0) > ATOL:
            raise InvalidDistributionError(f"entries sum to {total}, not 1")
        object.__setattr__(self, "entries", _readonly(np.clip(entries, 0.0, None)))

    @property
    def levels(self) -> int:
        return int(self.entries.shape[0])

    def row_margins(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def col_margins(self) -> np.ndarray:
        return self.entries.sum(axis=0)


@dataclass(frozen=True)
class EventSpec:
    """Counterfactual event on the control outcome, as binary coefficients.

    coeffs[l] = 1 marks level l as part of the event.
    """

    coeffs: tuple[int, ...]
    label: str

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise EventSpecError("event needs at least 2 levels")
        if not all(map((0, 1).__contains__, self.coeffs)):  # equality, no hashing
            raise EventSpecError(f"coefficients must be 0/1, got {self.coeffs}")
        object.__setattr__(self, "coeffs", tuple(map(int, self.coeffs)))

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def complement(self) -> "EventSpec":
        return EventSpec(
            coeffs=tuple(1 - c for c in self.coeffs), label=f"not({self.label})"
        )


def make_event(
    kind: str,
    levels: int,
    level: int | None = None,
    coeffs: Iterable[int] | None = None,
) -> EventSpec:
    """Build an event of one of the named families.

    noteq(y): every level except y.  eq(y'): exactly level y'.  lt(y): all
    levels strictly below y (empty when y = 0).  custom: explicit 0/1
    coefficients, validated and passed through.
    """
    if levels < 2:
        raise EventSpecError("need at least 2 outcome levels")
    if kind == "custom":
        if coeffs is None:
            raise EventSpecError("custom events need explicit coefficients")
        bits = tuple(int(c) for c in coeffs)
        if len(bits) != levels:
            raise EventSpecError(
                f"custom event has {len(bits)} coefficients for {levels} levels"
            )
        return EventSpec(coeffs=bits, label="custom:" + "".join(map(str, bits)))
    if kind not in ("noteq", "eq", "lt"):
        raise EventSpecError(f"unknown event kind {kind!r}")
    if level is None or not (0 <= level < levels):
        raise EventSpecError(f"event level {level} out of range for {levels} levels")
    rest = levels - level - 1
    if kind == "noteq":
        bits = (1,) * level + (0,) + (1,) * rest
        label = f"Y0 != {level}"
    elif kind == "eq":
        bits = (0,) * level + (1,) + (0,) * rest
        label = f"Y0 = {level}"
    else:  # lt
        bits = (1,) * level + (0,) * (levels - level)
        label = f"Y0 < {level}"
    return EventSpec(coeffs=bits, label=label)


def check_evidence(pair: MarginalPair | JointProbabilityMatrix, event: EventSpec, y: int) -> None:
    """The cell check of every one-cell entry: the event has the levels of
    ``pair``, a marginal pair or a joint, and y is one of them.  Zero
    evidence is refused where the mass is read, by ``evidence_mass``."""
    if len(event.coeffs) != pair.levels:
        raise CausalAttributionError(f"event has {len(event.coeffs)} levels, not {pair.levels}")
    if not 0 <= y < pair.levels:
        raise CausalAttributionError(f"evidence level {y} out of range")


def evidence_mass(pair: MarginalPair, ys: int | np.ndarray) -> np.ndarray:
    """treated[ys] for an evidence level or an array of them; raises
    ``ZeroEvidenceError`` for the first level with no treated mass."""
    mass = pair.treated_law.probs[ys]
    zero = np.flatnonzero(mass <= ATOL)
    if zero.size:
        y = np.atleast_1d(ys)[zero[0]]
        raise ZeroEvidenceError.at_level(y)
    return mass


def pn_from_joint(joint: JointProbabilityMatrix, event: EventSpec, y: int) -> float:
    """Probability of the event among units with treated outcome level y.

    Evaluates sum_l c_l q[y, l] / sum_l q[y, l]; the ratio form makes the
    value invariant to rescaling the matrix by a positive constant.
    """
    check_evidence(joint, event, y)
    row = joint.entries[y]
    mass = float(row.sum())
    if mass <= ATOL:
        raise ZeroEvidenceError.at_level(y)
    return float(row @ event.vector / mass)
