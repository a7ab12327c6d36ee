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

from dataclasses import dataclass, field
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


def fixed_zero_cells(assumptions: Assumptions, levels: int) -> list[tuple[int, int]]:
    """Cells (k, l) of the joint matrix pinned to zero by the assumption level.

    MONOTONICITY forbids k < l; MONOTONIC_INCREMENT forbids k < l and
    k > l + 1.  MARGINAL_ONLY pins nothing.
    """
    cells: list[tuple[int, int]] = []
    if assumptions is Assumptions.MARGINAL_ONLY:
        return cells
    for k in range(levels):
        for l in range(levels):
            if k < l or (assumptions is Assumptions.MONOTONIC_INCREMENT and k > l + 1):
                cells.append((k, l))
    return cells


def allowed_mask(assumptions: Assumptions, levels: int) -> np.ndarray:
    """Boolean (levels, levels) mask of cells not pinned to zero."""
    mask = np.ones((levels, levels), dtype=bool)
    for k, l in fixed_zero_cells(assumptions, levels):
        mask[k, l] = False
    return mask


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OrdinalDistribution:
    """Probability vector over outcome levels 0..J-1, J >= 2.

    Entries are nonnegative and sum to one within ``ATOL``.  When built from
    counts the normalization happens exactly once, here, and the raw counts
    are retained for provenance.
    """

    probs: np.ndarray
    counts: np.ndarray | None = field(default=None, compare=False)

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
        if self.counts is not None:
            object.__setattr__(self, "counts", _readonly(self.counts))

    @classmethod
    def from_counts(cls, counts: Sequence[float]) -> "OrdinalDistribution":
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise InvalidDistributionError("counts sum to zero")
        return cls(probs=counts / total, counts=counts)

    @property
    def levels(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, y: int) -> float:
        return float(self.probs[y])


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
class GapSequence:
    """Cumulative gaps between the control and treated laws.

    Entry k-1 is sum_{j<k} (control[j] - treated[j]) for k = 1..J-1: the
    amount of probability the treatment shifts past the cut below level k.
    Successive differences telescope back to per-level gaps.
    """

    gaps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gaps", _readonly(np.atleast_1d(self.gaps)))

    def __getitem__(self, i: int) -> float:
        return float(self.gaps[i])

    def __len__(self) -> int:
        return int(self.gaps.size)


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


#: Event families the command line understands; level is the family parameter.
EVENT_KINDS = ("noteq", "eq", "lt", "custom")


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
    if kind not in EVENT_KINDS:
        raise EventSpecError(f"unknown event kind {kind!r}")
    if level is None or not (0 <= level < levels):
        raise EventSpecError(f"event level {level} out of range for {levels} levels")
    if kind == "noteq":
        bits = tuple(0 if l == level else 1 for l in range(levels))
        label = f"Y0 != {level}"
    elif kind == "eq":
        bits = tuple(1 if l == level else 0 for l in range(levels))
        label = f"Y0 = {level}"
    else:  # lt
        bits = tuple(1 if l < level else 0 for l in range(levels))
        label = f"Y0 < {level}"
    return EventSpec(coeffs=bits, label=label)


def check_evidence(pair: MarginalPair, event: EventSpec, y: int) -> float:
    """Validate (event, evidence y) against the pair; returns treated[y].

    Raises ``ZeroEvidenceError`` when level y has no treated mass.
    """
    if len(event.coeffs) != pair.levels:
        raise CausalAttributionError(
            f"event has {len(event.coeffs)} levels, marginal pair {pair.levels}"
        )
    if not 0 <= y < pair.levels:
        raise CausalAttributionError(f"evidence level {y} out of range")
    return float(evidence_mass(pair, y))


def evidence_mass(pair: MarginalPair, ys: int | np.ndarray) -> np.ndarray:
    """treated[ys] for an evidence level or an array of them; raises
    ``ZeroEvidenceError`` for the first level with no treated mass."""
    mass = pair.treated_law.probs[ys]
    zero = np.flatnonzero(mass <= ATOL)
    if zero.size:
        y = np.atleast_1d(ys)[zero[0]]
        raise ZeroEvidenceError(f"treated outcome level {y} has zero probability")
    return mass


def pn_from_joint(joint: JointProbabilityMatrix, event: EventSpec, y: int) -> float:
    """Probability of the event among units with treated outcome level y.

    Evaluates sum_l c_l q[y, l] / sum_l q[y, l]; the ratio form makes the
    value invariant to rescaling the matrix by a positive constant.
    """
    if len(event.coeffs) != joint.levels:
        raise EventSpecError(
            f"event has {len(event.coeffs)} levels, joint matrix {joint.levels}"
        )
    if not 0 <= y < joint.levels:
        raise EventSpecError(f"evidence level {y} out of range")
    row = joint.entries[y]
    mass = float(row.sum())
    if mass <= ATOL:
        raise ZeroEvidenceError(
            f"treated outcome level {y} has zero probability; the conditional "
            "is undefined"
        )
    return float(row @ event.vector / mass)
