"""Closed-form sharp bounds on counterfactual-event probabilities.

Two regimes: bounds that use only the two marginal laws (valid for any
event), and narrower bounds that additionally assume the treatment never
lowers the outcome.  Under that monotone ordering the joint law is lower
triangular, so each column's support is a suffix of rows.  By Gale's
supply-demand theorem (Gale, Pacific J. Math. 7, 1957) such a transport
problem is feasible iff every cut k has a nonnegative cumulative gap, and
fixing the evidence row adds only suffix cuts.  That gives an exact O(J)
formula for every event on monotone-consistent data, beside the paper's
single-level and all-but-one-level families; on other data each is refused.

Each closed form is written once, over rows: ``level_bounds`` computes N
(event, evidence) cells of one assumption level in one array pass, and
``cell_bounds``, which the per-cell functions call, is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Assumptions,
    CausalAttributionError,
    EventSpec,
    MarginalPair,
    check_evidence,
    evidence_mass,
)
from .identify import PairFacts, _require_unconditional, pair_facts

__all__ = [
    "BoundsResult",
    "Method",
    "UnsupportedEventError",
    "monotone_consistent",
    "pc_bounds",
    "pn_bounds_marginal",
    "pn_bounds_monotone",
]


class UnsupportedEventError(CausalAttributionError):
    """No ``mono`` cell has a bound: a cumulative gap below ``-ATOL`` empties
    the monotone feasible set (Gale; the LP reports it infeasible).  Raised
    for every event and evidence level, with ``PairFacts.mono_refusal``, the
    note of the report's refused ``mono`` cells, as its message.
    """


class Method(Enum):
    CLOSED_FORM = "closed-form"
    LP = "lp"


@dataclass(frozen=True)
class BoundsResult:
    """Lower/upper bound pair with its assumption level and provenance.

    0 <= lower <= upper <= 1, except that ``mono`` can cross: by a few ``ATOL``
    as a ratio on a gap inside the band, by a few ulps at an exact tie.
    """

    lower: float
    upper: float
    assumptions: Assumptions
    method: Method


def pn_bounds_marginal(pair: MarginalPair, event: EventSpec, y: int) -> BoundsResult:
    """Sharp bounds from the marginal laws alone, for any event.

    With t = treated[y] and w = sum_l c_l control[l] (the event's mass under
    the control law), the two-event probability bracket gives

        lower = max(0, (t - (1 - w)) / t),    upper = min(1, w / t).

    Both endpoints are attained by explicit joint constructions.
    """
    return cell_bounds(pair_facts(pair), event, y, Assumptions.MARGINAL_ONLY)


def pn_bounds_monotone(pair: MarginalPair, event: EventSpec, y: int) -> BoundsResult:
    """Sharp bounds assuming the treatment never lowers the outcome.

    Families given evidence y (classification looks only at coefficients
    for levels <= y, the reachable control levels):

    * complement of the evidence level:
        lower = max(0, (treated[y] - control[y]) / treated[y]),
        upper = min(1, gap_y / treated[y]);
    * single level y' <= y:
        lower = max(0, (treated[y] + sum_{k<y'} treated[k]
                         - sum_{l<=y} control[l] + control[y']) / treated[y]),
        upper = min(1, control[y'] / treated[y],
                    min_{y' < k <= y} gap_k / treated[y]);
    * events impossible (e.g. a single level y' > y) or certain given the
      ordering return [0, 0] or [1, 1];
    * any other event, with S = {l <= y : c_l = 1}, C = {l <= y : c_l = 0},
      G_0 = 0 and G_t = gap_t:
        lower = max(0, max_{t<=y} (treated[y] - G_t - control(C & [t, y]))
                                  / treated[y]),
        upper = min(1, min_{t<=y} (control(S & [t, y]) + G_t) / treated[y]).

    Why the last formula is sharp: the joint is lower triangular, so with
    the evidence row r fixed the rest is feasible iff every gap is >= 0 and
    sum_{l=t..y} r_l >= treated[y] - G_t for t <= y (suffix cuts).  Filling
    S, or C, from the top maximizes every suffix sum at once, so r(S) can
    take exactly the values between the two endpoints.  The families above
    are special cases.  Every form needs monotone-consistent data: on other
    data every cell raises ``UnsupportedEventError``, as the report refuses
    it, before its evidence is checked.
    """
    return cell_bounds(pair_facts(pair), event, y, Assumptions.MONOTONICITY)


def cell_bounds(
    facts: PairFacts, event: EventSpec, y: int, assumptions: Assumptions
) -> BoundsResult:
    """One (event, evidence, assumption) cell: ``check_evidence``, then the
    one-row case of ``level_bounds`` with its refusals."""
    check_evidence(facts.pair, event, y)
    lower, upper = level_bounds(facts, np.array([event.coeffs]), np.array([y]), assumptions)
    return BoundsResult(float(lower[0]), float(upper[0]), assumptions, Method.CLOSED_FORM)


def pc_bounds(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions
) -> BoundsResult:
    """Sharp bounds on the probability of causation: ``cell_bounds`` on a
    randomized design's unconditional laws (other laws are refused), with
    no LP.  ``incr`` gives the identified point as a closed-form [v, v] or
    raises ``FalsificationError``; on monotone-inconsistent data every
    ``mono`` cell raises ``UnsupportedEventError``.
    """
    _require_unconditional(pair)
    return cell_bounds(pair_facts(pair), event, y, assumptions)


def level_bounds(
    facts: PairFacts, coeffs: np.ndarray, ys: np.ndarray, assumptions: Assumptions
) -> tuple[np.ndarray, np.ndarray]:
    """The (lower, upper) bounds of N cells of one assumption level in one pass.

    Row i is the event with 0/1 integer coefficients ``coeffs[i]`` (shape
    (N, J)) given evidence ``ys[i]``: the forms of ``pn_bounds_marginal``,
    of ``pn_bounds_monotone`` (each family on its own rows) or
    ``PairFacts.points``.  Each row equals the scalar formula bit for bit:
    the same operations in the same order, the same numpy sums and dot
    products, and Python's ``max(0, x)``/``min(1, x)``.  The one place a cell
    is refused, in the report's order: ``UnsupportedEventError`` for a whole
    ``mono`` level, then ``ZeroEvidenceError``, then ``FalsificationError``.
    The rows are trusted (y = -1 would read row J - 1): ``cell_bounds``
    checks its one through ``core.check_evidence``, the CLI's
    ``run_analysis`` every evidence level before it builds a row.
    """
    if assumptions is Assumptions.MONOTONICITY and facts.mono_refusal is not None:
        raise UnsupportedEventError(facts.mono_refusal)
    if assumptions is Assumptions.MONOTONIC_INCREMENT:
        value = facts.points(coeffs, ys)
        return value, value
    mass = evidence_mass(facts.pair, ys)
    if assumptions is Assumptions.MONOTONICITY:
        return _monotone(facts, coeffs, ys, mass)
    # each row's own dot product, as EventSpec.vector @ control: the matrix
    # product coeffs @ control rounds differently
    control = facts.pair.control_law.probs
    omega = np.array([row.dot(control) for row in np.asarray(coeffs, dtype=float)])
    return _min1(_max0((mass - (1.0 - omega)) / mass)), _min1(omega / mass)


def _max0(x: np.ndarray) -> np.ndarray:  # max(0.0, x) on finite x: + 0.0 turns -0.0 to 0.0
    return np.maximum(x, 0.0) + 0.0


def _min1(x: np.ndarray) -> np.ndarray:  # min(1.0, x) on finite x
    return np.minimum(x, 1.0)


def _monotone(facts: PairFacts, coeffs: np.ndarray, ys: np.ndarray, mass: np.ndarray):
    """The ``mono`` rows of ``level_bounds`` (consistent data), classified by
    their head (levels 0..y): all zeros, all ones, (1,...,1,0), a single 1 at
    y', or else the suffix cuts.  Only the families present are computed."""
    n, levels = coeffs.shape
    rows = np.arange(n)
    ones = np.cumsum(coeffs, axis=1)[rows, ys]
    certain = ones > ys
    noteq = (ones == ys) & (ys > 0) & (coeffs[rows, ys] == 0)
    single = (ones == 1) & ~certain & ~noteq
    general = (ones > 1) & ~certain & ~noteq
    control = facts.pair.control_law.probs
    gaps = facts.gaps
    lower = certain.astype(float)
    upper = lower.copy()
    if noteq.any():
        m, y = mass[noteq], ys[noteq]
        lower[noteq] = _min1(_max0((m - control[y]) / m))
        upper[noteq] = _max0(_min1(gaps[y - 1] / m))
    if single.any():
        m, y = mass[single], ys[single]
        at = np.argmax(coeffs[single], axis=1)
        # numpy's pairwise sums, as the scalar forms take them (not cumsum)
        below = np.array([facts.pair.treated_law.probs[:k].sum() for k in range(at.max() + 1)])
        upto = np.array([control[: k + 1].sum() for k in range(y.max() + 1)])
        lower[single] = _min1(_max0((m + below[at] - upto[y] + control[at]) / m))
        # gap_k for y' < k <= y is gaps[i] for y' <= i < y
        cut = np.arange(levels - 1)
        between = (cut >= at[:, None]) & (cut < y[:, None])
        least = np.where(between, gaps / m[:, None], np.inf).min(axis=1)
        upper[single] = _max0(np.minimum(_min1(control[at] / m), least))
    if general.any():
        m, y = mass[general], ys[general]
        reachable = np.arange(levels) <= y[:, None]
        head = reachable & (coeffs[general] == 1)
        # control mass of S and of C on [t, y], for t = 0..y
        in_s = np.cumsum(np.where(head, control, 0.0)[:, ::-1], axis=1)[:, ::-1]
        in_c = np.cumsum(np.where(reachable & ~head, control, 0.0)[:, ::-1], axis=1)[:, ::-1]
        cuts = np.concatenate(([0.0], gaps))
        low = np.where(reachable, m[:, None] - cuts - in_c, -np.inf).max(axis=1)
        high = np.where(reachable, in_s + cuts, np.inf).min(axis=1)
        lower[general] = _min1(_max0(low / m))
        upper[general] = _max0(_min1(high / m))
    return lower, upper


def monotone_consistent(pair: MarginalPair) -> bool:
    """Data-checkable implication of the monotone ordering: no cumulative gap
    below ``-ATOL`` (``PairFacts.mono_refusal`` names the cuts that are)."""
    return pair_facts(pair).mono_refusal is None
