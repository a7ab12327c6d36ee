"""Closed-form sharp bounds on counterfactual-event probabilities.

Two regimes: bounds that use only the two marginal laws (valid for any
event), and narrower bounds that additionally assume the treatment never
lowers the outcome.  Under that monotone ordering the joint law is lower
triangular, so each column's support is a suffix of rows.  By Gale's
supply-demand theorem (Gale, Pacific J. Math. 7, 1957) such a transport
problem is feasible iff every cut k has a nonnegative cumulative gap, and
fixing the evidence row adds only suffix cuts.  That gives an exact O(J)
formula for every event on monotone-consistent data; the paper's
single-level and all-but-one-level families keep their own closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    ATOL,
    Assumptions,
    CausalAttributionError,
    EventSpec,
    JointProbabilityMatrix,
    MarginalPair,
    check_evidence,
)
from .identify import PairFacts, pair_facts


class UnsupportedEventError(CausalAttributionError):
    """No closed form: the data contradict monotonicity (a negative gap).

    Raised only for events outside the paper's families, whose monotone
    feasible set is then empty (the LP reports it infeasible).
    """


class Method(Enum):
    CLOSED_FORM = "closed-form"
    LP = "lp"


@dataclass(frozen=True)
class BoundsResult:
    """Lower/upper bound pair with its assumption level and provenance.

    For monotone-consistent data, 0 <= lower <= upper <= 1 within tolerance.
    When the data contradict the monotone ordering the closed forms can
    cross; that is surfaced through ``note`` (and ``crossed``) instead of
    being clamped away.
    """

    lower: float
    upper: float
    assumptions: Assumptions
    method: Method
    witnesses: tuple[JointProbabilityMatrix, JointProbabilityMatrix] | None = field(
        default=None, compare=False
    )
    note: str | None = None

    @property
    def crossed(self) -> bool:
        # as the note: a gap inside the band can cross by a few ATOL as a ratio
        return self.note is not None and self.lower > self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float, slack: float = ATOL) -> bool:
        return self.lower - slack <= value <= self.upper + slack


def pn_bounds_marginal(pair: MarginalPair, event: EventSpec, y: int) -> BoundsResult:
    """Sharp bounds from the marginal laws alone, for any event.

    With t = treated[y] and w = sum_l c_l control[l] (the event's mass under
    the control law), the two-event probability bracket gives

        lower = max(0, (t - (1 - w)) / t),    upper = min(1, w / t).

    Both endpoints are attained by explicit joint constructions.
    """
    mass = check_evidence(pair, event, y)
    omega = float(event.vector @ pair.control_law.probs)
    lower = min(1.0, max(0.0, (mass - (1.0 - omega)) / mass))
    upper = min(1.0, omega / mass)
    return BoundsResult(
        lower=lower,
        upper=upper,
        assumptions=Assumptions.MARGINAL_ONLY,
        method=Method.CLOSED_FORM,
    )


def _classify_monotone(event: EventSpec, y: int) -> tuple[str, int | None]:
    """Classify an event by its coefficients at levels 0..y.

    Under monotonicity the control outcome cannot exceed the treated one, so
    only the head of the coefficient vector matters given evidence y.  Head
    patterns: all zeros (event impossible), all ones (event certain),
    (1,...,1,0) (complement of the evidence level), exactly one 1 at some
    y' <= y (single level).  Anything else has no closed form.
    """
    head = event.coeffs[: y + 1]
    if all(c == 0 for c in head):
        return "impossible", None
    if all(c == 1 for c in head):
        return "certain", None
    if head == (1,) * y + (0,):
        return "noteq", None
    if sum(head) == 1:
        return "eq", head.index(1)
    return "unsupported", None


def pn_bounds_monotone(pair: MarginalPair, event: EventSpec, y: int) -> BoundsResult:
    """Sharp bounds assuming the treatment never lowers the outcome.

    Supported families given evidence y (classification looks only at
    coefficients for levels <= y, the reachable control levels):

    * complement of the evidence level:
        lower = max(0, (treated[y] - control[y]) / treated[y]),
        upper = min(1, gap_y / treated[y]);
    * single level y' < y:
        lower = max(0, (treated[y] + sum_{k<y'} treated[k]
                         - sum_{l<=y} control[l] + control[y']) / treated[y]),
        upper = min(1, control[y'] / treated[y],
                    min_{y' < k <= y} gap_k / treated[y]);
    * single level y' = y: same lower; the gap terms in the upper bound run
      over an empty range and are omitted;
    * single level y' > y: impossible given the ordering, returns [0, 0];
    * events certain given the ordering return [1, 1];
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
    are special cases.  This formula needs monotone-consistent data; on
    other data it raises ``UnsupportedEventError``.

    Gaps are used unclipped in the family forms: if the data contradict the
    monotone ordering the interval can cross, which is reported via
    ``note`` rather than silently clamped.
    """
    return cell_bounds(pair_facts(pair), event, y, Assumptions.MONOTONICITY)


def cell_bounds(
    facts: PairFacts, event: EventSpec, y: int, assumptions: Assumptions
) -> BoundsResult:
    """The result of one (event, evidence, assumption) cell on a pair's facts.

    ``marginal``: ``pn_bounds_marginal``.  ``incr``: the identified point
    as a zero-width closed-form interval, or ``FalsificationError`` when
    the gap brackets fail.  ``mono``: the forms of ``pn_bounds_monotone``
    on the facts' gaps.  Zero evidence raises ``ZeroEvidenceError`` first
    at every level.  No level calls the LP.
    """
    if assumptions is Assumptions.MARGINAL_ONLY:
        return pn_bounds_marginal(facts.pair, event, y)
    if assumptions is Assumptions.MONOTONIC_INCREMENT:
        value = facts.point(event, y)
        return BoundsResult(value, value, assumptions, Method.CLOSED_FORM)
    pair = facts.pair
    mass = check_evidence(pair, event, y)
    treated = pair.treated_law.probs
    control = pair.control_law.probs
    kind, level = _classify_monotone(event, y)
    if kind == "impossible":
        return BoundsResult(0.0, 0.0, Assumptions.MONOTONICITY, Method.CLOSED_FORM)
    if kind == "certain":
        return BoundsResult(1.0, 1.0, Assumptions.MONOTONICITY, Method.CLOSED_FORM)
    gaps = facts.gaps
    if kind == "unsupported":
        reason = facts.mono_refusal
        if reason is not None:
            raise UnsupportedEventError(f"event {event.label!r} with evidence {y}: {reason}")
        head = np.array(event.coeffs[: y + 1], dtype=bool)
        reachable = control[: y + 1]
        # control mass of S and of C on [t, y], for t = 0..y
        in_s = np.cumsum(np.where(head, reachable, 0.0)[::-1])[::-1]
        in_c = np.cumsum(np.where(head, 0.0, reachable)[::-1])[::-1]
        cuts = np.concatenate(([0.0], gaps.gaps[:y]))
        lower = max(0.0, float((mass - cuts - in_c).max()) / mass)
        upper = min(1.0, float((in_s + cuts).min()) / mass)
    elif kind == "noteq":
        lower = max(0.0, (mass - control[y]) / mass)
        upper = min(1.0, gaps[y - 1] / mass)
    else:  # single level y' <= y
        y_prime = level
        lower = max(
            0.0,
            (mass + treated[:y_prime].sum() - control[: y + 1].sum() + control[y_prime])
            / mass,
        )
        terms = [1.0, control[y_prime] / mass]
        terms += [gaps[k - 1] / mass for k in range(y_prime + 1, y + 1)]
        upper = min(terms)
    lower = float(min(1.0, lower))
    upper = float(max(0.0, upper))
    note = None
    # The crossing is measured in probability units, the band of the gap
    # test.  Rounding can push a gap of about -ATOL just past that band, so
    # the note also needs monotone-inconsistent data.
    if (lower - upper) * mass > ATOL and facts.mono_refusal is not None:
        note = (
            "monotonicity falsified by data: lower bound "
            f"{lower:.6g} exceeds upper bound {upper:.6g}"
        )
    return BoundsResult(
        lower=lower,
        upper=upper,
        assumptions=Assumptions.MONOTONICITY,
        method=Method.CLOSED_FORM,
        note=note,
    )


def monotone_consistent(pair: MarginalPair) -> bool:
    """Data-checkable implication of the monotone ordering: all gaps >= 0."""
    return monotone_falsified(pair) is None


def monotone_falsified(pair: MarginalPair) -> str | None:
    """Why the data contradict monotonicity, or None if they do not.

    Names every cut k whose cumulative gap is negative (below ``-ATOL``).
    """
    return pair_facts(pair).mono_refusal
