"""Probability of causation: the unconditional twin of the necessity analysis.

Under a randomized design the unconditional potential-outcome laws are
identified directly from the two arms, and every identification and
bounding result carries over verbatim with the unconditional laws in place
of the treated-conditional ones.  These wrappers enforce the conditioning
tag and reuse the necessity code paths.
"""

from __future__ import annotations

from .bounds import (
    BoundsResult,
    UnsupportedEventError,
    pn_bounds_marginal,
    pn_bounds_monotone,
)
from .core import (
    Assumptions,
    CausalAttributionError,
    Conditioning,
    EventSpec,
    MarginalPair,
)
from .identify import pn_point
from .lp import pn_bounds_lp


def _require_unconditional(pair: MarginalPair) -> None:
    if pair.conditioning is not Conditioning.UNCONDITIONAL:
        raise CausalAttributionError(
            "causation analyses need unconditional laws (a randomized design); "
            f"got conditioning={pair.conditioning.value!r}"
        )


def pc_point(pair: MarginalPair, event: EventSpec, y: int) -> float:
    """Point value of the event probability given treated potential outcome y."""
    _require_unconditional(pair)
    return pn_point(pair, event, y)


def pc_bounds(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions
) -> BoundsResult:
    """Sharp bounds under the chosen assumption level, unconditional laws.

    Dispatch mirrors the necessity side: closed forms where they exist
    (under monotonicity, every event on monotone-consistent data), the LP
    otherwise; on monotone-inconsistent data the LP reports the empty
    feasible set.
    """
    _require_unconditional(pair)
    if assumptions is Assumptions.MARGINAL_ONLY:
        return pn_bounds_marginal(pair, event, y)
    if assumptions is Assumptions.MONOTONICITY:
        try:
            return pn_bounds_monotone(pair, event, y)
        except UnsupportedEventError:
            return pn_bounds_lp(pair, event, y, assumptions)
    return pn_bounds_lp(pair, event, y, assumptions)
