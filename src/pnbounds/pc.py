"""Probability of causation: the unconditional twin of the necessity analysis.

Under a randomized design the unconditional potential-outcome laws are
identified directly from the two arms, and every identification and
bounding result carries over verbatim with the unconditional laws in place
of the treated-conditional ones.  These wrappers enforce the conditioning
tag and reuse the necessity code paths.
"""

from __future__ import annotations

from .bounds import BoundsResult, cell_bounds
from .core import (
    Assumptions,
    CausalAttributionError,
    Conditioning,
    EventSpec,
    MarginalPair,
)
from .identify import pair_facts, pn_point


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

    One report cell, ``bounds.cell_bounds``, with no LP: ``incr`` gives the
    identified point as a closed-form [v, v] or raises
    ``FalsificationError``; on monotone-inconsistent data every ``mono``
    cell raises ``UnsupportedEventError``.
    """
    _require_unconditional(pair)
    return cell_bounds(pair_facts(pair), event, y, assumptions)
