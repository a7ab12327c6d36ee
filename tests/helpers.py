"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from pnbounds import (
    Assumptions,
    Conditioning,
    ContingencyTable,
    MarginalPair,
    OrdinalDistribution,
    Source,
    counterfactual_margin_experimental,
    make_event,
    randomized_margins,
)

# Job-training study counts (experimental source and matched observational
# source); the golden fixture for the whole suite.
LALONDE_EXP = [[92, 33, 135], [45, 32, 108]]
LALONDE_OBS = [[115, 50, 205], [90, 64, 216]]


def lalonde_tables() -> tuple[ContingencyTable, ContingencyTable]:
    return (
        ContingencyTable(counts=LALONDE_EXP, source=Source.EXPERIMENTAL),
        ContingencyTable(counts=LALONDE_OBS, source=Source.OBSERVATIONAL),
    )


def lalonde_pair() -> MarginalPair:
    exp, obs = lalonde_tables()
    return counterfactual_margin_experimental(exp, obs)


def lalonde_pc_pair() -> MarginalPair:
    exp, _ = lalonde_tables()
    return randomized_margins(exp)


def pair_from_laws(
    treated, control, conditioning=Conditioning.GIVEN_TREATED
) -> MarginalPair:
    return MarginalPair(
        treated_law=OrdinalDistribution(np.asarray(treated, dtype=float)),
        control_law=OrdinalDistribution(np.asarray(control, dtype=float)),
        conditioning=conditioning,
    )


def staircase_joint(rng: np.random.Generator, levels: int) -> np.ndarray:
    """Random joint matrix supported on the diagonal plus subdiagonal."""
    q = np.zeros((levels, levels))
    for k in range(levels):
        q[k, k] = rng.random() + 0.05
        if k:
            q[k, k - 1] = rng.random()
    return q / q.sum()


def staircase_pair(rng: np.random.Generator, levels: int, conditioning=Conditioning.GIVEN_TREATED) -> MarginalPair:
    q = staircase_joint(rng, levels)
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0), conditioning)


def lower_triangular_pair(
    rng: np.random.Generator, levels: int, conditioning=Conditioning.GIVEN_TREATED
) -> MarginalPair:
    """Marginals of a random monotone joint: feasible for every ladder level
    except (generically) the one-level-lift singleton."""
    q = np.tril(rng.random((levels, levels)))
    q /= q.sum()
    return pair_from_laws(q.sum(axis=1), q.sum(axis=0), conditioning)


def arbitrary_pair(
    rng: np.random.Generator, levels: int, conditioning=Conditioning.GIVEN_TREATED
) -> MarginalPair:
    return pair_from_laws(
        rng.dirichlet(np.ones(levels)), rng.dirichlet(np.ones(levels)), conditioning
    )


def canonical_events(levels: int, y: int):
    """The five canonical families at evidence y."""
    events = [make_event("noteq", levels, level=y)]
    events += [make_event("eq", levels, level=v) for v in range(levels)]
    events.append(make_event("lt", levels, level=y))
    return events


def assumption_levels():
    return [
        Assumptions.MARGINAL_ONLY,
        Assumptions.MONOTONICITY,
        Assumptions.MONOTONIC_INCREMENT,
    ]
