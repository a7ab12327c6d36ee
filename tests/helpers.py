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


def whole_batch_sample_matrices(
    pair: MarginalPair, assumptions: Assumptions, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Reference sampler: sweeps the whole batch until its slowest draw
    converges, then keeps the draws that meet ``IPF_ACCEPT``.

    ``oracle._sample_matrices`` stops each draw on its own convergence
    instead; the two must accept the same draws with the same values.
    """
    from pnbounds.oracle import (
        IPF_ACCEPT,
        IPF_MAX_SWEEPS,
        IPF_TARGET,
        _cut_partitions,
        _support_mask,
    )

    levels = pair.levels
    bool_mask = _support_mask(pair, assumptions)
    mask = bool_mask.astype(float)
    treated = pair.treated_law.probs
    control = pair.control_law.probs
    partitions = _cut_partitions(pair, assumptions, bool_mask)
    x = rng.gamma(1.0, size=(n, levels, levels)) * mask
    x /= x.sum(axis=(1, 2), keepdims=True)
    row_t = treated[None, :, None]
    col_t = control[None, None, :]
    for _ in range(IPF_MAX_SWEEPS):
        rs = x.sum(axis=2, keepdims=True)
        x *= row_t / np.where(rs > 0, rs, 1.0)
        cs = x.sum(axis=1, keepdims=True)
        x *= col_t / np.where(cs > 0, cs, 1.0)
        for region, rest, target in partitions:
            inside = x[:, region].sum(axis=1)
            outside = x[:, rest].sum(axis=1)
            x[:, region] *= np.where(inside > 0, target / np.where(inside > 0, inside, 1.0), 1.0)[:, None]
            x[:, rest] *= np.where(outside > 0, (1.0 - target) / np.where(outside > 0, outside, 1.0), 1.0)[:, None]
        rs_err = np.abs(x.sum(axis=2) - treated).max(axis=1)
        cs_err = np.abs(x.sum(axis=1) - control).max(axis=1)
        if max(rs_err.max(), cs_err.max()) < IPF_TARGET:
            break
    err = np.maximum(
        np.abs(x.sum(axis=2) - treated).max(axis=1),
        np.abs(x.sum(axis=1) - control).max(axis=1),
    )
    return x[err < IPF_ACCEPT]


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
