"""Independent verification of bounds: sampling, witnesses, certification.

Nothing here trusts the closed forms or the LP.  Every feasible set on the
ladder is a set of joint matrices with fixed margins and a staircase zero
pattern, so Gale's supply-demand theorem gives each cell an exact feasible
interval given the cells before it.  Seeded draws fill one cell at a time
inside those intervals and meet the margins exactly, and bound endpoints
are re-attained by explicit constructions at every level.

A batch is held cell-major, (J, J, n), so that every per-cell step works on
one contiguous length-n vector.  The cells of one (pair, level) are checked
in one pass over one batch (``verify_cells``): one evidence level at a
time, the level's witnesses built in one fill, and under ``incr`` the one
feasible point evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import inf

import numpy as np

from .bounds import BoundsResult
from .core import (
    ATOL,
    Assumptions,
    CausalAttributionError,
    EventSpec,
    JointProbabilityMatrix,
    MarginalPair,
    allowed_mask,
    check_evidence,
    evidence_mass,
    pn_from_joint,
)
from .identify import EXACT_ATOL, FalsificationError, PairFacts, pair_facts

#: Draws are split into this many groups, each with its own fill order.
MIX_GROUPS = 16
#: Most entries, draws x J x J, that one batch may hold: 2**27 floats, 1 GiB.
BATCH_BUDGET = 2**27


class ConstructionError(CausalAttributionError):
    """An extremal witness construction failed; this indicates a bug."""


class SamplingError(CausalAttributionError):
    """The requested feasible set is empty, or a batch failed its self-check."""


class _Level:
    """The facts that the draws, witnesses and cells of one (pair, level) share.

    Built on the pair's facts (``identify.pair_facts``).  Raises
    ``SamplingError`` with the facts' own refusal text when the feasible set
    is empty.  ``treated`` and ``control``: the margins a fill meets exactly,
    the pair's except that a ``mono`` gap inside the band is clipped to zero
    (moving a level by at most ``ATOL``).  ``tol``: the margin tolerance of a
    draw or witness, ``EXACT_ATOL`` plus ``ATOL`` on a pair that meets the
    level's conditions only inside the band.  ``joint``: the ``incr`` point.
    ``spans``: the columns [first, end) that each row allows, one run in
    every pattern.  ``built``: memo of checked witnesses.  A level is made by
    the caller that uses it and passed on explicitly; nothing keeps one
    beyond that.
    """

    def __init__(self, facts: PairFacts, assumptions: Assumptions):
        self.pair = pair = facts.pair
        self.assumptions, self.joint = assumptions, None
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            if not facts.brackets.passed:
                raise SamplingError(str(FalsificationError(facts.brackets)))
            self.joint = facts.joint()
        elif assumptions is Assumptions.MONOTONICITY and facts.mono_refusal is not None:
            raise SamplingError(facts.mono_refusal)
        self.spans = [(int(row.argmax()), pair.levels - int(row[::-1].argmax()))
                      for row in allowed_mask(assumptions, pair.levels)]
        self.treated = treated = pair.treated_law.probs
        self.control = pair.control_law.probs
        gaps = facts.gaps
        low = gaps.min() if assumptions is not Assumptions.MARGINAL_ONLY else 0.0
        if self.joint is not None:
            low = min(low, (treated[1:] - gaps).min())
        elif assumptions is Assumptions.MONOTONICITY and low < 0:
            clipped = np.append(np.maximum(gaps, 0.0), 0.0)
            self.control = np.maximum(treated + np.diff(clipped, prepend=0.0), 0.0)
        self.tol = EXACT_ATOL + (ATOL if low < 0 else 0.0)
        self.built: dict[object, JointProbabilityMatrix] = {}

    def witnesses(self, specs: list[tuple[int, np.ndarray]]) -> list[JointProbabilityMatrix]:
        """The checked witness of each (y, first) spec, or under ``incr`` the
        level's joint.  The specs not built yet are filled in one batch
        (``_extremal_fills``); each distinct one is built once per level."""
        if self.joint is not None:
            if None not in self.built:
                self.built[None] = _checked_witness(self.joint.entries, self)
            return [self.built[None]] * len(specs)
        keys = [(y, first.tobytes()) for y, first in specs]
        new = {key: spec for key, spec in zip(keys, specs) if key not in self.built}
        if new:
            q = _extremal_fills(self, list(new.values()))
            for i, key in enumerate(new):
                self.built[key] = _checked_witness(q[:, :, i], self)
        return [self.built[key] for key in keys]


def _fill(
    rows: np.ndarray, cols: np.ndarray, orders: list[np.ndarray], u: np.ndarray
) -> np.ndarray:
    """(J, J, m) matrices filled row by row, one cell at a time.

    ``rows`` and ``cols`` are the margins, (J,) for every matrix or (J, m)
    for each.  ``orders[k]`` lists the allowed columns of row k in visiting
    order; the last row must allow every column.  The i-th free cell visited
    takes lo + u[i] * (hi - lo) with hi = min(row residual, column residual)
    and lo = what the row's later columns cannot absorb; a row's last cell
    and the last row are forced.  The margins come out exact whenever every
    split of a row over its allowed columns can be completed: with the full
    mask in any row order, and with the lower-triangular mask top-down, since
    filling row k leaves each later prefix cut (rows k+1..h into columns
    <= h) as it was (Gale).  Each cell is a contiguous length-m vector, and
    each matrix is filled as it would be alone.
    """
    m, levels = u.shape[1], len(orders)
    x = np.zeros((levels, levels, m))
    res = np.empty((levels, m))
    res[:] = cols.reshape(levels, -1)
    left = np.empty(m)
    i = 0
    for k in range(levels - 1):
        order = orders[k]
        left[:] = rows[k]
        rest = res[order[0]].copy()
        for l in order[1:]:
            rest += res[l]
        for l in order[:-1]:
            col, cell = res[l], x[k, l]
            rest -= col
            lo = _floor(left, rest)
            # cell = lo + u[i] * (min(left, col) - lo), in place
            np.minimum(left, col, out=cell)
            cell -= lo
            cell *= u[i]
            cell += lo
            i += 1
            col -= cell
            left -= cell
        x[k, order[-1]] = left
        res[order[-1]] -= left
    x[-1] = res
    return x


def _floor(left: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """A cell's least value: the row mass its later columns cannot absorb."""
    return np.maximum(left - rest, 0.0)


def _off_pattern(x: np.ndarray, level: _Level) -> bool:
    """Whether x, (J, J) or (J, J, n), has mass on a cell the level pins to
    zero.  Each row's pinned cells are two slices, read in place: a mask
    index would copy all of them."""
    levels = len(level.spans)
    return any((a and x[k, :a].any()) or (b < levels and x[k, b:].any())
               for k, (a, b) in enumerate(level.spans))


def _self_check(x: np.ndarray, level: _Level) -> None:
    """Raise ``SamplingError`` unless every draw in x, (J, J, n), is feasible
    within tol.  Rounding negatives are clipped and each draw renormalized,
    in place.
    """
    low, tol = float(-x.min()), level.tol
    if low > tol or _off_pattern(x, level):
        raise SamplingError(
            f"sampler self-check failed: entry {-low:.3g} or mass off the zero pattern"
        )
    np.maximum(x, 0.0, out=x)
    x /= x.sum(axis=(0, 1))
    pair = level.pair
    err = max(
        np.abs(x.sum(axis=1) - pair.treated_law.probs[:, None]).max(),
        np.abs(x.sum(axis=0) - pair.control_law.probs[:, None]).max(),
    )
    if err > tol:
        raise SamplingError(
            f"sampler self-check failed: margins off by {err:.3g} (tolerance {tol:.3g})"
        )


def _sample_array(
    pair: MarginalPair, assumptions: Assumptions, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n feasible matrices of the level, (n, J, J); see ``_draw``."""
    return _draw(_Level(pair_facts(pair), assumptions), n, rng).transpose(2, 0, 1)


def _draw(level: _Level, n: int, rng: np.random.Generator) -> np.ndarray:
    """n feasible matrices of a level, cell-major (J, J, n), drawn exactly in
    ``MIX_GROUPS`` groups.

    ``marginal``: each group fills its own random row order.  ``mono``:
    rows top-down, and every other group fills the mirrored problem (rows
    and columns swapped, indices reversed), which is lower triangular too.
    Each row visits its allowed columns in a random order per group.  The
    fractions u follow the arcsine law, which puts more draws near the ends
    of each cell's interval than a uniform u does; measured, that widens
    the sampled range of every event; each group transforms only the
    uniforms its fill reads.  ``incr``: the one feasible point, broadcast.
    A batch of more than ``BATCH_BUDGET`` entries is refused unallocated.
    """
    levels = level.pair.levels
    if n < 1:
        raise SamplingError("need at least one sample")
    if n * levels * levels > BATCH_BUDGET:
        raise SamplingError(f"{n} draws of {levels} x {levels} joints exceed the batch budget "
                            f"of {BATCH_BUDGET} entries")
    if level.joint is not None:
        point = level.joint.entries[:, :, None].copy()
        _self_check(point, level)
        return np.broadcast_to(point, (levels, levels, n))
    x = np.empty((levels, levels, n))
    edges = np.linspace(0, n, MIX_GROUPS + 1).astype(int)
    marginal = level.assumptions is Assumptions.MARGINAL_ONLY
    # the row of each cell that _fill draws, in visiting order
    ks = np.repeat(np.arange(levels - 1), levels - 1 if marginal else np.arange(levels - 1))
    for g in range(MIX_GROUPS):
        part = x[:, :, edges[g] : edges[g + 1]]
        perm = rng.permutation(levels) if marginal else np.arange(levels)
        orders = [rng.permutation(levels if marginal else k + 1) for k in range(levels)]
        ls = np.concatenate([o[:-1] for o in orders[:-1]])
        u = rng.random((part.shape[2], levels, levels)).transpose(1, 2, 0)[ks, ls]
        # u = 0.5 - 0.5 * cos(pi * u), in place
        u *= np.pi
        np.cos(u, out=u)
        u *= -0.5
        u += 0.5
        if marginal or g % 2 == 0:
            part[perm] = _fill(level.treated[perm], level.control, orders, u)
        else:
            mirrored = _fill(level.control[::-1], level.treated[::-1], orders, u)
            part[:] = mirrored[::-1, ::-1].transpose(1, 0, 2)
    _self_check(x, level)
    return x


def draw_samples(
    pair: MarginalPair, assumptions: Assumptions, n: int, seed: int
) -> np.ndarray:
    """(n, J, J) array of feasible joint matrices; deterministic in the seed.

    Every cell is drawn inside its exact feasible interval given the
    residual margins (see ``_draw``), so each sample meets the
    margins within the level's tolerance (``_Level.tol``) and its zero
    pattern exactly.  No draw is rejected: a batch that fails this
    self-check raises ``SamplingError``.  The batch depends only on (pair,
    assumptions, n, seed), so every cell of one level can be checked on it.
    The array is a view of the cell-major batch.
    """
    return _sample_array(pair, assumptions, n, np.random.default_rng(seed))


def _extremal_fills(level: _Level, specs: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """(J, J, w) joints, the i-th attaining one ``marginal`` or ``mono`` bound
    endpoint of evidence level y for specs[i] = (y, first).

    The construction behind both closed forms, without their numbers.  The
    evidence row r is filled greedily over the columns it may use (all, or
    0..y under ``mono``): those marked ``first`` (the event's columns S for
    the upper endpoint, the others for the lower one) before the rest, each
    from the top, every cell as large as its column mass and the caps allow.
    The caps are the row total and, under ``mono``, gap_t on the mass of r
    below each cut t (see ``pn_bounds_monotone``; a gap in the band counts
    as zero).  They form a nested family, so the greedy fill maximizes r(S),
    or its complement, over the rows that leave the rest feasible.  The
    other rows are one deterministic run of ``_fill`` on the residual
    columns, with each witness's own margins.
    """
    treated, control, levels = level.treated, level.control, level.pair.levels
    mono = level.assumptions is Assumptions.MONOTONICITY
    evidence = np.zeros((levels, len(specs)))
    rows = np.repeat(treated[:, None], len(specs), axis=1)
    # scalar work in Python floats: the same IEEE operations as on numpy scalars
    caps = list(accumulate((control - treated).tolist())) if mono else [inf] * levels
    column_mass = control.tolist()
    for i, (y, first) in enumerate(specs):
        # budget[t - 1] caps the mass of r below cut t; the last entry, all of r
        budget = caps[: y if mono else levels - 1] + [float(treated[y])]
        top_down = range(first.size - 1, -1, -1)
        for l in [l for l in top_down if first[l]] + [l for l in top_down if not first[l]]:
            cell = max(0.0, min(column_mass[l], min(budget[l:])))
            evidence[l, i] = cell
            budget[l:] = [b - cell for b in budget[l:]]
        rows[y, i] = 0.0
    orders = [np.arange(k + 1 if mono else levels) for k in range(levels)]
    u = np.ones((levels * levels, len(specs)))
    q = _fill(rows, control[:, None] - evidence, orders, u)
    for i, (y, _) in enumerate(specs):
        q[y, :, i] = evidence[:, i]
    return q


def _checked_witness(q: np.ndarray, level: _Level) -> JointProbabilityMatrix:
    """q as a joint, clipped at zero and rescaled, once its zero pattern and
    margins pass; a witness is checked, not trusted (``ConstructionError``)."""
    q = np.clip(q, 0.0, None)
    joint = JointProbabilityMatrix(entries=q / q.sum())
    if _off_pattern(joint.entries, level):
        raise ConstructionError("witness has mass outside the zero pattern")
    pair, tol = level.pair, level.tol
    err = max(np.abs(joint.row_margins() - pair.treated_law.probs).max(),
              np.abs(joint.col_margins() - pair.control_law.probs).max())
    if err > tol:
        raise ConstructionError(f"margins off by {err:.3g} (tolerance {tol:g})")
    return joint


def _witness_specs(level: _Level, event: EventSpec, y: int) -> list[tuple[int, np.ndarray]]:
    """The (y, first) specs of an event's lower and upper witness."""
    span = y + 1 if level.assumptions is Assumptions.MONOTONICITY else level.pair.levels
    first = np.asarray(event.coeffs[:span], dtype=bool)
    return [(y, ~first), (y, first)]


def endpoint_witnesses(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions
) -> tuple[JointProbabilityMatrix, JointProbabilityMatrix]:
    """Feasible matrices attaining the lower and upper bound endpoints.

    Explicit constructions at every level, with no LP and no bound
    formula: the extremal fills for ``marginal`` and ``mono``, and for
    ``incr`` the one feasible joint, ``identify_joint(pair)``, as both.  A
    wrong closed form therefore shows as a sharpness gap.  Both are built
    here, on a level of their own; the cells of one ``verify_cells`` call
    share theirs.  Refused as ``pn_bounds_lp`` is: cell, evidence, level.
    """
    check_evidence(pair, event, y)
    evidence_mass(pair, y)
    level = _Level(pair_facts(pair), assumptions)
    return tuple(level.witnesses(_witness_specs(level, event, y)))


@dataclass(frozen=True)
class VerificationReport:
    """Containment and sharpness evidence for one bounds result."""

    contained: bool
    max_violation: float
    sharpness_gap_lower: float
    sharpness_gap_upper: float
    n_samples: int
    seed: int


def _check_cells(
    level: _Level,
    x: np.ndarray,
    cells: list[tuple[EventSpec, int, float, float]],
    seed: int,
) -> list[VerificationReport]:
    """Check each (event, y, lower, upper) claim of a level against batch x.

    x is a cell-major batch of the level, (J, J, n).  The witnesses of all
    cells are built first, in one batch; then per evidence level y the
    rows x[y] and their mass are read once, and each event's values go
    through one reused length-n buffer.  Under ``incr`` the batch is n
    copies of one point, which is evaluated once.
    """
    n = x.shape[2]
    if level.joint is not None:
        x = x[:, :, :1]
    witnesses = level.witnesses(
        [spec for event, y, _, _ in cells for spec in _witness_specs(level, event, y)]
    )
    reports: list[VerificationReport | None] = [None] * len(cells)
    by_y: dict[int, list[int]] = {}
    for i, (_, y, _, _) in enumerate(cells):
        by_y.setdefault(y, []).append(i)
    values = np.empty(x.shape[2])
    for y, indices in by_y.items():
        rows = x[y]
        mass = rows.sum(axis=0)
        for i in indices:
            event, _, lower, upper = cells[i]
            np.matmul(event.vector, rows, out=values)
            values /= mass
            max_violation = max(0.0, float(lower - values.min()), float(values.max() - upper))
            low_witness, up_witness = witnesses[2 * i], witnesses[2 * i + 1]
            reports[i] = VerificationReport(
                contained=max_violation <= ATOL,
                max_violation=max_violation,
                sharpness_gap_lower=float(abs(pn_from_joint(low_witness, event, y) - lower)),
                sharpness_gap_upper=float(abs(pn_from_joint(up_witness, event, y) - upper)),
                n_samples=n,
                seed=seed,
            )
    return reports


def verify_cells(
    facts: PairFacts, assumptions: Assumptions,
    cells: list[tuple[EventSpec, int, float, float]], n: int, seed: int,
) -> list[VerificationReport]:
    """Check each (event, y, lower, upper) claim of one level, the pass that
    ``--verify`` makes per assumption level.

    Every cell shares one batch, ``draw_samples(facts.pair, assumptions, n,
    seed)``, and the level's witnesses, each distinct construction built
    once (the lower witness of an event is the upper witness of its
    complement).  Containment: every sample gives an event probability
    inside the claim.  Sharpness: each claimed endpoint's distance from what
    its witness attains.  Findings are report fields, never exceptions;
    ``SamplingError`` means the level cannot be sampled.  The cells are
    trusted: ``verify_bounds`` and the CLI check them.
    """
    level = _Level(facts, assumptions)
    x = _draw(level, n, np.random.default_rng(seed))
    return _check_cells(level, x, cells, seed)


def verify_bounds(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions,
    bounds: BoundsResult, n: int, seed: int,
) -> VerificationReport:
    """Check claimed bounds against samples and endpoint witnesses: the
    one-cell case of ``verify_cells``, refused as ``endpoint_witnesses`` is,
    drawing the batch and building the witnesses for this call alone."""
    check_evidence(pair, event, y)
    evidence_mass(pair, y)
    cell = (event, y, bounds.lower, bounds.upper)
    return verify_cells(pair_facts(pair), assumptions, [cell], n, seed)[0]
