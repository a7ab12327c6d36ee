"""Independent verification of bounds: sampling, witnesses, certification.

Nothing here trusts the closed forms or the LP.  Every feasible set on the
ladder is a set of joint matrices with fixed margins and a staircase zero
pattern, so Gale's supply-demand theorem gives each cell an exact feasible
interval given the cells before it.  Seeded draws fill one cell at a time
inside those intervals and meet the margins exactly, and bound endpoints
are re-attained by explicit constructions at every level.

Draws are held cell-major, (J, J, n), so that every per-cell step works on
one contiguous vector.  The cells of one (pair, level) are checked in one
pass over one batch (``verify_cells``), drawn in chunks of ``_CHUNK_BUDGET``
entries, the level's witnesses built from its cells, each distinct one once
in one array, and checked as the draws are (``_check_feasible``), and under
``incr`` the one point checked once, as its level is built, and evaluated once.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from math import inf

import numpy as np

from .bounds import BoundsResult
from .core import (
    ATOL,
    EXACT_ATOL,
    SHARPNESS_TOL,
    Assumptions,
    CausalAttributionError,
    EventSpec,
    JointProbabilityMatrix,
    MarginalPair,
    allowed_mask,
    check_evidence,
    evidence_mass,
)
from .identify import FalsificationError, PairFacts, pair_facts

__all__ = [
    "ConstructionError",
    "SamplingError",
    "VerificationReport",
    "endpoint_witnesses",
    "draw_samples",
    "verify_bounds",
]

#: Draws are split into this many groups, each with its own fill order.
MIX_GROUPS = 16
#: Most entries, draws x J x J, that one batch may hold: 2**27 floats, 1 GiB.
BATCH_BUDGET = 2**27
#: Most entries that ``verify_cells`` checks at once (256 KiB), in whole 16-draw
#: blocks, as OpenBLAS rounds a product's last (length mod 16) values apart; the
#: last chunk takes in a lone last draw, which numpy would sum pairwise.
_CHUNK_BUDGET = 2**15


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
    level's conditions only inside the band.  ``point``: the ``incr`` point
    (J, J, 1), checked here, once.  ``spans``: the columns [first, end) that
    each row allows, one run in every pattern.  A level is made by the caller
    that uses it and passed on explicitly; nothing keeps one beyond that.
    """

    def __init__(self, facts: PairFacts, assumptions: Assumptions):
        self.pair = pair = facts.pair
        self.assumptions, self.point = assumptions, None
        incr = assumptions is Assumptions.MONOTONIC_INCREMENT
        if incr and not facts.passed:
            raise SamplingError(str(FalsificationError(facts.brackets)))
        if assumptions is Assumptions.MONOTONICITY and facts.mono_refusal is not None:
            raise SamplingError(facts.mono_refusal)
        self.spans = [(int(row.argmax()), pair.levels - int(row[::-1].argmax()))
                      for row in allowed_mask(assumptions, pair.levels)]
        self.treated = treated = pair.treated_law.probs
        self.control = pair.control_law.probs
        gaps = facts.gaps
        low = gaps.min() if assumptions is not Assumptions.MARGINAL_ONLY else 0.0
        if incr:
            low = min(low, (treated[1:] - gaps).min())
        elif assumptions is Assumptions.MONOTONICITY and low < 0:
            clipped = np.append(np.maximum(gaps, 0.0), 0.0)
            self.control = np.maximum(treated + np.diff(clipped, prepend=0.0), 0.0)
        self.tol = EXACT_ATOL + (ATOL if low < 0 else 0.0)
        if incr:
            self.point = facts.joint().entries[:, :, None].copy()
            _check_feasible(self.point, self, SamplingError, "sampler self-check")

    def witnesses(self, cells: list[tuple[EventSpec, int]]) -> tuple[np.ndarray, np.ndarray]:
        """(w, J, J): the endpoint witnesses of (event, y) cells, each distinct
        one once, and (len(cells), 2): the index of each cell's lower and upper
        witness (under ``incr`` both the level's checked point, uncopied).  Each
        (y, first) fill is built once (``_extremal_fills``; an event's lower one
        is its complement's upper one) and checked, not trusted, in one pass, as
        the draws are (``_check_feasible``, ``ConstructionError``)."""
        if self.point is not None:
            return self.point.transpose(2, 0, 1), np.zeros((len(cells), 2), dtype=int)
        specs = []  # (y, first): a fill takes the event's columns first for the upper
        for event, y in cells:
            upper = np.asarray(event.coeffs[: self.spans[y][1]], dtype=bool)
            specs += [(y, ~upper), (y, upper)]
        slots: dict[tuple[int, bytes], int] = {}
        index = [slots.setdefault((y, first.tobytes()), len(slots)) for y, first in specs]
        # one spec per slot, in slot order: a dict key keeps its first place
        fill = _extremal_fills(self, list(dict(zip(index, specs)).values()))
        # witness-major, each witness one contiguous block, so that its flat
        # sum is q.sum() of the witness alone; from here on held once
        q = fill.transpose(2, 0, 1).copy()
        del fill
        _check_feasible(q.transpose(1, 2, 0), self, ConstructionError, "witness check")
        return q, np.reshape(index, (-1, 2))


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


def _check_feasible(
    x: np.ndarray, level: _Level, error: type[CausalAttributionError], what: str
) -> None:
    """Raise ``error`` unless every matrix in x, cell-major (J, J, n) in any
    layout, is feasible within tol: no entry below -tol or off the zero
    pattern, and each margin within tol once negatives are clipped and each
    matrix rescaled by its own sum, in place.  Draws and witnesses share it."""
    low, tol = float(-x.min()), level.tol
    if low > tol or _off_pattern(x, level):
        raise error(f"{what} failed: entry {-low:.3g} or mass off the zero pattern")
    if low > 0:
        np.maximum(x, 0.0, out=x)
    x /= x.sum(axis=(0, 1))
    err = 0.0
    for axis, law in ((1, level.pair.treated_law), (0, level.pair.control_law)):
        off = x.sum(axis=axis)  # |margin - law|, in the margin's own array
        err = max(err, np.abs(np.subtract(off, law.probs[:, None], out=off), out=off).max())
    if err > tol:
        raise error(f"{what} failed: margins off by {err:.3g} (tolerance {tol:.3g})")


def _sample_array(
    pair: MarginalPair, assumptions: Assumptions, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n feasible matrices of the level, (n, J, J): ``_draw_chunks`` in one chunk."""
    level = _Level(pair_facts(pair), assumptions)
    return next(_draw_chunks(level, n, rng, n)).transpose(2, 0, 1)


def _draw_chunks(
    level: _Level, n: int, rng: np.random.Generator, size: int
) -> Iterator[np.ndarray]:
    """n feasible matrices of a level, cell-major, in checked chunks of
    ``size`` draws, each the one buffer refilled; the last may be shorter, or
    one draw longer.

    Drawn exactly in ``MIX_GROUPS`` groups, whatever the size.  ``marginal``:
    each group fills its own random row order.  ``mono``: rows top-down, and
    every other group fills the mirrored problem (rows and columns swapped,
    indices reversed), which is lower triangular too.  Each row visits its
    allowed columns in a random order per group.  The fractions u follow the
    arcsine law, which puts more draws near the ends of each cell's interval
    than a uniform u does; measured, that widens the sampled range of every
    event; each group transforms only the uniforms its fill reads.  ``incr``:
    the level's checked point, broadcast, as one chunk.  A batch of more than
    ``BATCH_BUDGET`` entries is refused unallocated.
    """
    levels = level.pair.levels
    if n < 1:
        raise SamplingError("need at least one sample")
    if n * levels * levels > BATCH_BUDGET:
        raise SamplingError(f"{n} draws of {levels} x {levels} joints exceed the batch budget "
                            f"of {BATCH_BUDGET} entries")
    if level.point is not None:
        yield np.broadcast_to(level.point, (levels, levels, n))
        return
    flat, held, left = np.empty(levels * levels * min(size + 1, n)), 0, n  # left: unyielded
    marginal = level.assumptions is Assumptions.MARGINAL_ONLY
    columns = [np.arange(*span) for span in level.spans]  # each row's allowed columns
    # the row of each cell that _fill draws, in visiting order: all but a row's last
    ks = np.repeat(np.arange(levels - 1), [cols.size - 1 for cols in columns[:-1]])
    for g, m in enumerate(np.diff(np.linspace(0, n, MIX_GROUPS + 1).astype(int)).tolist()):
        perm = rng.permutation(levels) if marginal else slice(None)
        orders = [rng.permutation(cols) for cols in columns]
        ls = np.concatenate([o[:-1] for o in orders[:-1]])
        u = rng.random((m, levels, levels)).transpose(1, 2, 0)[ks, ls]
        # u = 0.5 - 0.5 * cos(pi * u), in place
        u *= np.pi
        np.cos(u, out=u)
        u *= -0.5
        u += 0.5
        if marginal or g % 2 == 0:
            fill = _fill(level.treated[perm], level.control, orders, u)
        else:  # the mirrored fill, turned back (perm is the identity)
            fill = _fill(level.control[::-1], level.treated[::-1], orders, u)
            fill = fill[::-1, ::-1].swapaxes(0, 1)
        while fill.shape[2]:  # the group's draws into the buffer, a chunk at a time
            if not held:  # a new chunk, contiguous: size draws, or all that is left
                want = left if left <= size + 1 else size
                chunk = flat[: levels * levels * want].reshape(levels, levels, want)
            k = min(fill.shape[2], want - held)
            chunk[:, :, held : held + k][perm] = fill[:, :, :k]
            fill, held = fill[:, :, k:], held + k
            if held == want:
                _check_feasible(chunk, level, SamplingError, "sampler self-check")
                yield chunk
                left, held = left - held, 0


def draw_samples(
    pair: MarginalPair, assumptions: Assumptions, n: int, seed: int
) -> np.ndarray:
    """(n, J, J) array of feasible joint matrices; deterministic in the seed.

    Every cell is drawn inside its exact feasible interval given the
    residual margins (see ``_draw_chunks``), so each sample meets the
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
    evidence row r is filled greedily over its span, ``level.spans[y]`` (all
    columns, or 0..y under ``mono``): those marked ``first`` (the event's
    columns S for the upper endpoint, the others for the lower one) before
    the rest, each from the top, every cell as large as its column mass and
    the caps allow.  The caps are the row total and, under ``mono``, gap_t
    on the mass of r below each cut t (see ``pn_bounds_monotone``; a gap in
    the band counts as zero).  They form a nested family, so the greedy fill
    maximizes r(S), or its complement, over the rows that leave the rest
    feasible.  The other rows are one deterministic run of ``_fill`` on the
    residual columns, along each row's span, with each witness's own margins.
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
        budget = caps[: level.spans[y][1] - 1] + [float(treated[y])]
        top_down = range(first.size - 1, -1, -1)
        for l in [l for l in top_down if first[l]] + [l for l in top_down if not first[l]]:
            cell = max(0.0, min(column_mass[l], min(budget[l:])))
            evidence[l, i] = cell
            budget[l:] = [b - cell for b in budget[l:]]
        rows[y, i] = 0.0
    orders = [np.arange(*span) for span in level.spans]
    u = np.broadcast_to(1.0, (levels * levels, len(specs)))  # unit fractions, unallocated
    q = _fill(rows, control[:, None] - evidence, orders, u)
    for i, (y, _) in enumerate(specs):
        q[y, :, i] = evidence[:, i]
    return q


def endpoint_witnesses(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions
) -> tuple[JointProbabilityMatrix, JointProbabilityMatrix]:
    """Feasible matrices attaining the lower and upper bound endpoints.

    Explicit constructions at every level, with no LP and no bound
    formula: the extremal fills for ``marginal`` and ``mono``, and for
    ``incr`` the one feasible joint, ``identify_joint(pair)``, as both.  A
    wrong closed form therefore shows as a sharpness gap.  Built for this
    one cell, on a level of its own; the cells of one ``verify_cells`` call
    share theirs.  Refused as ``pn_bounds_lp`` is (``_cell_level``).
    """
    q, index = _cell_level(pair, event, y, assumptions).witnesses([(event, y)])
    low, up = q[index[0]]
    return JointProbabilityMatrix(low), JointProbabilityMatrix(up)


def _cell_level(pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions) -> _Level:
    """The level of a one-cell entry, refused in ``level_bounds``' order: the
    cell, then an empty ``mono`` level before zero evidence, and zero evidence
    before failed ``incr`` brackets."""
    check_evidence(pair, event, y)
    if assumptions is Assumptions.MONOTONIC_INCREMENT:
        evidence_mass(pair, y)
    level = _Level(pair_facts(pair), assumptions)
    evidence_mass(pair, y)
    return level


@dataclass(frozen=True)
class VerificationReport:
    """Containment and sharpness evidence for one bounds result, and the
    verdict that ``--verify`` reports: ``status`` is ``"ok"`` when the claim
    is contained and sharp (both gaps within ``SHARPNESS_TOL``), else failed."""

    contained: bool
    max_violation: float
    sharpness_gap_lower: float
    sharpness_gap_upper: float
    n_samples: int
    seed: int

    @property
    def sharp(self) -> bool:
        return (self.sharpness_gap_lower <= SHARPNESS_TOL
                and self.sharpness_gap_upper <= SHARPNESS_TOL)

    @property
    def status(self) -> str:
        return "ok" if self.contained and self.sharp else "failed"


def _check_cells(
    level: _Level, cells: list[tuple[EventSpec, int, float, float]], n: int, seed: int
) -> list[VerificationReport]:
    """Check each (event, y, lower, upper) claim of a level against its batch.

    The batch, ``_draw_chunks(level, n, default_rng(seed), size)``, comes in
    chunks of at most ``_CHUNK_BUDGET`` entries (16 draws at least).  Per
    chunk each evidence level's rows x[y] are summed once and its distinct
    events evaluated in one stacked product, keeping each event's least and
    greatest value.  Then the cells' witnesses are built, each distinct one
    once, in one checked batch; each cell's two, read through the index, are
    evaluated on row y as ``pn_from_joint`` does.
    Under ``incr`` the batch broadcasts the level's checked point, evaluated once.
    """
    size = max(16, _CHUNK_BUDGET // level.pair.levels**2 // 16 * 16)
    events: dict[int, dict[tuple[int, ...], int]] = {}  # y -> {each distinct event: its row}
    for event, y, _, _ in cells:
        rows = events.setdefault(y, {})
        rows.setdefault(event.coeffs, len(rows))
    vectors = {y: np.array(list(rows), dtype=float)[:, None, :] for y, rows in events.items()}
    least, most = ({y: np.full(len(rows), v) for y, rows in events.items()} for v in (inf, -inf))
    for x in _draw_chunks(level, n, np.random.default_rng(seed), size):
        if level.point is not None:
            x = x[:, :, :1]
        for y, stack in vectors.items():
            # (k, 1, J) @ (J, m) runs one vector @ x[y] per event, each with its bits
            values = np.matmul(stack, x[y])[:, 0]
            values /= x[y].sum(axis=0)
            np.minimum(least[y], values.min(axis=1), out=least[y])
            np.maximum(most[y], values.max(axis=1), out=most[y])
    q, index = level.witnesses([(event, y) for event, y, _, _ in cells])
    reports = []
    for (event, y, lower, upper), (i, j) in zip(cells, index.tolist()):
        k = events[y][event.coeffs]
        max_violation = max(0.0, float(lower - least[y][k]), float(most[y][k] - upper))
        low, up = (float(row @ event.vector / float(row.sum())) for row in (q[i, y], q[j, y]))
        reports.append(VerificationReport(
            contained=max_violation <= ATOL,
            max_violation=max_violation,
            sharpness_gap_lower=float(abs(low - lower)),
            sharpness_gap_upper=float(abs(up - upper)),
            n_samples=n,
            seed=seed,
        ))
    return reports


def verify_cells(
    facts: PairFacts, assumptions: Assumptions,
    cells: list[tuple[EventSpec, int, float, float]], n: int, seed: int,
) -> list[VerificationReport]:
    """Check each (event, y, lower, upper) claim of one level, the pass that
    ``--verify`` makes per assumption level.

    Every cell shares one batch, ``draw_samples(facts.pair, assumptions, n,
    seed)``, and the witnesses built from its cells, each distinct
    construction once (the lower witness of an event is the upper witness
    of its complement).  Containment: every sample gives an event probability
    inside the claim.  Sharpness: each claimed endpoint's distance from what
    its witness attains.  Findings are report fields, never exceptions;
    ``SamplingError`` means the level cannot be sampled.  The cells are
    trusted: ``verify_bounds`` checks its one (``_cell_level``), and the
    CLI verifies only the cells that ``run_analysis`` checked.
    """
    return _check_cells(_Level(facts, assumptions), cells, n, seed)


def verify_bounds(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions,
    bounds: BoundsResult, n: int, seed: int,
) -> VerificationReport:
    """Check claimed bounds against samples and endpoint witnesses: the
    one-cell case of ``verify_cells``, refused as ``endpoint_witnesses`` is,
    drawing the batch and building the witnesses for this call alone."""
    cell = (event, y, bounds.lower, bounds.upper)
    return _check_cells(_cell_level(pair, event, y, assumptions), [cell], n, seed)[0]
