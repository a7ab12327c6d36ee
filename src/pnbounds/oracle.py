"""Independent verification of bounds: sampling, witnesses, certification.

Nothing here trusts the closed forms or the LP.  Every feasible set on the
ladder is a set of joint matrices with fixed margins and a staircase zero
pattern, so Gale's supply-demand theorem gives each cell an exact feasible
interval given the cells before it.  Seeded draws fill one cell at a time
inside those intervals and meet the margins exactly; bound endpoints are
re-attained by explicit constructions at every level; and for three or
fewer levels the polytope's vertices can be enumerated outright as an
exhaustive cross-check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path

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
    pn_from_joint,
)
from .identify import EXACT_ATOL, PairFacts, pair_facts
from .lp import build_lp

#: Draws are split into this many groups, each with its own fill order.
MIX_GROUPS = 16


class ConstructionError(CausalAttributionError):
    """An extremal witness construction failed; this indicates a bug."""


class SamplingError(CausalAttributionError):
    """The requested feasible set is empty, or a batch failed its self-check."""


def _check_margins(
    joint: JointProbabilityMatrix, pair: MarginalPair, tol: float
) -> None:
    row_err = np.abs(joint.row_margins() - pair.treated_law.probs).max()
    col_err = np.abs(joint.col_margins() - pair.control_law.probs).max()
    if max(row_err, col_err) > tol:
        raise ConstructionError(
            f"margins off by {max(row_err, col_err):.3g} (tolerance {tol:g})"
        )


class _Level:
    """The facts that the draws, witnesses and cells of one (pair, level) share.

    Built on the pair's facts (``identify.pair_facts``).  Raises
    ``SamplingError`` when the feasible set is empty.  ``treated`` and
    ``control``: the margins a fill meets exactly, the pair's except that a
    ``mono`` gap inside the band is clipped to zero (moving a level by at
    most ``ATOL``).  ``tol``: the margin tolerance of a draw or witness,
    ``EXACT_ATOL`` plus ``ATOL`` on a pair that meets the level's conditions
    only inside the band.  ``joint``: the ``incr`` point.  ``witnesses``:
    memo of checked witnesses.  ``rows``: the evidence rows of the last
    batch seen, per evidence level.  A level is made by the caller that
    uses it and passed on explicitly; nothing keeps one beyond that.
    """

    def __init__(self, facts: PairFacts, assumptions: Assumptions):
        self.pair = pair = facts.pair
        self.assumptions, self.joint = assumptions, None
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            if not facts.brackets.passed:
                raise SamplingError(
                    "one-level-lift feasible set is empty: gap brackets violated at "
                    + ", ".join(f"k={c.k}" for c in facts.brackets.violations())
                )
            self.joint = facts.joint()
        elif assumptions is Assumptions.MONOTONICITY and facts.mono_refusal is not None:
            raise SamplingError("monotone feasible set is empty: some cumulative gap is negative")
        self.mask = allowed_mask(assumptions, pair.levels)
        self.treated = treated = pair.treated_law.probs
        self.control = pair.control_law.probs
        gaps = facts.gaps.gaps
        low = gaps.min() if assumptions is not Assumptions.MARGINAL_ONLY else 0.0
        if self.joint is not None:
            low = min(low, (treated[1:] - gaps).min())
        elif assumptions is Assumptions.MONOTONICITY and low < 0:
            clipped = np.append(np.maximum(gaps, 0.0), 0.0)
            self.control = np.maximum(treated + np.diff(clipped, prepend=0.0), 0.0)
        self.tol = EXACT_ATOL + (ATOL if low < 0 else 0.0)
        self.witnesses: dict[object, JointProbabilityMatrix] = {}
        self.rows: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def evidence(self, x: np.ndarray, y: int) -> tuple[np.ndarray, np.ndarray]:
        """The evidence rows x[:, y, :] and their mass, once per y per batch.

        The memo entry is read once, so the rows returned are always x's.
        """
        rows = self.rows.get(y)
        if rows is None or rows[0] is not x:
            rows = self.rows[y] = (x, x[:, y, :], x[:, y, :].sum(axis=1))
        return rows[1], rows[2]

    def witness(self, y: int, first: np.ndarray) -> JointProbabilityMatrix:
        """The checked ``_extremal_fill(self, y, first)``, or under ``incr``
        the level's joint, built once per level."""
        key = None if self.joint is not None else (y, first.tobytes())
        if key not in self.witnesses:
            q = self.joint.entries if key is None else _extremal_fill(self, y, first)
            self.witnesses[key] = _checked_witness(q, self)
        return self.witnesses[key]


def _fill(
    rows: np.ndarray, cols: np.ndarray, orders: list[np.ndarray], u: np.ndarray
) -> np.ndarray:
    """(m, J, J) matrices filled row by row, one cell at a time.

    ``orders[k]`` lists the allowed columns of row k in visiting order; the
    last row must allow every column.  The i-th free cell visited takes
    lo + u[:, i] * (hi - lo) with hi = min(row residual, column residual)
    and lo = what the row's later columns cannot absorb; a row's last cell
    and the last row are forced.  The margins come out exact whenever every
    split of a row over its allowed columns can be completed: with the full
    mask in any row order, and with the lower-triangular mask top-down, since
    filling row k leaves each later prefix cut (rows k+1..h into columns
    <= h) as it was (Gale).
    """
    m, levels = u.shape[0], rows.size
    x = np.zeros((m, levels, levels))
    res = np.tile(cols, (m, 1))
    i = 0
    for k in range(levels - 1):
        left = np.full(m, rows[k])
        rest = res[:, orders[k]].sum(axis=1)
        for l in orders[k][:-1]:
            col = res[:, l]
            rest -= col
            lo = _floor(left, rest)
            cell = lo + u[:, i] * (np.minimum(left, col) - lo)
            i += 1
            x[:, k, l] = cell
            col -= cell
            left -= cell
        x[:, k, orders[k][-1]] = left
        res[:, orders[k][-1]] -= left
    x[:, -1] = res
    return x


def _floor(left: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """A cell's least value: the row mass its later columns cannot absorb."""
    return np.maximum(left - rest, 0.0)


def _self_check(x: np.ndarray, level: _Level) -> None:
    """Raise ``SamplingError`` unless every draw in x is feasible within tol.

    Rounding negatives are clipped and each draw renormalized, in place.
    """
    low, tol = float(-x.min()), level.tol
    if low > tol or x[:, ~level.mask].any():
        raise SamplingError(
            f"sampler self-check failed: entry {-low:.3g} or mass off the zero pattern"
        )
    np.maximum(x, 0.0, out=x)
    x /= x.sum(axis=(1, 2), keepdims=True)
    pair, err = level.pair, 0.0
    # row sums, then column sums, accumulated along the short axis in place
    for view, law in ((x.transpose(0, 2, 1), pair.treated_law), (x, pair.control_law)):
        total = view[:, 0].copy()
        for l in range(1, x.shape[1]):
            total += view[:, l]
        total -= law.probs
        err = max(err, np.abs(total, out=total).max())
    if err > tol:
        raise SamplingError(
            f"sampler self-check failed: margins off by {err:.3g} (tolerance {tol:.3g})"
        )


def _sample_array(
    pair: MarginalPair, assumptions: Assumptions, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n feasible matrices of the level; see ``_draw``."""
    return _draw(_Level(pair_facts(pair), assumptions), n, rng)


def _draw(level: _Level, n: int, rng: np.random.Generator) -> np.ndarray:
    """n feasible matrices of a level, drawn exactly in ``MIX_GROUPS`` groups.

    ``marginal``: each group fills its own random row order.  ``mono``:
    rows top-down, and every other group fills the mirrored problem (rows
    and columns swapped, indices reversed), which is lower triangular too.
    Each row visits its allowed columns in a random order per group.  The
    fractions u follow the arcsine law, which puts more draws near the ends
    of each cell's interval than a uniform u does; measured, that widens
    the sampled range of every event; each group transforms only the
    uniforms its fill reads.  ``incr``: the one feasible point, broadcast.
    """
    if n < 1:
        raise SamplingError("need at least one sample")
    levels = level.pair.levels
    if level.joint is not None:
        point = level.joint.entries[None].copy()
        _self_check(point, level)
        return np.broadcast_to(point[0], (n, levels, levels))
    x = np.empty((n, levels, levels))
    edges = np.linspace(0, n, MIX_GROUPS + 1).astype(int)
    marginal = level.assumptions is Assumptions.MARGINAL_ONLY
    # the row of each cell that _fill draws, in visiting order
    ks = np.repeat(np.arange(levels - 1), levels - 1 if marginal else np.arange(levels - 1))
    for g in range(MIX_GROUPS):
        part = x[edges[g] : edges[g + 1]]
        perm = rng.permutation(levels) if marginal else np.arange(levels)
        orders = [rng.permutation(levels if marginal else k + 1) for k in range(levels)]
        ls = np.concatenate([o[:-1] for o in orders[:-1]])
        u = 0.5 - 0.5 * np.cos(np.pi * rng.random(part.shape)[:, ks, ls])
        if marginal or g % 2 == 0:
            part[:, perm] = _fill(level.treated[perm], level.control, orders, u)
        else:
            mirrored = _fill(level.control[::-1], level.treated[::-1], orders, u)
            part[:] = mirrored[:, ::-1, ::-1].transpose(0, 2, 1)
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
    """
    return _sample_array(pair, assumptions, n, np.random.default_rng(seed))


def sample_feasible(
    pair: MarginalPair, assumptions: Assumptions, n: int, seed: int
) -> list[JointProbabilityMatrix]:
    """Draw n feasible joint matrices; see ``draw_samples``."""
    return [JointProbabilityMatrix(entries=q) for q in draw_samples(pair, assumptions, n, seed)]


def _extremal_fill(level: _Level, y: int, first: np.ndarray) -> np.ndarray:
    """Joint attaining one ``marginal`` or ``mono`` bound endpoint.

    The construction behind both closed forms, without their numbers.  The
    evidence row r is filled greedily over the columns it may use (all, or
    0..y under ``mono``): those marked ``first`` (the event's columns S for
    the upper endpoint, the others for the lower one) before the rest, each
    from the top, every cell as large as its column mass and the caps allow.
    The caps are the row total and, under ``mono``, gap_t on the mass of r
    below each cut t (see ``pn_bounds_monotone``; a gap in the band counts
    as zero).  They form a nested family, so the greedy fill maximizes r(S),
    or its complement, over the rows that leave the rest feasible.  The
    other rows are a deterministic run of ``_fill`` on the residual columns.
    """
    treated, control, levels = level.treated, level.control, level.pair.levels
    mono = level.assumptions is Assumptions.MONOTONICITY
    top_down = np.arange(first.size - 1, -1, -1)
    # budget[t - 1] caps the mass of r below cut t; the last entry, all of r
    cuts = np.cumsum(control - treated)[:y] if mono else np.full(levels - 1, np.inf)
    budget = np.append(cuts, treated[y])
    row = np.zeros(levels)
    for l in np.concatenate((top_down[first[top_down]], top_down[~first[top_down]])):
        row[l] = max(0.0, min(control[l], budget[l:].min()))
        budget[l:] -= row[l]
    rows = treated.copy()
    rows[y] = 0.0
    orders = [np.arange(k + 1 if mono else levels) for k in range(levels)]
    q = _fill(rows, control - row, orders, np.ones((1, levels * levels)))[0]
    q[y] = row
    return q


def _checked_witness(q: np.ndarray, level: _Level) -> JointProbabilityMatrix:
    """q as a joint, clipped at zero and rescaled, once its zero pattern and
    margins pass; a witness is checked, not trusted (``ConstructionError``)."""
    q = np.clip(q, 0.0, None)
    joint = JointProbabilityMatrix(entries=q / q.sum())
    if joint.entries[~level.mask].any():
        raise ConstructionError("witness has mass outside the zero pattern")
    _check_margins(joint, level.pair, level.tol)
    return joint


def endpoint_witnesses(
    pair: MarginalPair,
    event: EventSpec,
    y: int,
    assumptions: Assumptions,
    *,
    level: _Level | None = None,
) -> tuple[JointProbabilityMatrix, JointProbabilityMatrix]:
    """Feasible matrices attaining the lower and upper bound endpoints.

    Explicit constructions at every level, with no LP and no bound
    formula: the extremal fills for ``marginal`` and ``mono``, and for
    ``incr`` the one feasible joint, ``identify_joint(pair)``, as both.  A
    wrong closed form therefore shows as a sharpness gap.  ``level`` is
    the ``_Level`` of (pair, assumptions) the caller holds; each distinct
    construction (y and the columns filled first) is built and checked once
    per level, so the lower witness of an event is the upper witness of its
    complement, and ``incr`` cells share one joint.  Without it the two
    are built here.
    """
    level = _Level(pair_facts(pair), assumptions) if level is None else level
    span = y + 1 if assumptions is Assumptions.MONOTONICITY else pair.levels
    first = np.asarray(event.coeffs[:span], dtype=bool)
    return level.witness(y, ~first), level.witness(y, first)


@dataclass(frozen=True)
class VerificationReport:
    """Containment and sharpness evidence for one bounds result."""

    contained: bool
    max_violation: float
    sharpness_gap_lower: float
    sharpness_gap_upper: float
    n_samples: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_bounds(
    pair: MarginalPair,
    event: EventSpec,
    y: int,
    assumptions: Assumptions,
    bounds: BoundsResult,
    n: int,
    seed: int,
    samples_csv: str | Path | None = None,
    *,
    samples: np.ndarray | None = None,
    level: _Level | None = None,
) -> VerificationReport:
    """Check claimed bounds against samples and endpoint witnesses.

    Containment: every sampled feasible matrix must give an event
    probability inside the interval.  Sharpness: the distance from each
    bound to the probability its witness attains.  Findings are report
    fields, never exceptions.  With ``samples_csv`` the sampled event
    probabilities are also written one per line, for external plotting.
    ``samples`` is a batch the caller already drew with
    ``draw_samples(pair, assumptions, n, seed)`` and ``level`` the
    ``_Level`` of (pair, assumptions) it holds, whose witnesses and evidence
    rows the cells of the batch share; without them both are made here,
    so a call that passes neither shares nothing with any other call.
    """
    level = _Level(pair_facts(pair), assumptions) if level is None else level
    x = _draw(level, n, np.random.default_rng(seed)) if samples is None else samples
    row, mass = level.evidence(x, y)
    values = (row @ np.asarray(event.coeffs, dtype=float)) / mass
    if samples_csv is not None:
        lines = ["value"] + [f"{v:.17g}" for v in values]
        Path(samples_csv).write_text("\n".join(lines) + "\n")
    max_violation = max(
        0.0, float(bounds.lower - values.min()), float(values.max() - bounds.upper)
    )
    witness_lower, witness_upper = endpoint_witnesses(
        pair, event, y, assumptions, level=level
    )
    gap_lower = abs(pn_from_joint(witness_lower, event, y) - bounds.lower)
    gap_upper = abs(pn_from_joint(witness_upper, event, y) - bounds.upper)
    return VerificationReport(
        contained=max_violation <= ATOL,
        max_violation=max_violation,
        sharpness_gap_lower=float(gap_lower),
        sharpness_gap_upper=float(gap_upper),
        n_samples=int(x.shape[0]),
        seed=seed,
    )


def enumerate_vertices(
    pair: MarginalPair, assumptions: Assumptions
) -> list[JointProbabilityMatrix]:
    """All vertices of the feasible polytope; exhaustive check for J <= 3.

    Basic solutions of the equality system: every full-rank column subset
    whose solve is nonnegative.  Exponential in J, hence the guard.
    """
    if pair.levels > 3:
        raise SamplingError("vertex enumeration is only supported for J <= 3")
    a_full, b_full, _ = build_lp(pair, make_full_event(pair.levels), 0, assumptions)
    mask = allowed_mask(assumptions, pair.levels).reshape(-1)
    marginal_rows = 2 * pair.levels - 1
    a = a_full[:marginal_rows][:, mask]
    b = b_full[:marginal_rows]
    rank = np.linalg.matrix_rank(a)
    n = a.shape[1]
    vertices: list[np.ndarray] = []
    seen: set[tuple[int, ...]] = set()
    for cols in combinations(range(n), rank):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.abs(sub @ sol - b).max() > ATOL or sol.min() < -ATOL:
            continue
        x = np.zeros(n)
        x[list(cols)] = sol
        key = tuple(np.round(x / ATOL).astype(np.int64))
        if key in seen:
            continue
        seen.add(key)
        full = np.zeros(mask.size)
        full[mask] = x
        vertices.append(full.reshape(pair.levels, pair.levels))
    return [JointProbabilityMatrix(entries=np.clip(v, 0.0, None)) for v in vertices]


def make_full_event(levels: int) -> EventSpec:
    """Whole-space event; handy as a placeholder objective."""
    return EventSpec(coeffs=(1,) * levels, label="Y0 in full space")
