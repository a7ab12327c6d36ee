"""Independent verification of bounds: sampling, witnesses, certification.

Nothing here trusts the closed forms or the LP.  Feasible joint matrices
are explored by seeded Dirichlet starts driven to the prescribed margins
with iterative proportional fitting, bound endpoints are re-attained by
explicit constructions (marginal-only case) or LP optima (otherwise), and
for three or fewer levels the polytope's vertices can be enumerated
outright as an exhaustive cross-check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import combinations
from pathlib import Path

import numpy as np

from .bounds import BoundsResult, monotone_consistent
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
from .identify import falsification_check
from .lp import build_lp, pn_bounds_lp

IPF_MAX_SWEEPS = 500
#: Sweeps stop early once margins are reproduced this well.
IPF_TARGET = 1e-12
#: Draws whose final margin error exceeds this are rejected as non-convergent.
IPF_ACCEPT = 1e-10
#: Margin accuracy every returned sample is guaranteed to meet.
SAMPLE_MARGIN_TOL = 1e-7
#: Draws fitted together in place; bounds the sampler's working memory.
IPF_SLICE = 2048


class ConstructionError(CausalAttributionError):
    """An extremal witness construction failed; this indicates a bug."""


class SamplingError(CausalAttributionError):
    """The requested feasible set is empty or fitting repeatedly failed."""


class Endpoint(Enum):
    LOWER = "lower"
    UPPER = "upper"


def product_completion(row_sums: np.ndarray, col_sums: np.ndarray) -> np.ndarray:
    """Nonnegative matrix with exactly the given margins: outer(r, c) / S.

    Requires both margin vectors nonnegative with equal totals S.  S = 0 is
    allowed when both vectors vanish (the unique completion is the zero
    matrix); a total mismatch beyond tolerance is an error.
    """
    rows = np.asarray(row_sums, dtype=float)
    cols = np.asarray(col_sums, dtype=float)
    if rows.min(initial=0.0) < -ATOL or cols.min(initial=0.0) < -ATOL:
        raise ConstructionError("margins must be nonnegative")
    rows = np.clip(rows, 0.0, None)
    cols = np.clip(cols, 0.0, None)
    s_rows, s_cols = rows.sum(), cols.sum()
    if abs(s_rows - s_cols) > ATOL:
        raise ConstructionError(
            f"margin totals differ: rows {s_rows:.12g}, columns {s_cols:.12g}"
        )
    if s_rows <= ATOL:
        return np.zeros((rows.size, cols.size))
    return np.outer(rows, cols) / s_rows


def _greedy_row_fill(
    total: float, caps: np.ndarray, allowed: np.ndarray
) -> np.ndarray:
    """Fill left to right over allowed columns, each capped by its margin."""
    fill = np.zeros(caps.size)
    remaining = total
    for l in range(caps.size):
        if not allowed[l] or remaining <= 0:
            continue
        take = min(remaining, caps[l])
        fill[l] = take
        remaining -= take
    if remaining > ATOL:
        raise ConstructionError(
            f"greedy fill left {remaining:.3g} unplaced; allowed columns cannot "
            "absorb the row mass"
        )
    return fill


def extremal_witness_marginal(
    pair: MarginalPair, event: EventSpec, y: int, endpoint: Endpoint
) -> JointProbabilityMatrix:
    """Joint matrix attaining one marginal-only bound endpoint.

    The evidence row is filled first: greedily over the complement columns
    (lower endpoint, small case) or event columns (upper endpoint, large
    case), or set to its forced values when the binding constraint
    determines entire columns; the remaining block is a product completion
    of the residual margins.
    """
    treated = pair.treated_law.probs.copy()
    control = pair.control_law.probs.copy()
    levels = pair.levels
    mass = treated[y]
    in_event = np.asarray(event.coeffs, dtype=bool)
    omega = float(control[in_event].sum())
    entries = np.zeros((levels, levels))
    others = [k for k in range(levels) if k != y]

    if endpoint is Endpoint.LOWER:
        if mass + omega - 1.0 <= 0:
            # bound is 0: keep the evidence row entirely off the event
            row = _greedy_row_fill(mass, control, ~in_event)
            entries[y] = row
            block = product_completion(treated[others], control - row)
            entries[others, :] = block
        else:
            # bound is mass + omega - 1: the evidence row absorbs all
            # complement mass, other rows vanish on complement columns
            entries[y, ~in_event] = control[~in_event]
            row_rest = treated.copy()
            row_rest[y] = mass - (1.0 - omega)
            block = product_completion(row_rest, control[in_event])
            entries[:, in_event] = block
    else:
        if omega <= mass:
            # bound is omega: the evidence row absorbs all event mass
            entries[y, in_event] = control[in_event]
            row_rest = treated.copy()
            row_rest[y] = mass - omega
            block = product_completion(row_rest, control[~in_event])
            entries[:, ~in_event] = block
        else:
            # bound is 1 (row mass entirely inside the event)
            row = _greedy_row_fill(mass, control, in_event)
            entries[y] = row
            block = product_completion(treated[others], control - row)
            entries[others, :] = block

    joint = JointProbabilityMatrix(entries=np.clip(entries, 0.0, None))
    _check_margins(joint, pair, ATOL)
    return joint


def _check_margins(
    joint: JointProbabilityMatrix, pair: MarginalPair, tol: float
) -> None:
    row_err = np.abs(joint.row_margins() - pair.treated_law.probs).max()
    col_err = np.abs(joint.col_margins() - pair.control_law.probs).max()
    if max(row_err, col_err) > tol:
        raise ConstructionError(
            f"margins off by {max(row_err, col_err):.3g} (tolerance {tol:g})"
        )


def _feasibility_precheck(pair: MarginalPair, assumptions: Assumptions) -> None:
    if assumptions is Assumptions.MONOTONIC_INCREMENT:
        report = falsification_check(pair)
        if not report.passed:
            raise SamplingError(
                "one-level-lift feasible set is empty: gap brackets violated at "
                + ", ".join(f"k={c.k}" for c in report.violations())
            )
    elif assumptions is Assumptions.MONOTONICITY and not monotone_consistent(pair):
        raise SamplingError(
            "monotone feasible set is empty: some cumulative gap is negative"
        )


def _support_mask(pair: MarginalPair, assumptions: Assumptions) -> np.ndarray:
    """Allowed-cell mask with cells that cannot carry mass pruned away.

    For the monotone-type masks every cell above a cut h is forbidden, so
    the mass below-left of the cut equals the cumulative gap at h for any
    feasible matrix.  A vanishing gap therefore forces that whole region to
    zero; pruning it keeps the fitting target off the support boundary,
    where proportional fitting would stall.
    """
    levels = pair.levels
    mask = allowed_mask(assumptions, levels)
    if assumptions is not Assumptions.MARGINAL_ONLY:
        gaps = np.cumsum(pair.control_law.probs - pair.treated_law.probs)
        for h in range(levels - 1):
            if gaps[h] <= 1e-12:
                mask[h + 1 :, : h + 1] = False
    return mask


def _cut_partitions(
    pair: MarginalPair, assumptions: Assumptions, mask: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Two-block partitions implied by the margins on monotone-type masks.

    With every cell above cut h forbidden, the region {k > h, l <= h} of any
    feasible matrix carries exactly the cumulative gap at h.  Rescaling a
    two-block partition to its known totals is itself an exact information
    projection, so adding these steps to the fitting cycle keeps it a
    correct cyclic-projection scheme while eliminating the slow modes that
    thin cuts otherwise cause.
    """
    if assumptions is Assumptions.MARGINAL_ONLY:
        return []
    levels = pair.levels
    gaps = np.cumsum(pair.control_law.probs - pair.treated_law.probs)
    partitions = []
    for h in range(levels - 1):
        region = np.zeros((levels, levels), dtype=bool)
        region[h + 1 :, : h + 1] = True
        region &= mask
        if gaps[h] > 1e-12 and region.any():
            partitions.append((region, mask & ~region, float(gaps[h])))
    return partitions


def _fit_slice(
    x: np.ndarray,
    treated: np.ndarray,
    control: np.ndarray,
    partitions: list[tuple[np.ndarray, np.ndarray, float]],
) -> np.ndarray:
    """Proportional fitting of the draws in ``x``, in place; their final errors.

    A draw leaves the sweep as soon as its margin error falls below
    ``IPF_TARGET``; the others go on to at most ``IPF_MAX_SWEEPS`` sweeps.
    Each draw's sweep uses only its own entries, so stopping one draw
    leaves the others as they would be without it, up to rounding.
    """
    row_t = treated[None, :, None]
    col_t = control[None, None, :]
    err = np.empty(x.shape[0])
    active = np.arange(x.shape[0])
    y = x  # the draws still sweeping; a compacted copy once some have stopped
    for _ in range(IPF_MAX_SWEEPS):
        rs = y.sum(axis=2, keepdims=True)
        y *= row_t / np.where(rs > 0, rs, 1.0)
        cs = y.sum(axis=1, keepdims=True)
        y *= col_t / np.where(cs > 0, cs, 1.0)
        for region, rest, target in partitions:
            inside = y[:, region].sum(axis=1)
            outside = y[:, rest].sum(axis=1)
            y[:, region] *= np.where(inside > 0, target / np.where(inside > 0, inside, 1.0), 1.0)[:, None]
            y[:, rest] *= np.where(outside > 0, (1.0 - target) / np.where(outside > 0, outside, 1.0), 1.0)[:, None]
        sweep_err = np.maximum(
            np.abs(y.sum(axis=2) - treated).max(axis=1),
            np.abs(y.sum(axis=1) - control).max(axis=1),
        )
        err[active] = sweep_err
        done = sweep_err < IPF_TARGET
        if done.any():
            x[active[done]] = y[done]
            y, active = y[~done], active[~done]
            if not active.size:
                break
    x[active] = y
    return err


def _sample_matrices(
    pair: MarginalPair, assumptions: Assumptions, n: int, rng: np.random.Generator
) -> np.ndarray:
    """(m, J, J) feasible matrices, m <= n, via Dirichlet starts + proportional fitting.

    The n starts are fitted in slices of ``IPF_SLICE`` draws, each in place,
    and every draw stops on its own convergence (see ``_fit_slice``).  Draws
    whose final margin error is not below ``IPF_ACCEPT`` are dropped.
    """
    levels = pair.levels
    bool_mask = _support_mask(pair, assumptions)
    treated = pair.treated_law.probs
    control = pair.control_law.probs
    partitions = _cut_partitions(pair, assumptions, bool_mask)
    x = rng.gamma(1.0, size=(n, levels, levels))
    x *= bool_mask
    x /= x.sum(axis=(1, 2), keepdims=True)
    err = np.concatenate([
        _fit_slice(x[start : start + IPF_SLICE], treated, control, partitions)
        for start in range(0, n, IPF_SLICE)
    ])
    converged = err < IPF_ACCEPT
    if not converged.any():
        raise SamplingError(
            f"proportional fitting failed for every draw under "
            f"{assumptions.value!r}; worst margin error {err.min():.3g}"
        )
    return x if converged.all() else x[converged]


def _sample_array(
    pair: MarginalPair, assumptions: Assumptions, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Exactly n feasible matrices, topping up rejected draws."""
    if n < 1:
        raise SamplingError("need at least one sample")
    _feasibility_precheck(pair, assumptions)
    collected: list[np.ndarray] = []
    remaining = n
    for _ in range(8):
        batch = _sample_matrices(pair, assumptions, remaining, rng)
        collected.append(batch)
        remaining -= batch.shape[0]
        if remaining <= 0:
            break
    if remaining > 0:
        raise SamplingError(f"{remaining} of {n} draws failed to converge")
    return collected[0] if len(collected) == 1 else np.concatenate(collected)


def draw_samples(
    pair: MarginalPair, assumptions: Assumptions, n: int, seed: int
) -> np.ndarray:
    """(n, J, J) array of feasible joint matrices; deterministic in the seed.

    Each sample satisfies the margins within ``SAMPLE_MARGIN_TOL`` and the
    assumption's zero pattern exactly (masked cells start and stay at
    zero).  Non-convergent draws are rejected and replaced.  The batch
    depends only on (pair, assumptions, n, seed), so every cell of one
    assumption level can be checked against the same batch.
    """
    return _sample_array(pair, assumptions, n, np.random.default_rng(seed))


def sample_feasible(
    pair: MarginalPair, assumptions: Assumptions, n: int, seed: int
) -> list[JointProbabilityMatrix]:
    """Draw n feasible joint matrices; see ``draw_samples``."""
    return [JointProbabilityMatrix(entries=q) for q in draw_samples(pair, assumptions, n, seed)]


def endpoint_witnesses(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions
) -> tuple[JointProbabilityMatrix, JointProbabilityMatrix]:
    """Feasible matrices attaining the lower and upper bound endpoints.

    Marginal-only endpoints use the explicit constructions; the narrower
    assumption levels reuse the LP optima, whose attainability the solver
    certifies.
    """
    if assumptions is Assumptions.MARGINAL_ONLY:
        return (
            extremal_witness_marginal(pair, event, y, Endpoint.LOWER),
            extremal_witness_marginal(pair, event, y, Endpoint.UPPER),
        )
    result = pn_bounds_lp(pair, event, y, assumptions)
    assert result.witnesses is not None
    return result.witnesses


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
) -> VerificationReport:
    """Check claimed bounds against samples and endpoint witnesses.

    Containment: every sampled feasible matrix must give an event
    probability inside the interval.  Sharpness: the distance from each
    bound to the probability its witness attains.  Findings are report
    fields, never exceptions.  With ``samples_csv`` the sampled event
    probabilities are also written one per line, for external plotting.
    ``samples`` is a batch the caller already drew with
    ``draw_samples(pair, assumptions, n, seed)``; without it the batch is
    drawn here.
    """
    x = draw_samples(pair, assumptions, n, seed) if samples is None else samples
    coeffs = np.asarray(event.coeffs, dtype=float)
    row = x[:, y, :]
    mass = row.sum(axis=1)
    values = (row @ coeffs) / mass
    if samples_csv is not None:
        lines = ["value"] + [f"{v:.17g}" for v in values]
        Path(samples_csv).write_text("\n".join(lines) + "\n")
    max_violation = max(
        0.0, float(bounds.lower - values.min()), float(values.max() - bounds.upper)
    )
    witness_lower, witness_upper = endpoint_witnesses(pair, event, y, assumptions)
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
    program = build_lp(pair, make_full_event(pair.levels), 0, assumptions)
    mask = allowed_mask(assumptions, pair.levels).reshape(-1)
    a_full = np.asarray(program.constraint_matrix)
    marginal_rows = 2 * pair.levels - 1
    a = a_full[:marginal_rows][:, mask]
    b = np.asarray(program.rhs)[:marginal_rows]
    rank = np.linalg.matrix_rank(a)
    n = a.shape[1]
    vertices: list[np.ndarray] = []
    seen: set[tuple[int, ...]] = set()
    for cols in combinations(range(n), rank):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.abs(sub @ sol - b).max() > 1e-9 or sol.min() < -1e-9:
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
