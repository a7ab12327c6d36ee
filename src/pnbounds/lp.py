"""Exact sharp bounds for arbitrary events via linear programming.

The feasible joint matrices form a polytope: nonnegative J x J matrices with
prescribed row and column sums, plus zero-fixing equality rows for whichever
assumption level applies.  The event mass in the evidence row is linear in
the matrix, so its sharp bounds are a pair of LPs, solved here by a dense
two-phase simplex.  Every optimal solve is certified through the dual:
the multipliers recovered from the final basis must be dual feasible,
complementary, and reproduce the primal value.
"""

from __future__ import annotations

import numpy as np

from .bounds import BoundsResult, Method
from .core import (
    ATOL,
    Assumptions,
    CausalAttributionError,
    EventSpec,
    JointProbabilityMatrix,
    MarginalPair,
    check_evidence,
    fixed_zero_cells,
)
from .identify import falsification_check

PIVOT_TOL = 1e-10
#: Residual allowed in the dual certificate and in the optimal point's Ax = b.
FEAS_TOL = 1e-8
#: Row violation beyond which a program is infeasible, and entry below whose
#: negative an optimum is no witness: the ``ATOL`` band of the gap tests
#: (under ``mono`` phase one leaves the most negative cumulative gap), plus
#: rounding headroom so the LP never refuses a gap those tests accept.
INFEAS_TOL = ATOL + 1e-12
#: Consecutive degenerate pivots before switching to Bland's anti-cycling rule.
_BLAND_TRIGGER = 24


class LpError(CausalAttributionError):
    """Solver breakdown (iteration limit, corrupt tableau, inconsistent result)."""


class LpInfeasibleError(LpError):
    """The feasible set for the requested bounds is empty."""


class CertificateError(LpError):
    """The dual optimality certificate failed; the solve cannot be trusted."""


# ---------------------------------------------------------------------------
# Simplex internals.  The tableau layout is [structural | artificial | rhs]
# in phase one and [structural | rhs] in phase two; the last tableau row
# holds reduced costs for maximization.
# ---------------------------------------------------------------------------


def _pivot_step(t: np.ndarray, basis: list[int], i: int, j: int) -> None:
    t[i] /= t[i, j]
    col = t[:, j].copy()
    col[i] = 0.0
    t -= np.outer(col, t[i])
    # re-set the pivot column exactly to a unit vector to limit drift
    t[:, j] = 0.0
    t[i, j] = 1.0
    basis[i] = j


def _run_simplex(t: np.ndarray, basis: list[int], n_enter: int) -> str:
    """Pivot until reduced costs over columns [0, n_enter) are nonnegative.

    Entering column: most negative reduced cost; a run of degenerate pivots
    switches to Bland's smallest-index rule, which cannot cycle.
    """
    m = t.shape[0] - 1
    rhs = t[:m, -1]
    degenerate_run = 0
    bland = False
    max_iter = 500 * (t.shape[1] + m + 1)
    for _ in range(max_iter):
        red = t[-1, :n_enter]
        if bland:
            neg = np.nonzero(red < -PIVOT_TOL)[0]
            if neg.size == 0:
                return "optimal"
            j = int(neg[0])
        else:
            j = int(np.argmin(red))
            if red[j] >= -PIVOT_TOL:
                return "optimal"
        col = t[:m, j]
        pos = col > PIVOT_TOL
        if not pos.any():
            return "unbounded"
        ratio = np.where(pos, rhs / np.where(pos, col, 1.0), np.inf)
        if bland:
            best = float(ratio.min())
            ties = np.nonzero(ratio <= best + PIVOT_TOL)[0]
            i = int(min(ties, key=lambda r: basis[r]))
        else:
            i = int(np.argmin(ratio))
        if ratio[i] <= PIVOT_TOL:
            degenerate_run += 1
            if degenerate_run > _BLAND_TRIGGER:
                bland = True
        else:
            degenerate_run = 0
            bland = False
        _pivot_step(t, basis, i, j)
    raise LpError("simplex iteration limit exceeded")


def _presolve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Fix variables pinned to zero by single-signed rows with zero rhs.

    Returns (active_cols, active_rows) boolean masks, or None when a row
    reduces to 0 = nonzero (infeasible).  Zero-fixing rows are how the
    assumption levels enter the program, so this removes them wholesale
    while keeping the stated formulation intact.
    """
    m, n = a.shape
    active_col = np.ones(n, dtype=bool)
    active_row = np.ones(m, dtype=bool)
    zero_rhs = np.abs(b) <= PIVOT_TOL
    while True:
        sub = np.where(active_col[None, :], a, 0.0)
        pos = sub > PIVOT_TOL
        neg = sub < -PIVOT_TOL
        nonzero = pos | neg
        has_nz = nonzero.any(axis=1)
        dead = active_row & ~has_nz
        if np.any(dead & (np.abs(b) > INFEAS_TOL)):
            return None
        single_signed = ~(pos.any(axis=1) & neg.any(axis=1))
        fixing = active_row & has_nz & zero_rhs & single_signed
        active_row &= ~dead
        if not fixing.any():
            return active_col, active_row
        active_col &= ~nonzero[fixing].any(axis=0)
        active_row &= ~fixing


def _phase1(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[int]] | None:
    """Find a basic feasible solution; None when the program is infeasible.

    Returns the constraint body [structural | rhs] in basis-reduced form,
    with redundant rows dropped and no artificial variables left basic.
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    basis = list(range(n, n + m))
    # phase-one objective: maximize minus the artificial mass
    t[-1, :n] = -a.sum(axis=0)
    t[-1, -1] = -b.sum()
    status = _run_simplex(t, basis, n_enter=n)
    if status != "optimal":  # phase-one objective is bounded above by zero
        raise LpError("phase one reported unbounded; the tableau is corrupt")
    if t[-1, -1] < -INFEAS_TOL:
        return None
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            row = np.abs(t[i, :n])
            j = int(np.argmax(row))
            if row[j] > PIVOT_TOL:
                _pivot_step(t, basis, i, j)
            else:
                drop.append(i)  # dependent constraint
    keep = [i for i in range(m) if i not in drop]
    cols = list(range(n)) + [n + m]
    body = t[np.ix_(keep, cols)].copy()
    return body, [basis[i] for i in keep]


def _phase2(
    body: np.ndarray, basis: list[int], c: np.ndarray
) -> tuple[str, np.ndarray, float, list[int]]:
    """Maximize c . x starting from the basic feasible solution in body."""
    m = body.shape[0]
    n = body.shape[1] - 1
    t = np.zeros((m + 1, n + 1))
    t[:m] = body
    t[-1, :n] = -c
    for i, bi in enumerate(basis):
        if c[bi] != 0.0:
            t[-1] += c[bi] * t[i]
    basis = list(basis)
    status = _run_simplex(t, basis, n_enter=n)
    if status == "unbounded":
        return "unbounded", np.empty(0), float("nan"), basis
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = t[i, -1]
    return "optimal", x, float(t[-1, -1]), basis


def _certify(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray, value: float, basis: list[int]
) -> None:
    """Dual optimality certificate from the final basis.

    Solves A_B^T y = c_B, then requires dual feasibility A^T y >= c, a zero
    duality gap, and complementary slackness, all within FEAS_TOL.
    """
    basis_matrix = a[:, basis]
    try:
        multipliers = np.linalg.solve(basis_matrix.T, c[basis])
    except np.linalg.LinAlgError:
        multipliers, *_ = np.linalg.lstsq(basis_matrix.T, c[basis], rcond=None)
    slack = a.T @ multipliers - c
    scale = max(1.0, float(np.abs(c).max()), abs(value))
    if slack.min() < -FEAS_TOL * scale:
        raise CertificateError(f"dual infeasible: slack {slack.min():.3g}")
    gap = abs(float(b @ multipliers) - value)
    if gap > FEAS_TOL * scale:
        raise CertificateError(f"duality gap {gap:.3g}")
    comp = float(np.abs(x * slack).max()) if x.size else 0.0
    if comp > FEAS_TOL * scale:
        raise CertificateError(f"complementary slackness violated by {comp:.3g}")


# One phase-one run serves every objective over the same polytope, so the
# feasibility work is memoized on the exact bytes of (A, b).  Entries are
# never mutated after insertion; phase two always works on copies.
_BASE_CACHE: dict[bytes, tuple | None] = {}
_BASE_CACHE_CAP = 128


_CACHE_MISS = object()


def _feasible_base(a: np.ndarray, b: np.ndarray, cache_key: bytes | None):
    """Presolve + phase one; returns None when infeasible.

    The result tuple is (active_col, a_red, b_red, body, basis); body and
    basis are None when presolve removed every row.  Cached entries are
    immutable, so a stale read under concurrency is at worst a recompute.
    """
    if cache_key is not None:
        hit = _BASE_CACHE.get(cache_key, _CACHE_MISS)
        if hit is not _CACHE_MISS:
            return hit
    pre = _presolve(a, b)
    if pre is None:
        base = None
    else:
        active_col, active_row = pre
        a_red = a[np.ix_(active_row, active_col)]
        b_red = b[active_row]
        if a_red.shape[0] == 0:
            base = (active_col, a_red, b_red, None, None)
        else:
            feas = _phase1(a_red, b_red)
            base = None if feas is None else (active_col, a_red, b_red, *feas)
    if cache_key is not None:
        if len(_BASE_CACHE) >= _BASE_CACHE_CAP:
            _BASE_CACHE.clear()
        _BASE_CACHE[cache_key] = base
    return base


def _solve_reduced(
    a: np.ndarray,
    b: np.ndarray,
    objectives: list[np.ndarray],
    cache_key: bytes | None = None,
) -> list[tuple[str, np.ndarray, float]] | None:
    """Share one phase-one run across several maximization objectives."""
    base = _feasible_base(a, b, cache_key)
    if base is None:
        return None
    active_col, a_red, b_red, body, basis0 = base
    n_full = a.shape[1]
    results = []
    for c in objectives:
        c_red = c[active_col]
        if body is None:
            # no constraints left: optimum is 0 at the origin unless some
            # objective coefficient is positive
            if np.any(c_red > PIVOT_TOL):
                results.append(("unbounded", np.empty(0), float("nan")))
                continue
            x_red = np.zeros(c_red.size)
            status, value, basis = "optimal", 0.0, []
        else:
            status, x_red, value, basis = _phase2(body, basis0, c_red)
        if status == "unbounded":
            results.append((status, np.empty(0), float("nan")))
            continue
        if basis:
            _certify(a_red, b_red, c_red, x_red, value, basis)
        x = np.zeros(n_full)
        x[active_col] = x_red
        if np.abs(a @ x - b).max() > FEAS_TOL or x.min() < -INFEAS_TOL:
            raise CertificateError("optimal point violates the original constraints")
        results.append(("optimal", x, value))
    return results


# ---------------------------------------------------------------------------
# Program construction for the bounds problem.
# ---------------------------------------------------------------------------


def build_lp(
    pair: MarginalPair,
    event: EventSpec,
    y: int,
    assumptions: Assumptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the bounds program (A, b, c) over the vectorized joint matrix.

    Variables are the J^2 matrix entries in row-major order.  The marginal
    block contributes 2(J-1) row/column-sum rows plus the total-mass row;
    each assumption level adds unit rows pinning its forbidden cells to
    zero.  The objective places a 1 at position (y, l) for each event level.
    """
    levels = pair.levels
    n = levels * levels
    zeros = fixed_zero_cells(assumptions, levels)
    m = 2 * levels - 1 + len(zeros)
    a = np.zeros((m, n))
    b = np.zeros(m)
    for k in range(levels - 1):
        a[k, k * levels : (k + 1) * levels] = 1.0
        b[k] = pair.treated_law[k]
    for l in range(levels - 1):
        a[levels - 1 + l, l::levels] = 1.0
        b[levels - 1 + l] = pair.control_law[l]
    a[2 * levels - 2, :] = 1.0
    b[2 * levels - 2] = 1.0
    for i, (k, l) in enumerate(zeros):
        a[2 * levels - 1 + i, k * levels + l] = 1.0
    objective = np.zeros(n)
    for l, c in enumerate(event.coeffs):
        if c:
            objective[y * levels + l] = 1.0
    return a, b, objective


def _as_joint(x: np.ndarray, levels: int) -> JointProbabilityMatrix:
    # clipping entries down to -INFEAS_TOL can push the sum past 1 + ATOL;
    # rescaling restores it and leaves every conditional probability as is
    q = np.clip(x.reshape(levels, levels), 0.0, None)
    return JointProbabilityMatrix(entries=q / q.sum())


def pn_bounds_lp(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions
) -> BoundsResult:
    """Sharp bounds for any event under any assumption level, by LP.

    Minimizing and maximizing the event mass in the evidence row over the
    feasible polytope and dividing by treated[y] yields the bounds; the
    optimal matrices are returned as endpoint witnesses.  An empty polytope
    under the one-level-lift assumption is cross-checked against the gap
    brackets before being reported.
    """
    mass = check_evidence(pair, event, y)
    a, b, c = build_lp(pair, event, y, assumptions)
    cache_key = (
        pair.treated_law.probs.tobytes()
        + pair.control_law.probs.tobytes()
        + assumptions.value.encode()
    )
    outcome = _solve_reduced(a, b, [-c, c], cache_key)
    if outcome is None:
        if assumptions is Assumptions.MONOTONIC_INCREMENT:
            report = falsification_check(pair)
            if report.passed:
                raise LpError(
                    "internal inconsistency: LP infeasible although the gap "
                    "brackets pass"
                )
            raise LpInfeasibleError(
                "one-level-lift feasible set is empty; gap brackets violated at "
                + ", ".join(f"k={chk.k}" for chk in report.violations())
            )
        raise LpInfeasibleError(
            f"feasible set is empty under {assumptions.value!r} for these marginals"
        )
    (st_min, x_min, neg_min), (st_max, x_max, v_max) = outcome
    if st_min != "optimal" or st_max != "optimal":  # polytope is bounded
        raise LpError("bounds program reported unbounded; formulation is corrupt")
    # clamped after the feasibility test; max(0.0, -0.0) is 0.0, never -0.0
    return BoundsResult(
        lower=float(min(1.0, max(0.0, -neg_min / mass))),
        upper=float(min(1.0, max(0.0, v_max / mass))),
        assumptions=assumptions,
        method=Method.LP,
        witnesses=(_as_joint(x_min, pair.levels), _as_joint(x_max, pair.levels)),
    )
