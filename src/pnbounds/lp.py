"""Exact sharp bounds for arbitrary events via linear programming.

The feasible joint matrices form a transportation polytope (Dantzig 1951):
the treated law is the supply of the J rows, the control law the demand of
the J columns, and each cell that the assumption level allows is an arc
from its row to its column.  The event mass in the evidence row is linear
in the matrix, so its sharp bounds are a pair of transportation problems.
They are solved by a primal tree (network) simplex on strongly feasible
trees, whose leaving-arc rule cannot cycle (Cunningham 1976).  Every
optimum is certified through the dual in one array pass: the node
potentials must fit the tree, price every allowed cell with the right sign
and close the duality gap, and the point must match the margins.
"""

from __future__ import annotations

import functools

import numpy as np

from .bounds import BoundsResult, Method
from .core import (
    FEAS_TOL,
    INFEAS_TOL,
    PIVOT_TOL,
    Assumptions,
    CausalAttributionError,
    EventSpec,
    MarginalPair,
    allowed_mask,
    check_evidence,
    evidence_mass,
)

__all__ = [
    "CertificateError",
    "LpError",
    "LpInfeasibleError",
    "pn_bounds_lp",
]

#: Pivots per arc before a solve is abandoned; strongly feasible trees
#: terminate, so reaching it means a corrupt tree.
_PIVOTS_PER_ARC = 50


class LpError(CausalAttributionError):
    """Solver breakdown (iteration limit, corrupt tree)."""


class LpInfeasibleError(LpError):
    """The feasible set for the requested bounds is empty."""


class CertificateError(LpError):
    """The dual optimality certificate failed; the solve cannot be trusted."""


# ---------------------------------------------------------------------------
# Tree simplex.  Nodes 0..R-1 are the rows, R..R+C-1 the columns and R+C an
# artificial root.  Arcs 0..m-1 are the allowed cells, row to column; arc
# m + i joins node i to the root.  Trees are strongly feasible: each tree arc
# without flow points away from the root.
# ---------------------------------------------------------------------------


class _Network:
    """A transportation problem and a strongly feasible spanning tree of it.

    Each node but the root keeps its parent, the tree arc to it (``pred``),
    whether that arc points up to the parent, its depth and its children.
    Arcs outside the tree carry no flow.  Building the network runs phase
    one: ``deficit`` is the least mass that must pass through the root,
    which is the least mass off the allowed cells.
    """

    def __init__(self, supply: np.ndarray, demand: np.ndarray, mask: np.ndarray):
        self.rows, self.cols = np.nonzero(mask)
        self.m = m = self.rows.size
        root = supply.size + demand.size
        # the margins, each node's cells, and the sign of its potential in
        # the dual: u = pi on rows, v = -pi on columns
        self.laws = np.concatenate((supply, demand))
        self.ends = np.concatenate((self.rows, self.cols + supply.size))
        self.signs = np.repeat((1.0, -1.0), (supply.size, demand.size))
        # every node hangs from the root by its artificial arc, which carries
        # the node's whole law: up from a row with mass, down to every other
        # node, so the first tree is strongly feasible
        nodes = np.arange(root)
        out = (nodes < supply.size) & (self.laws > 0)
        self.flow = [0.0] * m + self.laws.tolist()
        self.parent = [root] * root + [-1]
        self.pred = list(range(m, m + root)) + [-1]
        self.up = out.tolist() + [False]
        self.tail = np.concatenate((self.rows, np.where(out, nodes, root)))
        self.head = np.concatenate((self.cols + supply.size, np.where(out, root, nodes)))
        self.tails, self.heads = self.tail.tolist(), self.head.tolist()
        self.children = [[] for _ in range(root)] + [list(range(root))]
        cost = np.zeros(self.tail.size)
        cost[m:] = 1.0
        self.run(cost, cost.size)
        self.deficit = sum(self.flow[m:]) / 2
        self.low = np.zeros(m)
        if 0.0 < self.deficit <= INFEAS_TOL:
            self._absorb()

    def copy(self) -> _Network:
        new = object.__new__(_Network)
        new.__dict__.update(self.__dict__)
        for name in ("parent", "pred", "up", "depth", "flow"):
            setattr(new, name, list(getattr(self, name)))
        new.children = [list(c) for c in self.children]
        return new

    def run(self, cost: np.ndarray, priced: int) -> None:
        """Pivot on the most negative reduced cost of arcs 0..priced-1 until
        none is left; cost is per arc, minimized."""
        c = cost.tolist()
        pi = [0.0] * len(self.parent)
        self.depth = depth = [0] * len(self.parent)
        order = [len(self.parent) - 1]
        for x in order:  # potentials from the root: zero reduced cost on tree arcs
            for child in self.children[x]:
                arc = self.pred[child]
                pi[child] = pi[x] + c[arc] if self.up[child] else pi[x] - c[arc]
                depth[child] = depth[x] + 1
                order.append(child)
        self.pi = pi = np.array(pi)
        cost, tail, head = cost[:priced], self.tail[:priced], self.head[:priced]
        for _ in range(_PIVOTS_PER_ARC * cost.size):
            reduced = cost - pi[tail] + pi[head]
            arc = int(reduced.argmin())
            if reduced[arc] >= -PIVOT_TOL:
                return
            self._pivot(arc, float(reduced[arc]))
        raise LpError("simplex iteration limit exceeded")

    def _pivot(self, arc: int, reduced: float, leave: int = -1) -> None:
        """Bring arc into the tree; a given ``leave`` node's tree arc leaves
        it and ends with no flow, else the ratio test picks the leaving arc."""
        parent, pred, up, flow, children = self.parent, self.pred, self.up, self.flow, self.children
        t, h = self.tails[arc], self.heads[arc]
        t_side, h_side = [], []  # nodes whose tree arc lies on the cycle
        a, b = t, h
        while a != b:
            if self.depth[a] >= self.depth[b]:
                t_side.append(a)
                a = parent[a]
            else:
                h_side.append(b)
                b = parent[b]
        if leave >= 0:  # on the h side
            delta, on_h = -flow[pred[leave]] if up[leave] else flow[pred[leave]], True
        else:
            # the first blocking arc met walking the cycle from the apex down
            # to t, across the entering arc and up from h keeps the tree
            # strongly feasible; every cycle has one, as no arc leaves a column
            delta, on_h = float("inf"), False
            for x in reversed(t_side):
                if up[x] and flow[pred[x]] < delta:
                    delta, leave = flow[pred[x]], x
            for x in h_side:
                if not up[x] and flow[pred[x]] < delta:
                    delta, leave, on_h = flow[pred[x]], x, True
        if delta:
            for x in t_side:
                flow[pred[x]] += -delta if up[x] else delta
            for x in h_side:
                flow[pred[x]] += delta if up[x] else -delta
        flow[arc] = delta
        # hang the subtree cut off by the leaving arc from the entering arc,
        # reversing the stem between its new root and the leaving arc
        x, new = (h, (t, arc, False)) if on_h else (t, (h, arc, True))
        while True:
            old = parent[x], pred[x], up[x]
            children[old[0]].remove(x)
            children[new[0]].append(x)
            parent[x], pred[x], up[x] = new
            if x == leave:
                break
            new = (x, old[1], not old[2])
            x = old[0]
        moved, stack = [], [h if on_h else t]
        while stack:
            x = stack.pop()
            self.depth[x] = self.depth[parent[x]] + 1
            moved.append(x)
            stack += children[x]
        self.pi[moved] += -reduced if on_h else reduced

    def _absorb(self) -> None:
        """Send the mass left at the root over cells, as the margins demand.

        Each pivot brings in a cell that joins two subtrees of the root and
        drives the artificial arc of one of them out.  The point then meets
        the margins, with entries down to minus the deficit; those entries
        become the cells' lower bounds, so the flows stay nonnegative.  The
        forced pivots need not keep the tree strongly feasible; they run
        only for a program inside the band.
        """
        root = len(self.parent) - 1
        while len(self.children[root]) > 1:
            top = [root] * (root + 1)
            for child in self.children[root]:
                stack = [child]
                while stack:
                    x = stack.pop()
                    top[x] = child
                    stack += self.children[x]
            top = np.array(top)
            joins = np.flatnonzero(top[self.tail[: self.m]] != top[self.head[: self.m]])
            if not joins.size:
                break
            arc = int(joins[0])
            self._pivot(arc, 0.0, int(top[self.heads[arc]]))
        x = np.array(self.flow[: self.m])
        self.low = np.minimum(x, 0.0)
        self.flow[: self.m] = (x - self.low).tolist()

    def objective(self, coeffs: tuple[int, ...], y: int) -> np.ndarray:
        """Cost per cell of the event mass in evidence row y."""
        return np.asarray(coeffs, dtype=float)[self.cols] * (self.rows == y)

    def solve(self, c: np.ndarray) -> tuple[float, np.ndarray]:
        """Phase two: minimize c over the cells from this feasible tree.

        Returns the certified value and the optimal point as flows per
        cell.  Only cells enter the tree, and a cycle through the root moves
        nothing: phase one left no flow there, or ``_absorb`` joined every
        subtree of the root into one.
        """
        tree = self.copy()
        cost = np.zeros(self.tail.size)
        cost[: self.m] = c
        tree.run(cost, self.m)
        return tree._certify(c)

    def _certify(self, c: np.ndarray) -> tuple[float, np.ndarray]:
        """Dual certificate of the tree's point, from its potentials.

        With u the row and -v the column potentials, u_k + v_l must equal
        c_kl on tree cells and stay at or below it on every allowed cell.
        The dual value of the program with the point's margins and the
        cells' lower bounds must equal c . x, and those margins must match
        the laws within FEAS_TOL.
        """
        m, pi = self.m, self.pi
        x = self.low + self.flow[:m]
        slack = c - pi[self.tail[:m]] + pi[self.head[:m]]
        tree = [arc for arc in self.pred[:-1] if arc < m]
        value = float(c @ x)
        scale = max(1.0, float(np.abs(c).max()), abs(value))
        if np.abs(slack[tree]).max(initial=0.0) > FEAS_TOL * scale:
            raise CertificateError("potentials do not fit the tree")
        if slack.min() < -FEAS_TOL * scale:
            raise CertificateError(f"dual infeasible: slack {slack.min():.3g}")
        sums = np.bincount(self.ends, np.concatenate((x, x)), pi.size - 1)
        gap = abs(sums @ (pi[:-1] * self.signs) + self.low @ slack - value)
        if gap > FEAS_TOL * scale:
            raise CertificateError(f"duality gap {gap:.3g}")
        if x.min() < -INFEAS_TOL or np.abs(sums - self.laws).max() > FEAS_TOL:
            raise CertificateError("optimal point violates the margins")
        return value, x


def _feasible_base(pair: MarginalPair, assumptions: Assumptions) -> _Network:
    """The polytope's network after phase one, from ``_base_network``'s cache."""
    laws = pair.treated_law.probs, pair.control_law.probs
    return _base_network(laws[0].tobytes(), laws[1].tobytes(), assumptions)


# One phase one serves every objective over the same polytope, so the network
# after it is memoized on the exact bytes of the laws and the level, one pair's
# levels at a time.  Entries are never mutated: each solve works on a copy.
@functools.lru_cache(maxsize=len(Assumptions))
def _base_network(treated: bytes, control: bytes, assumptions: Assumptions) -> _Network:
    laws = np.frombuffer(treated), np.frombuffer(control)
    return _Network(*laws, allowed_mask(assumptions, laws[0].size))


def polytope_empty(pair: MarginalPair, assumptions: Assumptions) -> bool:
    """Whether no joint of the level meets the pair's margins: phase one's
    least mass off the allowed cells exceeds ``INFEAS_TOL``.  The one
    emptiness test; it depends on no event and no evidence level, so the
    report asks it once per refused level (``mono`` under ``--verify``)."""
    return _feasible_base(pair, assumptions).deficit > INFEAS_TOL


def pn_bounds_lp(
    pair: MarginalPair, event: EventSpec, y: int, assumptions: Assumptions
) -> BoundsResult:
    """Sharp bounds for any event under any assumption level, by LP.

    Minimizing and maximizing the event mass in the evidence row over the
    feasible polytope and dividing by treated[y] yields the bounds, each
    optimum certified through the dual (``_Network.solve``).  An empty
    polytope is refused by ``polytope_empty`` alone, at every level, and in
    ``level_bounds``' order: an empty ``mono`` level before zero evidence,
    zero evidence before an empty ``incr`` one.
    """
    check_evidence(pair, event, y)
    if assumptions is Assumptions.MONOTONIC_INCREMENT:
        evidence_mass(pair, y)
    if polytope_empty(pair, assumptions):
        raise LpInfeasibleError(
            f"feasible set is empty under {assumptions.value!r} for these marginals"
        )
    mass = float(evidence_mass(pair, y))
    network = _feasible_base(pair, assumptions)
    c = network.objective(event.coeffs, y)
    low, _ = network.solve(c)
    neg_up, _ = network.solve(-c)
    # clamped after the feasibility test; max(0.0, -0.0) is 0.0, never -0.0
    return BoundsResult(
        lower=float(min(1.0, max(0.0, low / mass))),
        upper=float(min(1.0, max(0.0, -neg_up / mass))),
        assumptions=assumptions,
        method=Method.LP,
    )
