"""Exact minimum identifying-code computation by branch and bound.

A set C is an identifying code iff it intersects N[v] for every vertex v
(domination) and N[u] xor N[v] for every vertex pair (separation): the
symmetric difference of two I-sets is exactly the code's intersection with
the symmetric difference of the closed neighborhoods.  Minimum codes are
therefore minimum hitting sets of a fixed family of vertex sets, which the
search below represents as bitmasks.  The total-dominating variant swaps the
closed domination sets for open ones.  Only pairs at distance at most 2 get
a separation set: further apart, N[u] xor N[v] contains N[u], so the
domination constraint of u already implies it.

The search iterates the target size k upward from an admissible lower bound.
Each node takes the unhit constraint with the fewest allowed candidates and
branches on those candidates in id order, forbidding the earlier ones in
each later branch (the "smallest column" rule of Knuth's Algorithm X).  A
branch is pruned as soon as some constraint can no longer be hit by the
allowed candidates or a packing of disjoint unhit constraints exceeds the
remaining slots.  The reported value is deterministic; the witness is the
first minimum the fixed search order reaches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import Graph

#: Default exploration budget (number of search nodes).
DEFAULT_BUDGET = 10**8


class NotIdentifiableError(ValueError):
    """The graph has closed twins, so no identifying code exists."""


class IsolatedVertexError(ValueError):
    """The graph has an isolated vertex, so no total dominating set exists."""


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    When ``proven_optimal`` is False the node budget ran out: ``witness`` is
    still a valid code (a deterministic greedy one), but only an upper bound
    on the true minimum.
    """

    value: int
    witness: frozenset[int]
    nodes_explored: int
    time: float
    proven_optimal: bool = True


def _closed_masks(g: Graph) -> list[int]:
    return [(1 << v) | sum(1 << w for w in g.adj[v]) for v in range(g.n)]


def _open_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.adj[v]) for v in range(g.n)]


def _separation_masks(g: Graph) -> list[int]:
    """One mask per vertex pair at distance at most 2: the vertices whose
    membership in the code distinguishes the pair.  A zero mask means closed
    twins (which are adjacent, so always listed here)."""
    closed = _closed_masks(g)
    masks = []
    for u in range(g.n):
        reach = 0
        for w in g.adj[u]:
            reach |= closed[w]
        reach &= -(2 << u)  # partners v > u only
        while reach:
            low = reach & -reach
            masks.append(closed[u] ^ closed[low.bit_length() - 1])
            reach ^= low
    return masks


def _reduce_constraints(masks: list[int]) -> list[int]:
    """Drop duplicates and supersets: hitting a subset hits every superset.

    Sorted by popcount so the greedy disjoint packing finds tight bounds.
    """
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for mask in unique:
        if not any(prev & mask == prev for prev in kept):
            kept.append(mask)
    return kept


def _greedy_hitting_set(n: int, masks: list[int]) -> int:
    """Deterministic greedy cover used as the fallback witness."""
    uncovered = list(masks)
    chosen = 0
    while uncovered:
        best_v, best_hits = -1, -1
        for v in range(n):
            bit = 1 << v
            if chosen & bit:
                continue
            hits = sum(1 for m in uncovered if m & bit)
            if hits > best_hits:
                best_v, best_hits = v, hits
        chosen |= 1 << best_v
        uncovered = [m for m in uncovered if not (m & (1 << best_v))]
    return chosen


def _disjoint_packing_bound(masks: list[int]) -> int:
    """Greedy count of pairwise disjoint constraints: each needs its own
    codeword, so this lower-bounds any hitting set (masks sorted by size)."""
    used = 0
    count = 0
    for m in masks:
        if not (m & used):
            count += 1
            used |= m
    return count


def _minimum_hitting_set(
    n: int, masks: list[int], budget: int
) -> tuple[int, int, bool]:
    """Return (witness mask, nodes explored, proven optimal)."""
    constraints = _reduce_constraints(masks)
    nodes = 0

    def search(allowed: int, chosen: int, slots: int, uncovered: list[int]) -> int | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        if not uncovered:
            return chosen
        packing = 0
        used = 0
        branch = 0
        fewest = n + 1
        for m in uncovered:
            avail = m & allowed
            if not avail:
                return None  # constraint can no longer be hit
            if not (avail & used):
                packing += 1
                used |= avail
            size = avail.bit_count()
            if size < fewest:
                branch, fewest = avail, size
        if packing > slots:
            return None
        while branch:
            bit = branch & -branch
            branch ^= bit
            found = search(
                allowed,
                chosen | bit,
                slots - 1,
                [m for m in uncovered if not (m & bit)],
            )
            if found is not None:
                return found
            allowed ^= bit  # later branches exclude this candidate
        return None

    start = _disjoint_packing_bound(constraints)
    try:
        for k in range(start, n + 1):
            found = search((1 << n) - 1, 0, k, constraints)
            if found is not None:
                return found, nodes, True
        # every constraint is nonempty, so the full set always hits
        return (1 << n) - 1, nodes, True
    except _BudgetExhausted:
        return _greedy_hitting_set(n, constraints), nodes, False


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def _solve(n: int, masks: list[int], budget: int) -> SolveResult:
    t0 = time.perf_counter()
    witness_mask, nodes, optimal = _minimum_hitting_set(n, masks, budget)
    witness = _mask_to_set(witness_mask)
    return SolveResult(
        value=len(witness),
        witness=witness,
        nodes_explored=nodes,
        time=time.perf_counter() - t0,
        proven_optimal=optimal,
    )


def gamma_id(g: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact minimum identifying code size and a witness attaining it.

    Raises :class:`NotIdentifiableError` when the graph has closed twins.
    The search is exponential in the worst case and meant for desk scale:
    ``random_tree(60, s)`` for s = 0, 1, 2 needs at most 59,458 nodes.
    """
    separation = _separation_masks(g)
    if any(m == 0 for m in separation):
        raise NotIdentifiableError("graph has closed twins; no identifying code exists")
    return _solve(g.n, _closed_masks(g) + separation, budget)


def gamma_tid(g: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact minimum total-dominating identifying code size and a witness.

    Identifiability is checked first, then the absence of isolated vertices.
    """
    separation = _separation_masks(g)
    if any(m == 0 for m in separation):
        raise NotIdentifiableError("graph has closed twins; no identifying code exists")
    opens = _open_masks(g)
    if any(m == 0 for m in opens):
        raise IsolatedVertexError("graph has an isolated vertex; no total dominating set exists")
    return _solve(g.n, opens + separation, budget)
