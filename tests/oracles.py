"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written from the definitions, without
calling the package's verifier, solver, or canonical forms, so that a bug
on either side shows up as a disagreement.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from idcodes.graph import Graph, from_edge_list


# ---------------------------------------------------------------------------
# Naive verification straight from the definitions


def closed_nbhd(g: Graph, v: int) -> frozenset[int]:
    return frozenset(g.adj[v]) | {v}


def naive_is_identifying(g: Graph, code: frozenset[int]) -> bool:
    isets = [closed_nbhd(g, v) & code for v in range(g.n)]
    if any(not s for s in isets):
        return False
    return len(set(isets)) == g.n


def naive_is_td_identifying(g: Graph, code: frozenset[int]) -> bool:
    if any(not (frozenset(g.adj[v]) & code) for v in range(g.n)):
        return False
    return naive_is_identifying(g, code)


def naive_gamma_id(g: Graph) -> int | None:
    """Minimum identifying code size by exhaustive subset enumeration."""
    vertices = range(g.n)
    for k in range(0, g.n + 1):
        for subset in combinations(vertices, k):
            if naive_is_identifying(g, frozenset(subset)):
                return k
    return None


def naive_gamma_tid(g: Graph) -> int | None:
    vertices = range(g.n)
    for k in range(0, g.n + 1):
        for subset in combinations(vertices, k):
            if naive_is_td_identifying(g, frozenset(subset)):
                return k
    return None


def all_pairs_separation_masks(g: Graph) -> list[int]:
    """N[u] xor N[v] as a bitmask for every vertex pair, however far apart."""
    closed = [sum(1 << w for w in closed_nbhd(g, v)) for v in range(g.n)]
    return [closed[u] ^ closed[v] for u, v in combinations(range(g.n), 2)]


# ---------------------------------------------------------------------------
# Free-tree counting by Prüfer enumeration plus canonical-form dedup.
# The canonical form here (nested tuples rooted at centers found by leaf
# stripping) is written independently of the package's string encoding.


def prufer_edges(n: int, seq: tuple[int, ...]) -> list[tuple[int, int]]:
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    # classic linear-time decode: track the smallest available leaf
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def _centers_by_stripping(n: int, adj: list[list[int]]) -> list[int]:
    alive = n
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    dead = [False] * n
    while alive > 2:
        alive -= len(layer)
        nxt = []
        for v in layer:
            dead[v] = True
            for w in adj[v]:
                if not dead[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _rooted_shape(adj: list[list[int]], root: int, parent: int) -> tuple:
    return tuple(
        sorted(_rooted_shape(adj, w, root) for w in adj[root] if w != parent)
    )


def tree_shape(n: int, edges: list[tuple[int, int]]):
    """Isomorphism-invariant shape of a free tree."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    centers = _centers_by_stripping(n, adj)
    if len(centers) == 1:
        return ("u", _rooted_shape(adj, centers[0], -1))
    c1, c2 = centers
    s1 = _rooted_shape(adj, c1, c2)
    s2 = _rooted_shape(adj, c2, c1)
    return ("b",) + tuple(sorted((s1, s2)))


def prufer_free_tree_count(n: int) -> int:
    """Number of non-isomorphic trees on n vertices, by enumerating every
    Prüfer sequence and deduplicating shapes.  Exponential: keep n small."""
    if n <= 2:
        return 1
    shapes = set()
    for seq in product(range(n), repeat=n - 2):
        shapes.add(tree_shape(n, prufer_edges(n, seq)))
    return len(shapes)


# ---------------------------------------------------------------------------
# Exhaustive small-graph enumeration up to isomorphism.
# Canonical form: minimum adjacency bitmask over permutations respecting an
# iterated-degree coloring (complete because isomorphisms preserve colors).


def _graph_colors(n: int, adjsets: list[set[int]]) -> list[int]:
    colors = [len(adjsets[v]) for v in range(n)]
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adjsets[v])))
            for v in range(n)
        ]
        remap = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [remap[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _edge_mask(n: int, adjsets: list[set[int]], perm: list[int]) -> int:
    mask = 0
    for u in range(n):
        pu = perm[u]
        for v in adjsets[u]:
            if u < v:
                a, b = pu, perm[v]
                if a > b:
                    a, b = b, a
                mask |= 1 << (a * n + b)
    return mask


def canonical_graph_key(g: Graph) -> int:
    """Canonical integer for a small graph (min edge mask over colored perms)."""
    n = g.n
    adjsets = [set(g.adj[v]) for v in range(n)]
    colors = _graph_colors(n, adjsets)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    classes = [by_color[c] for c in sorted(by_color)]
    # target positions: vertices of the first class map to 0..k-1, and so on
    starts = []
    pos = 0
    for cls in classes:
        starts.append(pos)
        pos += len(cls)

    from itertools import permutations

    best: int | None = None
    perm = [0] * n

    def assign(ci: int) -> None:
        nonlocal best
        if ci == len(classes):
            mask = _edge_mask(n, adjsets, perm)
            if best is None or mask < best:
                best = mask
            return
        cls = classes[ci]
        base = starts[ci]
        for order in permutations(cls):
            for offset, v in enumerate(order):
                perm[v] = base + offset
            assign(ci + 1)

    assign(0)
    assert best is not None
    return best


def connected_graphs_upto_iso(n: int) -> list[Graph]:
    """Every connected graph on n vertices, one per isomorphism class.

    Built by vertex augmentation: every connected graph on k+1 vertices is a
    connected graph on k vertices plus a new vertex joined to a nonempty
    subset (delete any non-cutvertex to see this).
    """
    level: dict[int, Graph] = {}
    g1 = from_edge_list(1, [])
    level[canonical_graph_key(g1)] = g1
    for size in range(2, n + 1):
        nxt: dict[int, Graph] = {}
        for g in level.values():
            base_edges = g.edges()
            for mask in range(1, 1 << (size - 1)):
                edges = list(base_edges)
                edges.extend(
                    (v, size - 1) for v in range(size - 1) if mask >> v & 1
                )
                cand = from_edge_list(size, edges)
                key = canonical_graph_key(cand)
                if key not in nxt:
                    nxt[key] = cand
        level = nxt
    return list(level.values())


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^(n(n-1)/2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


# ---------------------------------------------------------------------------
# Deterministic random instances


def petersen() -> Graph:
    return from_edge_list(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )


def random_bipartite_graphs(
    count: int, max_n: int, master_seed: int
) -> list[Graph]:
    """Deterministic connected bipartite graphs with no twins of degree >= 2.

    Seeds are consumed in order until ``count`` instances pass the filter.
    """
    from idcodes.graph import is_connected, profile

    found: list[Graph] = []
    seed = master_seed
    while len(found) < count:
        rng = random.Random(seed)
        seed += 1
        n = rng.randint(6, max_n)
        left = rng.randint(2, n - 2)
        edges = [
            (u, v)
            for u in range(left)
            for v in range(left, n)
            if rng.random() < 0.35
        ]
        g = from_edge_list(n, edges)
        if not is_connected(g):
            continue
        prof = profile(g)
        if prof.bipartition is None or prof.has_twin_deg_ge2:
            continue
        found.append(g)
    return found
