"""Exact graph-isomorphism decisions for small orders.

Independent of the residue-shift machinery: verdicts come from colour
refinement followed by complete backtracking search, so a True/False answer
is a proof, not a heuristic.  Orders above the cap are refused outright.

The search individualises vertex 0 of the first graph against every
compatible vertex of the second (cost factor n, harmless at this scale,
and ideal for vertex-transitive inputs), then extends the mapping with
bitmask candidate domains pruned by adjacency and non-adjacency against
all previously mapped vertices.
"""

from __future__ import annotations

from typing import Optional

from .graphs import EdgeSet

DEFAULT_CAP = 32


class OracleCapError(ValueError):
    """Raised instead of guessing when a graph exceeds the exact-search cap."""


def _adjacency_masks(g: EdgeSet) -> list[int]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _neighbour_lists(adj: list[int]) -> list[list[int]]:
    """Ascending neighbours of every vertex, read off the set bits of its mask."""
    out = []
    for mask in adj:
        nbrs = []
        while mask:
            low = mask & -mask
            nbrs.append(low.bit_length() - 1)
            mask ^= low
        out.append(nbrs)
    return out


def refine_invariants(adj: list[int], nbrs: list[list[int]]) -> list[tuple]:
    """Seed colour of every vertex of a graph given by adjacency bitmasks
    and their `_neighbour_lists`: (degree, triangles through it, sorted
    neighbour degrees)."""
    degrees = [mask.bit_count() for mask in adj]
    colors = []
    for v, vn in enumerate(nbrs):
        tri = sum((adj[v] & adj[u]).bit_count() for u in vn) // 2
        colors.append((degrees[v], tri, tuple(sorted(degrees[u] for u in vn))))
    return colors


def _refine_colors(adj1: list[int], adj2: list[int]) -> Optional[tuple[list[int], list[int]]]:
    """Simultaneous colour refinement with shared ids; None when the colour
    histograms of the two graphs diverge (certain non-isomorphism)."""
    ids: dict[tuple, int] = {}

    def assign(raw: list[tuple]) -> list[int]:
        out = []
        for sig in raw:
            if sig not in ids:
                ids[sig] = len(ids)
            out.append(ids[sig])
        return out

    def signatures(colors: list[int], nbrs: list[list[int]]) -> list[tuple]:
        return [(colors[v], tuple(sorted(colors[u] for u in vn))) for v, vn in enumerate(nbrs)]

    nbrs1, nbrs2 = _neighbour_lists(adj1), _neighbour_lists(adj2)
    c1 = assign(refine_invariants(adj1, nbrs1))
    c2 = assign(refine_invariants(adj2, nbrs2))
    while True:
        if sorted(c1) != sorted(c2):
            return None
        ids.clear()
        new1, new2 = assign(signatures(c1, nbrs1)), assign(signatures(c2, nbrs2))
        if new1 == c1 and new2 == c2:
            return c1, c2
        c1, c2 = new1, new2


def _search(n: int, adj1: list[int], adj2: list[int], domains: list[int]) -> bool:
    """Complete DFS over mappings; domains[v] is a non-empty bitmask of
    allowed images, and every extension keeps all domains non-empty.

    Iterative, so its depth is not bounded by the interpreter's recursion
    limit.  Each stack frame is (domains, assigned, branching vertex,
    untried images); images are tried one at a time in ascending order.
    """
    full = (1 << n) - 1
    stack: list[tuple[list[int], int, int, int]] = []
    cand, assigned = domains, 0
    while True:
        if assigned == full:
            return True
        # smallest domain first, index as tie-break (vertex 0 starts the anchor loop)
        best_v, best_size = -1, n + 1
        for v in range(n):
            if assigned >> v & 1:
                continue
            size = cand[v].bit_count()
            if size < best_size:
                best_v, best_size = v, size
                if size <= 1:
                    break
        stack.append((cand, assigned, best_v, cand[best_v]))
        # descend into the next untried image that leaves every domain non-empty
        while stack:
            cand, assigned, v, options = stack[-1]
            if not options:
                stack.pop()
                continue
            w_bit = options & -options
            stack[-1] = (cand, assigned, v, options ^ w_bit)
            w = w_bit.bit_length() - 1
            nxt = list(cand)
            nxt[v] = w_bit
            for u in range(n):
                if assigned >> u & 1 or u == v:
                    continue
                if adj1[v] >> u & 1:
                    reduced = nxt[u] & adj2[w] & ~w_bit
                else:
                    reduced = nxt[u] & ~adj2[w] & ~w_bit
                if reduced == 0:
                    break
                nxt[u] = reduced
            else:
                cand, assigned = nxt, assigned | 1 << v
                break
        else:
            return False


def are_isomorphic(g1: EdgeSet, g2: EdgeSet, cap: int = DEFAULT_CAP) -> bool:
    """Exact isomorphism decision for graphs on the same order n <= cap."""
    if g1.n != g2.n:
        raise ValueError(f"order mismatch: {g1.n} vs {g2.n}")
    n = g1.n
    if n > cap:
        raise OracleCapError(f"order {n} exceeds the exact-search cap {cap}")
    if len(g1.edges) != len(g2.edges):
        return False
    if n == 0 or not g1.edges:
        return True
    adj1, adj2 = _adjacency_masks(g1), _adjacency_masks(g2)
    refined = _refine_colors(adj1, adj2)
    if refined is None:
        return False
    c1, c2 = refined
    masks2: dict[int, int] = {}
    for v in range(n):
        masks2[c2[v]] = masks2.get(c2[v], 0) | 1 << v
    domains = [masks2.get(c1[v], 0) for v in range(n)]
    if any(d == 0 for d in domains):
        return False
    return _search(n, adj1, adj2, domains)
