"""Circulant graphs as explicit edge sets over Z_n.

A circulant graph is named by its order n and a reduced jump set
R subseteq [1, n//2]: vertex x is joined to x +- r (mod n) for every r in R.
This module materialises such graphs, recognises whether an arbitrary edge
set is circulant, checks that a vertex map carries one circulant onto
another (`is_isomorphism`), and generates, one step at a time, the two
invariants that bucket the CI census: the closed-walk counts from vertex
0 and the rounds of rooted colour refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .modarith import reduce_set


@dataclass(frozen=True, order=True)
class ConnectionSet:
    """An order n together with a reduced, strictly ascending jump tuple."""

    n: int
    jumps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"order must be >= 2, got {self.n}")
        if not self.jumps:
            raise ValueError("jump set must be nonempty")
        prev = 0
        for j in self.jumps:
            if not prev < j <= self.n // 2:
                raise ValueError(
                    f"jumps must be strictly ascending in [1, {self.n // 2}], got {self.jumps}"
                )
            prev = j

    @classmethod
    def reduce(cls, n: int, values) -> "ConnectionSet":
        """Build a ConnectionSet by reflexively reducing arbitrary values."""
        return cls(n, reduce_set(n, values))

    def symmetric_jumps(self) -> tuple[int, ...]:
        """The jump set closed under negation mod n, ascending (R and n-R)."""
        sym = set(self.jumps)
        sym.update(self.n - j for j in self.jumps)
        return tuple(sorted(sym))

    def __str__(self) -> str:
        return f"C_{self.n}({','.join(str(j) for j in self.jumps)})"


@dataclass(frozen=True)
class EdgeSet:
    """An undirected simple graph on vertex set Z_n, edges as (min, max) pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) invalid for order {self.n}")


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_edges(c: ConnectionSet) -> EdgeSet:
    """Materialise C_n(R) as an explicit edge set.

    The jump n/2 (n even) yields one edge per vertex pair, never two, so the
    edge count is n*|R| minus n/2 when that jump is present.
    """
    n = c.n
    pairs = set()
    for r in c.jumps:
        for x in range(n):
            pairs.add(_edge(x, (x + r) % n))
    return EdgeSet(n, frozenset(pairs))


def is_isomorphism(source: ConnectionSet, target: ConnectionSet, phi) -> bool:
    """Whether the vertex map phi (phi[v] the image of v) is an isomorphism
    from C_n(R) onto C_n(S), R the jumps of `source` and S those of
    `target`, checked edge by edge in O(n*|R|).

    Accepts exactly when phi is a bijection of Z_n, |R| = |S|, n/2 lies in
    both R and S or in neither, and phi(v + r) - phi(v) lies in +-S for
    every vertex v and every r in R.

    Proof.  The edges of C_n(R) are the pairs {v, v + r}, v in Z_n and r in
    R.  For r < n/2 the n pairs of r are distinct, and they differ by +-r,
    so no other jump gives them; for r = n/2 each pair arises from v and
    v + n/2.  So C_n(R) has n*|R| edges, less n/2 when n/2 is in R, and the
    second and third conditions give C_n(S) the same number.  By the last
    condition phi carries each edge {v, v + r} to a pair of C_n(S), and a
    bijection of vertices is injective on unordered pairs.  An injective
    map between finite sets of equal size is onto, so phi maps the edges
    of C_n(R) onto those of C_n(S), and non-edges onto non-edges: an
    isomorphism.  Nothing here depends on how phi was found.
    """
    n, r_jumps, s_jumps = source.n, source.jumps, target.jumps
    if target.n != n or len(phi) != n or sorted(phi) != list(range(n)):
        return False
    if len(r_jumps) != len(s_jumps) or (2 * r_jumps[-1] == n) != (2 * s_jumps[-1] == n):
        return False
    in_s = [False] * n
    for s in s_jumps:
        in_s[s] = in_s[n - s] = True
    phi = list(phi)
    return all(
        in_s[(y - x) % n] for r in r_jumps for x, y in zip(phi, phi[r:] + phi[:r])
    )


def detect_circulant(n: int, e: EdgeSet):
    """Return the ConnectionSet S with build_edges(S) == e, or None.

    The candidate is read off the neighbours of vertex 0.  Equality with the
    circulant rebuilt from it already implies rotation invariance.
    """
    if e.n != n:
        raise ValueError(f"edge set order {e.n} does not match {n}")
    zero_nbrs = [v for u, v in e.edges if u == 0]
    if not zero_nbrs:
        return None
    candidate = ConnectionSet.reduce(n, zero_nbrs)
    return candidate if build_edges(candidate).edges == e.edges else None


def gcd_signature(c: ConnectionSet) -> tuple[int, ...]:
    """The sorted multiset {gcd(n, r) : r in jumps}.

    Not a certificate, and no longer used by any correctness path: the CI
    census buckets by proven invariants.  It stays exported only because
    the benchmark under `perfbench/` traces it.
    """
    return tuple(sorted(gcd(c.n, r) for r in c.jumps))


WALK_PREFIX = 8  # closed-walk lengths yielded by `walk_counts`


def walk_counts(c: ConnectionSet):
    """Yield the numbers W_1..W_K of closed walks of length k from vertex 0
    of C_n(R), K = WALK_PREFIX, one step at a time by Kronecker packing.

    Walks from 0 of length k to j are the coefficient of x^j in P(x)^k
    mod x^n - 1, P the sum of x^s over s in +-R, read off R directly:
    x^r and x^(n - r) for each jump r, which are one term when r = n/2.
    Each coefficient sits in a field of w bits of one integer, and a step
    multiplies by P packed the same way, then folds mod x^n - 1 as
    (v & mask) + (v >> n*w).  W_k is the low field after step k.

    Invariance: W_k = (A^k)_00 = tr(A^k)/n, as rotations carry 0 to every
    vertex, and an isomorphism taken to fix 0 carries closed walks at 0
    onto closed walks at 0.  Exactness: with d = |+-R| = 2|R| - [n/2 in R],
    every coefficient before and after the fold counts walks of length
    k <= K, so it is at most d^k < 2^w and no carry crosses into the next
    field; the product has degree < 2n - 1, so one fold reduces it.
    """
    n, jumps = c.n, c.jumps
    d = 2 * len(jumps) - (2 * jumps[-1] == n)
    w = (d**WALK_PREFIX).bit_length() + 1
    step = 0
    for r in jumps:
        step |= 1 << r * w | 1 << (n - r) * w
    shift = n * w
    mask, field = (1 << shift) - 1, (1 << w) - 1
    walks = 1
    for _ in range(WALK_PREFIX):
        walks *= step
        walks = (walks & mask) + (walks >> shift)
        yield walks & field


def refinement_rounds(c: ConnectionSet):
    """Colour refinement of C_n(R) with vertex 0 individualised, one round
    at a time: yields each round's sorted distinct signatures, then the
    final class sizes.

    Vertex 0 starts with colour 0 and every other vertex with colour 1.
    With `classes` colours in play and b = d.bit_length(), d = |+-R|, a
    round gives vertex x the packed signature
        colour(x) << classes*b  |  sum of 1 << colour(x + s)*b, s in +-R,
    and renames the colours by the rank of each signature among the
    round's sorted distinct signatures.  Own colour sits above every
    neighbour field, so the classes only ever split, and the rounds stop
    when their number stops growing.  Vertex 0 keeps colour 0 throughout:
    it alone has own colour 0, so its signature sorts first.

    Packing is exact.  Each field counts at most d < 2^b neighbours, so no
    field carries into the next, and the neighbour sum stays below
    2^(classes*b); two packed signatures are therefore equal iff the pairs
    (own colour, multiset of neighbour colours) are.  So the rounds split
    the classes exactly as the tuple signatures (own colour, sorted
    neighbour colours) do, and two graphs get equal packed rounds iff they
    get equal tuple rounds.  By induction over rounds: if both graphs have
    equal rounds so far, the same bijection relates their packed and tuple
    colour names (it starts as the identity), so it carries one graph's
    set of tuple signatures onto its packed set exactly as it does the
    other's; the two sets of tuple signatures are equal iff the packed
    ones are, and when equal, the ranks again relate packed and tuple
    names by one common bijection.  The final sizes are then listed in
    one common order too.

    Isomorphic circulants yield equal sequences.  Proof: let phi be an
    isomorphism from C_n(R) onto C_n(S).  Rotation by -phi(0) is an
    automorphism of C_n(S), so we may take phi(0) = 0; then the starting
    colours satisfy colour_S(phi(x)) = colour_R(x).  If that holds before
    a round, phi maps the neighbours of x onto those of phi(x), so x and
    phi(x) get equal signatures, each round has the same sorted distinct
    signatures on both sides, and the ranks agree again.  The two
    refinements therefore stop at the same round with equal rounds, and
    phi carries each final class onto one of the same size.

    The sequence refines the closed-walk counts W_k from vertex 0 at every
    length k, so also `walk_counts` (the suites in `tests/` check this).
    The last round splits no class, so all vertices of a class have the
    same number of neighbours in each class: the final partition is
    equitable, with {0} a class of its own, and the last round's
    signatures give its quotient matrix Q.  Walks from 0 project onto
    walks of Q from the class of 0, so W_k = (Q^k)_00, and equal
    sequences give equal walk counts.

    Negation is an automorphism that fixes 0, so by the same induction
    x and -x always share a colour; each round computes the signatures
    of x = 0..n//2 only and mirrors the rest.  There are at most n - 1
    rounds.
    """
    n, half, jumps = c.n, c.n // 2, c.jumps
    offsets = jumps + tuple(n - r for r in jumps if 2 * r != n)  # +-R
    b = len(offsets).bit_length()
    colours = [0] + [1] * (n - 1)
    classes = 2
    while True:
        fields = [1 << colour * b for colour in range(classes)]
        doubled = [fields[colour] for colour in colours] * 2
        own = classes * b
        signatures = list(
            map(
                sum,
                zip(
                    [colour << own for colour in colours[: half + 1]],
                    *[doubled[s : s + half + 1] for s in offsets],
                ),
            )
        )
        distinct = sorted(set(signatures))
        rank = {signature: i for i, signature in enumerate(distinct)}
        low = [rank[signature] for signature in signatures]
        colours = low + low[n - half - 1 : 0 : -1]
        yield tuple(distinct)
        if len(distinct) == classes:
            break
        classes = len(distinct)
    sizes = [0] * classes
    for colour in colours:
        sizes[colour] += 1
    yield tuple(sizes)


def parse_connection_sets(text: str) -> list[ConnectionSet]:
    """Parse the shared text format: one `n: r1,r2,...` per line, `#` comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            order_part, jumps_part = line.split(":", 1)
            n = int(order_part.strip())
            values = [int(v.strip()) for v in jumps_part.split(",") if v.strip()]
            out.append(ConnectionSet.reduce(n, values))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}") from exc
    return out
