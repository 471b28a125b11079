"""Circulant graphs as explicit edge sets over Z_n.

A circulant graph is named by its order n and a reduced jump set
R subseteq [1, n//2]: vertex x is joined to x +- r (mod n) for every r in R.
This module materialises such graphs, recognises whether an arbitrary edge
set is circulant, and computes the two invariants that bucket the CI
census: a prefix of the closed-walk counts and the rooted
colour-refinement key.
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


WALK_PREFIX = 8  # closed-walk lengths in `closed_walk_prefix`


def closed_walk_prefix(c: ConnectionSet) -> tuple[int, ...]:
    """The numbers W_1..W_K of closed walks of length k from vertex 0 of
    C_n(R), K = WALK_PREFIX, by Kronecker packing.

    Walks from 0 of length k to j are the coefficient of x^j in P(x)^k
    mod x^n - 1, P the sum of x^s over s in +-R.  Each coefficient sits in
    a field of w bits of one integer, and a step multiplies by P packed
    the same way, then folds mod x^n - 1 as (v & mask) + (v >> n*w).
    W_k is the low field after step k.

    Invariance: W_k = (A^k)_00 = tr(A^k)/n, as rotations carry 0 to every
    vertex, and an isomorphism taken to fix 0 carries closed walks at 0
    onto closed walks at 0.  Exactness: with d = |+-R|, every coefficient
    before and after the fold counts walks of length k <= K, so it is at
    most d^k < 2^w and no carry crosses into the next field; the product
    has degree < 2n - 1, so one fold reduces it.
    """
    n, sym = c.n, c.symmetric_jumps()
    w = (len(sym) ** WALK_PREFIX).bit_length() + 1
    step = sum(1 << s * w for s in sym)
    shift = n * w
    mask, field = (1 << shift) - 1, (1 << w) - 1
    walks, counts = 1, []
    for _ in range(WALK_PREFIX):
        walks *= step
        walks = (walks & mask) + (walks >> shift)
        counts.append(walks & field)
    return tuple(counts)


def rooted_refinement_key(c: ConnectionSet) -> tuple:
    """Colour refinement of C_n(R) with vertex 0 individualised, as a key.

    Vertex 0 starts with colour 0 and every other vertex with colour 1.
    Each round gives vertex x the signature (colour of x, sorted colours
    of x + s for s in +-R) and renames the colours by the rank of each
    signature among the round's sorted distinct signatures.  A vertex's
    signature begins with its own colour, so the classes only ever split,
    and the rounds stop when their number stops growing.  The key is the
    tuple of each round's sorted distinct signatures, plus the final class
    sizes.  Vertex 0 keeps colour 0 throughout, since its signature sorts
    first.

    Isomorphic circulants have equal keys.  Proof: let phi be an
    isomorphism from C_n(R) onto C_n(S).  Rotation by -phi(0) is an
    automorphism of C_n(S), so we may take phi(0) = 0; then the starting
    colours satisfy colour_S(phi(x)) = colour_R(x).  If that holds before
    a round, phi maps the neighbours of x onto those of phi(x), so x and
    phi(x) get equal signatures, each round has the same sorted distinct
    signatures on both sides, and the ranks agree again.  The two
    refinements therefore stop at the same round with equal keys, and
    phi carries each final class onto one of the same size.

    The key refines the closed-walk counts W_k from vertex 0 at every
    length k, so also `closed_walk_prefix` (the suites in `tests/` check
    this).  The last round splits no class, so all vertices of a class
    have the same number of neighbours in each class: the final
    partition is equitable, with {0} a class of its own, and the last
    round's signatures give its quotient matrix Q.  Walks from 0 project
    onto walks of Q from the class of 0, so W_k = (Q^k)_00, and equal
    keys give equal walk counts.

    Negation is an automorphism that fixes 0, so by the same induction
    x and -x always share a colour; each round computes the signatures
    of x = 0..n//2 only and mirrors the rest.  A round sorts n//2 + 1
    signatures of |+-R| + 1 colours, and there are at most n - 1 rounds.
    """
    n, half = c.n, c.n // 2
    sym = c.symmetric_jumps()
    colours = [0] + [1] * (n - 1)
    rounds = []
    classes = 2
    while True:
        doubled = colours + colours
        around = zip(*[doubled[s : s + half + 1] for s in sym])
        signatures = [(own, tuple(sorted(nbrs))) for own, nbrs in zip(colours, around)]
        distinct = sorted(set(signatures))
        rank = {signature: i for i, signature in enumerate(distinct)}
        low = [rank[signature] for signature in signatures]
        colours = low + low[n - half - 1 : 0 : -1]
        rounds.append(tuple(distinct))
        if len(distinct) == classes:
            break
        classes = len(distinct)
    sizes = [0] * classes
    for colour in colours:
        sizes[colour] += 1
    return tuple(rounds), tuple(sizes)


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
