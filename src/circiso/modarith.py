"""Exact modular arithmetic over Z_n: reflexive reduction and divisors.

Every value handled here is a plain Python int; all functions are pure and
total unless stated otherwise.  "Reflexive" reduction folds residues above
n/2 onto their mirror image n - v, so results always land in [0, n//2].
"""

from __future__ import annotations


class DegenerateSetError(ValueError):
    """Raised when a jump set reduces to nothing (an edgeless graph)."""


def reflexive_reduce(n: int, v: int) -> int:
    """Reduce v mod n, then fold values above n/2 down to n - v.

    Accepts any integer (negatives use mathematical mod).  Returns a value
    in [0, n//2]; the result is 0 only when v is a multiple of n.
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    w = v % n
    if 2 * w > n:
        w = n - w
    return w


def reduce_set(n: int, values) -> tuple[int, ...]:
    """Reflexively reduce a collection of jumps: drop zeros, dedupe, sort.

    Raises DegenerateSetError when everything reduces to 0, since an
    edgeless graph has no meaning for classification.
    """
    reduced = {reflexive_reduce(n, v) for v in values}
    reduced.discard(0)
    if not reduced:
        raise DegenerateSetError(f"all of {list(values)} reduce to 0 mod {n}")
    return tuple(sorted(reduced))


def divisors_gt1(k: int) -> list[int]:
    """Divisors of k strictly greater than 1, ascending (empty for k = 1)."""
    if k < 1:
        raise ValueError(f"expected a positive integer, got {k}")
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d * d != k:
                large.append(k // d)
        d += 1
    divs = small + large[::-1]
    return [d for d in divs if d > 1]
