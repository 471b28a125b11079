"""Parametric families of Type-2 isomorphic circulant graphs.

Each generator substitutes its parameters into closed-form jump sets and
reduces them; the raw (pre-reduction) values are kept for display because
the formulas routinely exceed n/2 and reduction is where errors hide.
Generated instances are verified through the classification pipeline: the
residue-shift relation must hold at the advertised shifts, distinct sets
must lie in distinct multiplier orbits, and small orders also get the
independent oracle check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .adam import same_adam_orbit
from .graphs import ConnectionSet, build_edges
from .oracle import DEFAULT_CAP, are_isomorphic
from .theta import theta_image


@dataclass(frozen=True)
class FamilyInstance:
    """One generated instance: its sets, order, and expected shift witnesses."""

    kind: str  # 'm2' | 'm3' | 'm5' | 'm7' | 'scaled'
    order: int
    m: int
    params: dict
    sets: tuple[ConnectionSet, ...]
    raw_sets: tuple[tuple[int, ...], ...]
    expected_t: tuple[int, ...]
    degenerate: bool = False


@dataclass
class VerificationReport:
    """Outcome of pushing a family instance through the classifier."""

    instance: FamilyInstance
    ok: bool
    checks: list[tuple[str, bool]]
    oracle_checked: bool


def family_m2(n: int, s: int) -> FamilyInstance:
    """Order-8n pair {2, 2s-1, 4n-(2s-1)} / {2, 2n-(2s-1), 2n+2s-1}.

    Related by the residue-shift map at t = n and t = 3n (m = 2).  When
    n = 2s-1 both formulas name the same graph and the instance is flagged
    degenerate.
    """
    if n < 2:
        raise ValueError(f"parameter n must be >= 2, got {n}")
    odd = 2 * s - 1
    if not 1 <= odd <= 2 * n - 1:
        raise ValueError(f"need 1 <= 2s-1 <= 2n-1, got 2s-1={odd} for n={n}")
    order = 8 * n
    raw_r = (2, odd, 4 * n - odd)
    raw_s = (2, 2 * n - odd, 2 * n + odd)
    return FamilyInstance(
        kind="m2",
        order=order,
        m=2,
        params={"n": n, "s": s},
        sets=(ConnectionSet.reduce(order, raw_r), ConnectionSet.reduce(order, raw_s)),
        raw_sets=(raw_r, raw_s),
        expected_t=(n, 3 * n),
        degenerate=n == odd,
    )


def family_m3(n: int) -> FamilyInstance:
    """Order-27n three-cycle of quadruples stepped by t = n (m = 3)."""
    if n < 1:
        raise ValueError(f"parameter n must be >= 1, got {n}")
    order = 27 * n
    raw = (
        (1, 3, 9 * n - 1, 9 * n + 1),
        (3, 3 * n + 1, 6 * n - 1, 12 * n + 1),
        (3, 3 * n - 1, 6 * n + 1, 12 * n - 1),
    )
    return FamilyInstance(
        kind="m3",
        order=order,
        m=3,
        params={"n": n},
        sets=tuple(ConnectionSet.reduce(order, values) for values in raw),
        raw_sets=raw,
        expected_t=(n,),
    )


def _p_cycle_family(kind: str, p: int, n: int) -> FamilyInstance:
    """Order-p^3 n p-cycle stepped by t = n (m = p), for an odd prime p:
    R_i = {p, d_i, j*p^2*n -+ d_i for j = 1..(p-1)/2}, d_i = p*n*(i-1) + 1."""
    if n < 1:
        raise ValueError(f"parameter n must be >= 1, got {n}")
    order = p**3 * n
    raw = []
    for i in range(1, p + 1):
        d = p * n * (i - 1) + 1
        values = [p, d]
        for j in range(1, (p + 1) // 2):
            values += (j * p * p * n - d, j * p * p * n + d)
        raw.append(tuple(values))
    return FamilyInstance(
        kind=kind,
        order=order,
        m=p,
        params={"n": n},
        sets=tuple(ConnectionSet.reduce(order, values) for values in raw),
        raw_sets=tuple(raw),
        expected_t=(n,),
    )


def family_m5(n: int) -> FamilyInstance:
    """Order-125n five-cycle: R_i = {5, d_i, 25n+-d_i, 50n+-d_i}, d_i = 5n(i-1)+1."""
    return _p_cycle_family("m5", 5, n)


def family_m7(n: int) -> FamilyInstance:
    """Order-343n seven-cycle: R_i = {7, d_i, 49n+-d_i, 98n+-d_i, 147n+-d_i}."""
    return _p_cycle_family("m7", 7, n)


def scale_pair(r: ConnectionSet, s: ConnectionSet, k: int) -> tuple[ConnectionSet, ConnectionSet]:
    """Multiply every jump of a pair by k >= 2 and reduce at order k*n."""
    if r.n != s.n:
        raise ValueError(f"order mismatch: {r.n} vs {s.n}")
    if k < 2:
        raise ValueError(f"scale factor must be >= 2, got {k}")
    order = k * r.n
    return (
        ConnectionSet.reduce(order, [k * j for j in r.jumps]),
        ConnectionSet.reduce(order, [k * j for j in s.jumps]),
    )


def generate(kind: str, n: int, s: Optional[int] = None) -> FamilyInstance:
    """Dispatch a generator by kind name."""
    if kind == "m2":
        if s is None:
            raise ValueError("the m2 family needs the second parameter s")
        return family_m2(n, s)
    if kind == "m3":
        return family_m3(n)
    if kind == "m5":
        return family_m5(n)
    if kind == "m7":
        return family_m7(n)
    raise ValueError(f"unknown family kind {kind!r}")


def verify_instance(fi: FamilyInstance, oracle_cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check the advertised shift relations, orbit exclusion, and (when the
    order permits) independent isomorphism for one instance.

    Orbit exclusion and shift relations are exact at any order; only the
    oracle is skipped above its cap.
    """
    checks: list[tuple[str, bool]] = []
    sets = fi.sets
    count = len(sets)

    if fi.degenerate:
        checks.append(("degenerate: formulas name one graph", sets[0] == sets[-1]))
    else:
        for i in range(count):
            for j in range(i + 1, count):
                checks.append((f"sets {i} and {j} differ", sets[i] != sets[j]))

    if fi.kind == "m2":
        r, target = sets
        for t in fi.expected_t:
            res = theta_image(r, fi.m, t)
            checks.append((f"shift t={t} maps first set to second", res.image == target))
            back = theta_image(target, fi.m, t)
            checks.append((f"shift t={t} maps second set to first", back.image == r))
    else:
        step = fi.expected_t[0]
        for i in range(count):
            res = theta_image(sets[i], fi.m, step)
            expected = sets[(i + 1) % count]
            checks.append((f"shift t={step} maps set {i} to set {(i + 1) % count}", res.image == expected))

    if not fi.degenerate:
        for i in range(count):
            for j in range(i + 1, count):
                checks.append(
                    (
                        f"sets {i} and {j} in distinct multiplier orbits",
                        not same_adam_orbit(sets[i], sets[j]),
                    )
                )

    oracle_checked = False
    if fi.order <= oracle_cap and not fi.degenerate:
        oracle_checked = True
        for i in range(count - 1):
            iso = are_isomorphic(build_edges(sets[i]), build_edges(sets[i + 1]), cap=oracle_cap)
            checks.append((f"oracle confirms sets {i} and {i + 1} isomorphic", iso))

    return VerificationReport(
        instance=fi,
        ok=all(ok for _, ok in checks),
        checks=checks,
        oracle_checked=oracle_checked,
    )
