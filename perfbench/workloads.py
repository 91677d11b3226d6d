"""Seeded workload generation.

Every generator is a pure function of the seed: the same seed gives the
same units in the same order, and the library only receives the generated
holes.  The one library call made here is ``catalog`` for ``ladder``, whose
entries are the paper's holes.  A *unit* is one call the harness makes; it
performs one or more *ops* (classify calls, cylinder-vs-automaton checks,
is_trap calls).

Inputs are stratified so that two seeds give workloads of about the same
cost: each seeded hole is drawn from its own stratum of denominator or width,
so run-to-run spreads measure the program, not the luck of the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 1

# The four fixed holes of benchmarks/bench_kernels.py, as (pa, qa, pb, qb).
KERNEL_CASES = [(0, 1, 1, 4), (1, 3, 2, 3), (21, 50, 29, 50), (17, 50, 33, 50)]

CATALOG_MAX_Q = 20
CATALOG_EPSILON = Fraction(1, 1024)
BISECT_BITS = 24
SCAN_BITS = 10
CYLINDER_DEPTH = 16
THIN_FIXED = (1067, 3203)


@dataclass(frozen=True)
class Unit:
    """One harness call: ``kind`` selects the executor, ``args`` its inputs."""

    kind: str  # certify | bisect | scan | wide | thin | cylinder | trap
    args: tuple
    ops: int = 1


@dataclass
class Workload:
    name: str
    units: list[Unit]
    denominators: list[int] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(u.ops for u in self.units)

    def describe(self) -> str:
        """Input size: op count, denominator range and longest endpoint expansion."""
        qs = self.denominators
        return (f"{self.name}: {len(self.units)} units, {self.ops} ops, "
                f"q in [{min(qs)}, {max(qs)}], "
                f"max expansion length {max(expansion_length(q) for q in qs)}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> set[int]:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def order_of_two(q: int) -> int:
    """Multiplicative order of 2 modulo odd q > 1."""
    order = q - 1 if _is_prime(q) else next(t for t in range(1, q) if pow(2, t, q) == 1)
    for r in _prime_factors(order):
        while order % r == 0 and pow(2, order // r, q) == 1:
            order //= r
    return order


def expansion_length(q: int) -> int:
    """Preperiod plus period of the binary expansion of p/q in lowest terms."""
    pre = (q & -q).bit_length() - 1
    odd = q >> pre
    return pre + (1 if odd == 1 else order_of_two(odd))


def _primes_with_order(lo: int, hi: int, wanted) -> list[int]:
    return [q for q in range(lo | 1, hi, 2) if _is_prime(q) and wanted(q, order_of_two(q))]


def ladder(seed: int, catalog) -> Workload:
    """catalog(20) certified at 2^-10, bisection to 2^-24, symmetric scan at 2^-10.

    The seed only shuffles the unit order, so a cache that depends on call
    order shows up as a spread between seeds.
    """
    entries = catalog(CATALOG_MAX_Q)
    units = [Unit("certify", (e,), 2) for e in entries]
    # classify at both ends of the seed bracket, then one per halving of 1/16
    units.append(Unit("bisect", (BISECT_BITS,), 2 + BISECT_BITS - 4))
    n = 1 << SCAN_BITS
    units += [Unit("scan", (Fraction(k, n),)) for k in range(n // 4, n // 2)]
    random.Random(f"ladder:{seed}").shuffle(units)
    qs = sorted({x.denominator for e in entries for x in (e.left, e.right)}
                | {n, 1 << BISECT_BITS})
    return Workload("ladder", units, qs)


def long_period(seed: int, catalog=None) -> Workload:
    """40 wide holes p/q with prime q in [4000, 20000) and ord_q(2) = (q-1)/2.

    One hole per denominator stratum of width 400.  Even strata give symmetric
    holes (a, 1-a) with 1/4 <= a <= 3/8; odd strata give asymmetric holes with
    max(a, 1-b) <= 2/5 and b - a >= 1/4.  Both contain a symmetric hole whose
    parameter is below the entropy transition a* ~ 0.4125, so the survivor set
    has zero entropy and Perron never runs.  Holding the order at (q-1)/2
    bounds the endpoint period, and with it the build's memory, by 10^4.
    """
    rng = random.Random(f"long-period:{seed}")
    units, qs = [], []
    for i in range(40):
        cands = _primes_with_order(4000 + 400 * i, 4400 + 400 * i,
                                   lambda q, t: 2 * t == q - 1)
        q = rng.choice(cands)
        if i % 2 == 0:
            k = rng.randint(-(-q // 4), 3 * q // 8)
            a, b = Fraction(k, q), Fraction(q - k, q)
        else:
            ka = rng.randint(q // 5 + 1, 2 * q // 5)
            kb = rng.randint(max(-(-3 * q // 5), ka + -(-q // 4)), 4 * q // 5)
            a, b = Fraction(ka, q), Fraction(kb, q)
        units.append(Unit("wide", (a, b)))
        qs.append(q)
    return Workload("long-period", units, qs)


# Denominator targets spaced geometrically over [500, 2000); each seeded
# thin hole takes one of the first three primes at or above its target with
# 2 as a primitive root, so its automaton has about 2q states.
THIN_TARGETS = (500, 630, 794, 1000, 1260, 1587)


def thin(seed: int, catalog=None) -> Workload:
    """Six seeded thin holes (k/q, (k+1)/q), q/4 < k < q/2, plus (1067/3203, 1068/3203)."""
    rng = random.Random(f"thin:{seed}")
    units, qs = [], []
    for target in THIN_TARGETS:
        cands = _primes_with_order(target, target + 200, lambda q, t: t == q - 1)[:3]
        q = rng.choice(cands)
        k = rng.randint(q // 4 + 1, (q - 1) // 2)
        units.append(Unit("thin", (Fraction(k, q), Fraction(k + 1, q))))
        qs.append(q)
    k, q = THIN_FIXED
    units.append(Unit("thin", (Fraction(k, q), Fraction(k + 1, q))))
    qs.append(q)
    return Workload("thin", units, qs)


def _random_fraction(rng, lo: Fraction, hi: Fraction, max_q: int) -> Fraction:
    """A fraction with denominator <= max_q drawn from the open interval (lo, hi)."""
    while True:
        q = rng.randint(2, max_q)
        p_lo, p_hi = math.floor(lo * q) + 1, math.ceil(hi * q) - 1
        if p_lo <= p_hi:
            return Fraction(rng.randint(p_lo, p_hi), q)


def oracle(seed: int, catalog=None) -> Workload:
    """Cylinder oracle at depth 16 on 48 seeded holes plus the four kernel cases,
    and is_trap on [1/3, 2/3] plus 30 seeded closed intervals around 1/2.

    Cylinder cost falls as the hole widens, so hole i has its width in the
    i-th of 48 equal strata of (0, 3/4].  At equal width the cost still varies
    by a third with the hole's position, so the left end a of hole i lies in
    the (i mod 4)-th quarter of the room left for it, and there are 48 holes
    rather than 24: the median op is then an order statistic of many similar
    checks and moves little from seed to seed.

    Trap interval j has its width in the j-th of 30 equal strata of (0, 1/3]:
    intervals wider than about 0.28 are traps, whose certificate costs far
    more than a short escape witness, and this keeps them to about one in six.
    The other intervals return in well under a millisecond; keeping them to
    about 25 of the 83 ops keeps the median op among the cylinder checks.
    """
    rng = random.Random(f"oracle:{seed}")
    units, qs = [], []
    for i in range(48):
        w_lo, w_hi = Fraction(i, 64), Fraction(i + 1, 64)
        room = (1 - w_hi) / 4
        a = _random_fraction(rng, i % 4 * room, (i % 4 + 1) * room, 64)
        b = _random_fraction(rng, a + w_lo, a + w_hi, 64)
        units.append(Unit("cylinder", (a, b)))
        qs += [a.denominator, b.denominator]
    for pa, qa, pb, qb in KERNEL_CASES:
        units.append(Unit("cylinder", (Fraction(pa, qa), Fraction(pb, qb))))
        qs += [qa, qb]
    half = Fraction(1, 2)
    units.append(Unit("trap", (Fraction(1, 3), Fraction(2, 3))))
    step = Fraction(1, 90)
    for j in range(30):
        w = _random_fraction(rng, j * step, (j + 1) * step, 128)
        c = _random_fraction(rng, half - w, half, 128)
        d = _random_fraction(rng, c + w, c + w + step, 128)
        units.append(Unit("trap", (c, d)))
        qs += [c.denominator, d.denominator]
    return Workload("oracle", units, qs)


GENERATORS = {"ladder": ladder, "long-period": long_period, "thin": thin, "oracle": oracle}


def generate(name: str, seed: int, catalog) -> Workload:
    return GENERATORS[name](seed, catalog)
