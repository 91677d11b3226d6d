"""Exact rational arithmetic for the doubling map.

Conversion between rationals in [0, 1] and eventually periodic binary
expansions, the map x -> 2x mod 1, and orbit computation with exact cycle
detection.  Everything here is integer/Fraction arithmetic; no floats.

The period of an expansion is the order of 2 modulo the odd part of the
denominator.  The last ``ORDER_CACHE_SIZE`` orders are memoised, so the two
endpoints of a hole with a shared odd part pay for one factorisation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .words import EvPeriodicWord


class BudgetExceededError(RuntimeError):
    """An iteration budget ran out before the computation finished.

    ``partial`` holds whatever was computed up to that point.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer) into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed fraction {text!r}") from exc


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def pi_value(w: EvPeriodicWord) -> Fraction:
    """Value sum_k w_k 2^{-k} of an eventually periodic binary word."""
    pre, per = w.preperiod, w.period
    m, p = len(pre), len(per)
    head = int(pre, 2) if pre else 0
    body = int(per, 2)
    return Fraction(head * ((1 << p) - 1) + body, (1 << m) * ((1 << p) - 1))


# Expansion budgets: trial division stops at this divisor, and no period
# longer than this many symbols is written out.
MAX_TRIAL_DIVISOR = 1 << 22
MAX_PERIOD = 1 << 20


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            raise BudgetExceededError(
                f"trial division of {n} passed {MAX_TRIAL_DIVISOR} without a factor"
            )
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# How many orders of 2 _multiplicative_order_of_two remembers.
ORDER_CACHE_SIZE = 64


@functools.lru_cache(maxsize=ORDER_CACHE_SIZE)
def _multiplicative_order_of_two(v: int) -> int:
    """Order of 2 modulo odd v >= 1.

    Memoised; a BudgetExceededError is not cached, so it is raised again on
    every call.
    """
    if v == 1:
        return 1
    if pow(2, v - 1, v) == 1:
        # the order divides v - 1, whether v is prime or a pseudoprime
        order = v - 1
        primes = _factorize(order)
    else:
        lam = 1
        for prime, k in _factorize(v).items():
            lam = math.lcm(lam, prime ** (k - 1) * (prime - 1))
        order = lam
        primes = _factorize(lam)
    for prime in primes:
        while order % prime == 0 and pow(2, order // prime, v) == 1:
            order //= prime
    return order


def binary_expansion(x: Fraction) -> EvPeriodicWord:
    """Binary expansion of a rational x in [0, 1): the one that never ends in
    (1)^inf, which is the lexicographically largest representation of x.

    The preperiod length is the 2-adic valuation of the denominator and the
    period length is the multiplicative order of 2 modulo its odd part, so no
    digit-by-digit division is needed.  A denominator whose odd part needs a
    trial divisor above ``MAX_TRIAL_DIVISOR``, or whose period is longer than
    ``MAX_PERIOD`` symbols, raises BudgetExceededError.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if not 0 <= p < q:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    u = (q & -q).bit_length() - 1  # 2-adic valuation of q
    v = q >> u
    pre = format((p << u) // q, f"0{u}b") if u else ""
    try:
        t = _multiplicative_order_of_two(v)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"period of denominator {q}: {exc}") from exc
    if t > MAX_PERIOD:
        raise BudgetExceededError(
            f"denominator {q} has a period of {t} symbols, above {MAX_PERIOD}"
        )
    body = ((p % v) << t) // v
    return EvPeriodicWord(pre, format(body, f"0{t}b"))


lex_max_expansion = binary_expansion


def lex_min_expansion(x: Fraction) -> EvPeriodicWord:
    """The lexicographically smallest binary representation of x in [0, 1].

    It differs from binary_expansion only for dyadic x > 0 and for x = 1,
    where it is the representation ending in (1)^inf; its period "1" marks
    it as non-canonical.
    """
    if x == 1:
        return EvPeriodicWord("", "1")
    w = binary_expansion(x)
    if w.period == "0" and w.preperiod:
        # dyadic x = p/2^u > 0: the preperiod ends with 1 since p is odd
        return EvPeriodicWord(w.preperiod[:-1] + "0", "1")
    return w


def doubling_map(x: Fraction) -> Fraction:
    """2x mod 1 on [0, 1)."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    y = 2 * x
    return y - 1 if y >= 1 else y


@dataclass(frozen=True)
class OrbitResult:
    """Forward orbit of a rational split at the first repeated point."""

    transient: tuple[Fraction, ...]
    cycle: tuple[Fraction, ...]

    @property
    def cycle_length(self) -> int:
        return len(self.cycle)


def orbit(x: Fraction, max_steps: int = 100_000) -> OrbitResult:
    """Orbit of x under 2x mod 1 until the first exact repeat.

    Rational orbits always close; if no repeat shows up within ``max_steps``
    a BudgetExceededError carries the transient computed so far.
    """
    x = Fraction(x)
    seen: dict[Fraction, int] = {}
    points: list[Fraction] = []
    cur = x
    for _ in range(max_steps + 1):
        if cur in seen:
            k = seen[cur]
            return OrbitResult(tuple(points[:k]), tuple(points[k:]))
        seen[cur] = len(points)
        points.append(cur)
        cur = doubling_map(cur)
    raise BudgetExceededError(
        f"orbit of {x} did not close within {max_steps} steps", partial=tuple(points)
    )
