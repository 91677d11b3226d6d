"""Exact rational arithmetic for the doubling map.

Conversion between rationals in [0, 1] and eventually periodic binary
expansions.  Everything here is integer/Fraction arithmetic; no floats.

The period of an expansion is the order of 2 modulo the odd part of the
denominator.  The last ``ORDER_CACHE_SIZE`` orders are memoised, so holes
built again over the same denominators (a catalog and its certification, a
bisection) pay for one factorisation of each.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction

from .words import EvPeriodicWord


class BudgetExceededError(RuntimeError):
    """An iteration budget ran out before the computation finished.

    ``partial`` holds whatever was computed up to that point.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def int_max_str_digits() -> int:
    """The most digits Python converts between int and str, 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q", an integer or a decimal, not "1e-N", into a Fraction.

    Fraction("1e-N") builds 10^N exactly, minutes at N = 10^8.  The error
    echoes at most the first 40 characters, and names the cause when a number
    has more digits than Python converts from a string
    (``sys.get_int_max_str_digits``).
    """
    try:
        if "e" in text or "E" in text:
            raise ValueError("exponent notation")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        digits = max(map(len, re.findall(r"[0-9]+", text)), default=0)
        limit = int_max_str_digits()
        why = (f": a number has {digits} digits, more than the {limit} Python converts from a string"
               if 0 < limit < digits else "")
        raise ValueError(f"malformed fraction {shown}{why}") from exc


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def format_short(x: int | Fraction) -> str:
    """str(x) for a message, with each integer of more than 332 bits (over
    100 digits) written as its bit length.

    Python refuses to write an int of more than 4,300 digits in decimal, so
    a message that printed one would raise ValueError in place of its own
    error.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return format_short(x.numerator)
        return f"{format_short(x.numerator)}/{format_short(x.denominator)}"
    if x.bit_length() > 332:
        return f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"
    return str(x)


def pi_value(w: EvPeriodicWord) -> Fraction:
    """Value sum_k w_k 2^{-k} of an eventually periodic binary word."""
    pre, per = w.preperiod, w.period
    m, p = len(pre), len(per)
    head = int(pre, 2) if pre else 0
    body = int(per, 2)
    return Fraction(head * ((1 << p) - 1) + body, (1 << m) * ((1 << p) - 1))


# Expansion budgets: trial division stops at this divisor, no period longer
# than this many symbols is written out, and no modular power of 2 is taken
# modulo an odd part wider than this many bits.
MAX_TRIAL_DIVISOR = 1 << 22
MAX_PERIOD = 1 << 20
MAX_ODD_BITS = 4096


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            raise BudgetExceededError(
                f"trial division of {format_short(n)} passed {MAX_TRIAL_DIVISOR} without a factor"
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
    every call.  A v wider than ``MAX_ODD_BITS`` bits raises it before any
    modular power.
    """
    if v.bit_length() > MAX_ODD_BITS:
        raise BudgetExceededError(f"odd part has {v.bit_length()} bits, above {MAX_ODD_BITS}")
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
    digit-by-digit division is needed.  A denominator whose odd part is wider
    than ``MAX_ODD_BITS`` bits or needs a trial divisor above
    ``MAX_TRIAL_DIVISOR``, or whose period is longer than ``MAX_PERIOD``
    symbols, raises BudgetExceededError.
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
        raise BudgetExceededError(f"period of denominator {format_short(q)}: {exc}") from exc
    if t > MAX_PERIOD:
        raise BudgetExceededError(
            f"denominator {format_short(q)} has a period of {format_short(t)} symbols, "
            f"above {MAX_PERIOD}"
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
