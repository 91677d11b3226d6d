"""Hole-level results: gap intervals, Sturmian holes, the supercritical catalog.

A hole (a, b) is supercritical when any strictly larger hole leaves only the
fixed point and any strictly smaller hole leaves a set of positive Hausdorff
dimension.  All supercritical holes for the doubling map have an explicit
description: the degenerate family (alpha, 1/2) with alpha <= 1/4, holes of
length exactly 1/4 whose left endpoint is either 1/3, a Sturmian value
pi(01 s_inf) for an irrational slope, or one of the two rational gap
endpoints attached to each reduced p/q < 1/2, and the 0<->1 mirrors of all of
these.  test_supercritical() checks the defining property empirically by
classifying an enlarged and a shrunken copy of the hole.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .automaton import Hole
from .survivor import Kind, classify
from .words import (
    EvPeriodicWord,
    cf_of_fraction,
    characteristic_prefix,
    check_cf,
    convergents,
    standard_words,
)
from .rationals import pi_value

Bracket = tuple[Fraction, Fraction]
ONE_QUARTER = Fraction(1, 4)


class GapInterval(namedtuple("GapInterval", "cf alpha beta gamma p q")):
    """The interval [alpha, beta] of left endpoints excluded around p/q.

    alpha = pi(01 (s_n)^inf) and beta = pi(01 (s_{n-1}^{a_n - 1} s_{n-2}
    s_{n-1})^inf) for odd n (swapped for even n), where the s_k are the
    standard words of cf; gamma = beta + 1/4 closes the associated hole.
    ``cf`` is the digit tuple of the rational p/q.
    """

    __slots__ = ()


def gap_interval(cf) -> GapInterval:
    """Exact gap interval for a digit tuple with last entry >= 2."""
    cf = check_cf(cf, last_ge2=True)
    n = len(cf)
    words = standard_words(cf)
    s_n, s_nm1, s_nm2 = words[n + 1], words[n], words[n - 1]
    partner = s_nm1 * (cf[-1] - 1) + s_nm2 + s_nm1
    first = pi_value(EvPeriodicWord.make("01", s_n))
    second = pi_value(EvPeriodicWord.make("01", partner))
    alpha, beta = (first, second) if n % 2 == 1 else (second, first)
    p, q = convergents(cf)[-1]
    return GapInterval(cf, alpha, beta, beta + ONE_QUARTER, p, q)


class SturmianHoleBracket(namedtuple("SturmianHoleBracket",
                                     "cf_prefix left right precision_bits")):
    """Rational bracketing of the hole (pi(01 s_inf), pi(10 s_inf)).

    Both endpoints are irrational for irrational slopes; each bracket has
    width 2^-(precision_bits + 2) and the right endpoint exceeds the left by
    exactly 1/4, so right = left + 1/4 bracket-wise as well.  ``left`` and
    ``right`` are plain (lo, hi) tuples.
    """

    __slots__ = ()


def sturmian_hole(cf_prefix, precision_bits: int) -> SturmianHoleBracket:
    """Bracket the Sturmian hole determined by a characteristic-word prefix."""
    cf_prefix = check_cf(cf_prefix)
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    head = characteristic_prefix(cf_prefix, precision_bits)
    lo = Fraction(int("01" + head, 2), 1 << (len(head) + 2))
    hi = lo + Fraction(1, 1 << (len(head) + 2))
    return SturmianHoleBracket(
        cf_prefix, (lo, hi), (lo + ONE_QUARTER, hi + ONE_QUARTER), precision_bits
    )


class CatalogEntry(SimpleNamespace):
    """One supercritical hole; endpoints are exact rationals or plain (lo, hi)
    tuple brackets.

    The one mutable record: certify_entry sets ``certified`` and ``epsilon``.
    Its repr lists the fields in order.
    """

    def __init__(self, family: str, left: Fraction | Bracket, right: Fraction | Bracket,
                 parameter: dict, certified: bool | None = None,
                 epsilon: Fraction | None = None):
        super().__init__(family=family, left=left, right=right, parameter=parameter,
                         certified=certified, epsilon=epsilon)

    def mirror(self) -> "CatalogEntry":
        def flip(x):
            if isinstance(x, tuple):
                return (1 - x[1], 1 - x[0])
            return 1 - x

        return CatalogEntry(
            self.family + "-mirror", flip(self.right), flip(self.left),
            dict(self.parameter), self.certified, self.epsilon,
        )


def _entry_sort_key(entry: CatalogEntry):
    left = entry.left[0] if isinstance(entry.left, tuple) else entry.left
    return (left, entry.family)


def catalog(max_q: int, sturmian_samples=(),
            degenerate_samples: int = 9) -> list[CatalogEntry]:
    """The supercritical holes with gap parameters up to denominator max_q.

    Contains every gap-endpoint hole (alpha, alpha + 1/4) and (beta, beta +
    1/4) for reduced p/q < 1/2 with q <= max_q, the hole (1/3, 7/12), a
    sample of the degenerate continuum (alpha, 1/2) with alpha equally spaced
    in [0, 1/4], Sturmian holes for the requested slope prefixes bracketed
    to 30 bits, and the 0<->1 mirror of every entry.
    """
    if max_q < 2:
        raise ValueError("max_q must be >= 2")
    if degenerate_samples < 1:
        raise ValueError("degenerate_samples must be >= 1")
    entries: list[CatalogEntry] = []

    step = ONE_QUARTER / max(1, degenerate_samples - 1)
    for i in range(degenerate_samples):
        alpha = min(ONE_QUARTER, i * step)
        entries.append(CatalogEntry(
            "degenerate", alpha, Fraction(1, 2), {"alpha": str(alpha)}
        ))

    entries.append(CatalogEntry(
        "one-third", Fraction(1, 3), Fraction(7, 12), {"alpha": "1/3"}
    ))

    for q in range(3, max_q + 1):
        for p in range(1, (q - 1) // 2 + 1):
            if math.gcd(p, q) != 1:
                continue
            cf = cf_of_fraction(p, q)
            gap = gap_interval(cf)
            param = {"cf": list(cf), "p": p, "q": q}
            entries.append(CatalogEntry(
                "gap-alpha", gap.alpha, gap.alpha + ONE_QUARTER, dict(param)
            ))
            entries.append(CatalogEntry(
                "gap-beta", gap.beta, gap.gamma, dict(param)
            ))

    for cf in sturmian_samples:
        hole = sturmian_hole(cf, 30)
        entries.append(CatalogEntry(
            "sturmian", hole.left, hole.right,
            {"cf_prefix": list(hole.cf_prefix), "precision_bits": hole.precision_bits},
        ))

    entries.extend([e.mirror() for e in entries])
    unique: dict[tuple, CatalogEntry] = {}
    for e in entries:
        unique.setdefault((e.left, e.right), e)
    return sorted(unique.values(), key=_entry_sort_key)


class SupercriticalReport(namedtuple("SupercriticalReport", "outer inner epsilon")):
    """Classifications of the enlarged and shrunken holes; passed means the
    enlarged hole retains only the fixed point while the shrunken one keeps
    positive entropy.  ``outer`` and ``inner`` are Classifications."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (self.outer.kind is Kind.FIXED_ONLY
                and self.inner.kind is Kind.POSITIVE_ENTROPY)


def _endpoint_bracket(x) -> Bracket:
    if isinstance(x, tuple):
        lo, hi = Fraction(x[0]), Fraction(x[1])
        if lo > hi:
            raise ValueError(f"bracket out of order: {x}")
        return lo, hi
    x = Fraction(x)
    return x, x


def test_supercritical(left, right, epsilon: Fraction) -> SupercriticalReport:
    """Empirical supercriticality check at resolution epsilon.

    Endpoints may be exact rationals or (lo, hi) brackets; bracketed
    endpoints are widened outward for the enlarged hole and inward for the
    shrunken one, so a pass is conservative.  The enlarged hole is clamped to
    [0, 1].
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    left_lo, left_hi = _endpoint_bracket(left)
    right_lo, right_hi = _endpoint_bracket(right)
    inner_a = left_hi + epsilon
    inner_b = right_lo - epsilon
    if inner_a >= inner_b:
        raise ValueError(
            f"inner hole empty: ({inner_a}, {inner_b}) at epsilon {epsilon}"
        )
    outer_a = max(Fraction(0), left_lo - epsilon)
    outer_b = min(Fraction(1), right_hi + epsilon)
    outer = classify(Hole(outer_a, outer_b))
    inner = classify(Hole(inner_a, inner_b))
    return SupercriticalReport(outer, inner, epsilon)


def certify_entry(entry: CatalogEntry, epsilon: Fraction) -> SupercriticalReport:
    """Run test_supercritical on a catalog entry and record the verdict."""
    report = test_supercritical(entry.left, entry.right, epsilon)
    entry.certified = report.passed
    entry.epsilon = Fraction(epsilon)
    return report
