"""Combinatorics on 0-1 words.

Standard words built from continued-fraction digits, characteristic-word
prefixes, rotation extremes and the Thue-Morse word.  Finite words are plain
strings over "01"; infinite eventually periodic words are
:class:`EvPeriodicWord` values.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

MAX_WORD_LENGTH = 1 << 20  # longest word a builder returns; none builds one twice as long


def check_word(w: str) -> str:
    """Validate a finite 0-1 word."""
    if w.strip("01"):  # a symbol other than 0 and 1 stops the strip from either end
        raise ValueError(f"not a 0-1 word: {w!r}")
    return w


def check_cf(cf, last_ge2: bool = False) -> tuple[int, ...]:
    """Validate a tuple of continued-fraction digits (a_1, ..., a_n).

    The tuple encodes the continued fraction [a_1 + 1, a_2, ..., a_n] of a
    rational in (0, 1/2).  All entries must be >= 1; gap-interval callers
    additionally require a_n >= 2 so that every rational has a unique tuple.
    """
    cf = tuple(cf)
    if not cf:
        raise ValueError("continued-fraction tuple must be nonempty")
    if any(not isinstance(a, int) or isinstance(a, bool) or a < 1 for a in cf):
        raise ValueError(f"continued-fraction entries must be integers >= 1, got {cf}")
    if last_ge2 and cf[-1] < 2:
        raise ValueError(f"last continued-fraction entry must be >= 2, got {cf}")
    return cf


def convergents(cf) -> list[tuple[int, int]]:
    """Convergents p_k/q_k of [a_1+1, a_2, ..., a_k] for k = 1..n."""
    cf = check_cf(cf)
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    out = []
    for k, a in enumerate(cf):
        c = a + 1 if k == 0 else a
        p_prev, p_cur = p_cur, c * p_cur + p_prev
        q_prev, q_cur = q_cur, c * q_cur + q_prev
        out.append((p_cur, q_cur))
    return out


def cf_of_fraction(p: int, q: int) -> tuple[int, ...]:
    """Digit tuple (a_1, ..., a_n) with a_n >= 2 for a rational p/q in (0, 1/2).

    Inverse of ``convergents``: the returned tuple has final convergent p/q.
    Euclid's last quotient den // num has num | den and num < den, so it is >= 2.
    """
    if q <= 0 or p <= 0 or 2 * p >= q:
        raise ValueError(f"need 0 < p/q < 1/2, got {p}/{q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not in lowest terms")
    digits = []
    num, den = p, q
    while num:
        c = den // num
        digits.append(c)
        den, num = num, den - c * num
    return (digits[0] - 1,) + tuple(digits[1:])


def _check_length(length: int) -> None:
    """Refuse a word of ``length`` symbols past MAX_WORD_LENGTH, before it is built."""
    if length > MAX_WORD_LENGTH:
        from .rationals import format_short  # rationals imports this module
        raise ValueError(f"word needs {format_short(length)} symbols, "
                         f"above the cap of {MAX_WORD_LENGTH}")


def standard_words(cf) -> list[str]:
    """The recursion s_{-1}=1, s_0=0, s_{k+1} = s_k^{a_{k+1}} s_{k-1}.

    Returns [s_{-1}, s_0, s_1, ..., s_n] for cf = (a_1, ..., a_n).  The word
    s_k has length q_k and 1-count p_k, the k-th convergent of cf.  A word
    longer than MAX_WORD_LENGTH is refused before it is built.
    """
    cf = check_cf(cf)
    words = ["1", "0"]
    for a in cf:
        _check_length(a * len(words[-1]) + len(words[-2]))
        words.append(words[-1] * a + words[-2])
    return words


def characteristic_prefix(cf, length: int, extend: bool = True) -> str:
    """First ``length`` symbols of the characteristic word lim s_n.

    Since s_{k+1} = s_k^{a_{k+1}} s_{k-1} begins with s_k^{a_{k+1}}, the
    prefix is read off the first s_k whose a_{k+1} copies cover it, so it
    costs O(length) symbols whatever the digits.  With ``extend`` the given
    tuple is padded with trailing 1s until the last standard word is long
    enough; padding never changes symbols that the given digits already
    determine.
    """
    cf = check_cf(cf)
    if length < 1:
        raise ValueError("length must be positive")
    _check_length(length)
    prev, cur = "1", "0"
    for a in itertools.chain(cf, itertools.repeat(1)) if extend else cf:
        if a * len(cur) >= length:
            return (cur * -(-length // len(cur)))[:length]
        prev, cur = cur, cur * a + prev
    if len(cur) < length:
        raise ValueError(f"prefix of length {length} unreachable from {cf} without extension")
    return cur[:length]


def thue_morse(length: int) -> str:
    """Prefix of the fixed point of 0 -> 01, 1 -> 10 starting with 0."""
    if length < 1:
        raise ValueError("length must be positive")
    _check_length(length)
    w = "0"
    while len(w) < length:
        w += "".join("1" if c == "0" else "0" for c in w)
    return w[:length]


def cyclic_extremes(w: str) -> tuple[str, str]:
    """Lexicographic minimum and maximum among all rotations of ``w``.

    Rotations are compared as |w|-periodic infinite words, so equal rotations
    of a non-primitive word tie rather than being ordered by accident.
    """
    w = check_word(w)
    if not w:
        raise ValueError("word must be nonempty")
    rots = [w[i:] + w[:i] for i in range(len(w))]
    return min(rots), max(rots)


class EvPeriodicWord(namedtuple("EvPeriodicWord", "preperiod period")):
    """Eventually periodic 0-1 sequence  preperiod (period)^inf.

    Values built through :meth:`make` are canonical: the period is primitive,
    the preperiod cannot be shortened by rotating the period into it, and a
    trailing (1)^inf is carried over into the (0)^inf form.  The raw
    constructor skips canonicalization; it is used for the deliberate
    (1)^inf-tail representations of dyadic rationals.
    """

    __slots__ = ()

    @classmethod
    def make(cls, preperiod: str, period: str) -> "EvPeriodicWord":
        pre = check_word(preperiod)
        per = check_word(period)
        if not per:
            raise ValueError("period must be nonempty")
        per = per[:(per + per).find(per, 1)]
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        if per == "1":
            if not pre:
                raise ValueError("(1)^inf is the formal expansion of 1; not canonical")
            # pre ends with 0 here, else it would have been absorbed
            pre, per = pre[:-1] + "1", "0"
            while pre and pre[-1] == per[-1]:
                pre = pre[:-1]
        return cls(pre, per)

    def sym(self, i: int) -> str:
        """Symbol at 0-based position i of the infinite word."""
        m = len(self.preperiod)
        if i < m:
            return self.preperiod[i]
        return self.period[(i - m) % len(self.period)]

    def prefix(self, length: int) -> str:
        m = len(self.preperiod)
        if length <= m:
            return self.preperiod[:length]
        reps = (length - m) // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:length]

    def shift(self) -> "EvPeriodicWord":
        """Drop the first symbol (canonical words only)."""
        if self.preperiod:
            return EvPeriodicWord.make(self.preperiod[1:], self.period)
        return EvPeriodicWord.make("", self.period[1:] + self.period[0])

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"
