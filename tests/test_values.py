"""The library's result types: immutable named tuples and one mutable record."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dbhole
from dbhole.automaton import Hole, build_automaton
from dbhole.holes import catalog, certify_entry, gap_interval, sturmian_hole
from dbhole.holes import test_supercritical as run_supercritical
from dbhole.survivor import classify, is_trap
from dbhole.words import EvPeriodicWord

F = Fraction
SRC = Path(dbhole.__file__).resolve().parent.parent
MIDDLE = Hole(F(1, 3), F(2, 3))
# one value of each immutable result type
MAKERS = {
    "Hole": lambda: MIDDLE,
    "SurvivorAutomaton": lambda: build_automaton(MIDDLE),
    "Classification": lambda: classify(MIDDLE),
    "TrapReport": lambda: is_trap(F(1, 3), F(2, 3)),
    "EvPeriodicWord": lambda: EvPeriodicWord.make("0", "01"),
    "GapInterval": lambda: gap_interval((2,)),
    "SturmianHoleBracket": lambda: sturmian_hole((1, 1), 10),
    "SupercriticalReport": lambda: run_supercritical(F(1, 3), F(7, 12), F(1, 64)),
}


@pytest.mark.parametrize("name", MAKERS)
def test_result_types_reject_attribute_assignment(name):
    value = MAKERS[name]()
    assert type(value).__name__ == name
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.note = "no new attributes either"


def test_results_unpack_and_compare_as_tuples():
    a, b = MIDDLE
    assert (a, b) == MIDDLE == (F(1, 3), F(2, 3))
    assert classify(MIDDLE)[:3] == ("CountableCycles", ("01",), True)


def test_hole_coerces_ints_and_strings():
    hole = Hole(0, "1/2")
    assert hole == Hole(F(0), F(1, 2))
    assert type(hole.a) is Fraction and type(hole.b) is Fraction
    assert str(Hole("1/3", "2/3")) == "(1/3, 2/3)"
    for a, b in [(F(2, 3), F(1, 3)), ("1/3", "1/3"), (-1, F(1, 2)), (0, 2)]:
        with pytest.raises(ValueError, match="need 0 <= a < b <= 1"):
            Hole(a, b)
    with pytest.raises(ValueError, match=r"got \(<15001-bit integer>/<15001-bit integer>, 1\)"):
        Hole(F(2**15000 + 1, 2**15000), 1)


def test_catalog_entry_is_mutable_with_a_field_repr():
    entry = next(e for e in catalog(3) if e.family == "one-third")
    assert repr(entry) == ("CatalogEntry(family='one-third', left=Fraction(1, 3), "
                           "right=Fraction(7, 12), parameter={'alpha': '1/3'}, "
                           "certified=None, epsilon=None)")
    certify_entry(entry, F(1, 64))
    assert (entry.certified, entry.epsilon) == (True, F(1, 64))
    entry.certified = None
    assert entry.certified is None


def test_bracket_checks_see_only_fractions_and_plain_tuples():
    # holes._endpoint_bracket, CatalogEntry.mirror and cli._endpoint_json take
    # any tuple for a (lo, hi) bracket, so no result type may reach them
    entries = catalog(7, sturmian_samples=[(1, 1), (2, 3)])
    endpoints = [x for e in entries for x in (e.left, e.right)]
    hole = sturmian_hole((1, 2), 20)
    endpoints += [hole.left, hole.right]
    assert {type(x) for x in endpoints} == {Fraction, tuple}
    assert all(type(v) is Fraction for x in endpoints if type(x) is tuple for v in x)


def fresh_import(code):
    """stdout of a ``python -S`` process that imports dbhole from this
    checkout's src/ and then runs ``code``."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); import dbhole, dbhole.cli; "
    done = subprocess.run([sys.executable, "-S", "-c", prelude + code],
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    loaded = fresh_import("print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert loaded.strip() == "[]"


def test_catalog_repr_is_equal_across_fresh_imports():
    code = "from dbhole.holes import catalog; print(repr(catalog(5)))"
    first, again = fresh_import(code), fresh_import(code)
    assert first == again == repr(catalog(5)) + "\n"
