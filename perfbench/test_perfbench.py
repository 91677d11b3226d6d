"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q

They run small slices of each workload, so they take a few seconds.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads as wl


@pytest.fixture(scope="module")
def lib():
    return run.Library()


@pytest.fixture(scope="module")
def record():
    return run.load_record()


def _slice(work: wl.Workload, units) -> wl.Workload:
    return wl.Workload(work.name, list(units), work.denominators)


def _cheapest(lib, name: str, count: int) -> wl.Workload:
    """The default-seed workload cut to a few quick units (smallest denominators)."""
    work = wl.generate(name, wl.DEFAULT_SEED, lib.holes.catalog)
    cost = lambda u: max((x.denominator for x in u.args if isinstance(x, Fraction)),
                         default=0)
    quick = sorted((u for u in work.units if u.kind not in ("certify", "bisect")), key=cost)
    if name == "ladder":
        quick = [u for u in work.units if u.kind in ("certify", "bisect")][:2] + quick
    return _slice(work, quick[:count])


@pytest.mark.parametrize("name", list(wl.GENERATORS))
def test_generation_is_a_function_of_the_seed(lib, name):
    first = wl.generate(name, 7, lib.holes.catalog)
    again = wl.generate(name, 7, run.Library().holes.catalog)
    other = wl.generate(name, 8, lib.holes.catalog)
    # a fresh import has fresh classes, so compare the printed form
    assert repr(first.units) == repr(again.units)
    assert first.describe() == again.describe()
    assert repr(first.units) != repr(other.units)
    assert first.ops == other.ops


def test_workload_sizes(lib):
    sizes = {name: wl.generate(name, 3, lib.holes.catalog).ops for name in wl.GENERATORS}
    assert sizes == {"ladder": 822, "long-period": 40, "thin": 7, "oracle": 83}


@pytest.mark.parametrize("name", list(wl.GENERATORS))
def test_recorded_answers_pass_and_a_tampered_one_fails(lib, record, name):
    work = _cheapest(lib, name, 4)
    answers = record[name]
    clean = run.run_pass(lib, work, answers)
    keys = [op.key for op in clean.ops if op.key in answers]
    assert keys, "the slice must meet recorded answers"
    assert not any(op.failed for op in clean.ops)

    tampered = copy.deepcopy(answers)
    entry = tampered[keys[0]]
    field = next(iter(entry))
    entry[field] = "tampered"
    bad = run.run_pass(lib, work, tampered)
    failed = sum(op.failed for op in bad.ops)
    assert 0 < failed / len(bad.ops)


def test_entropy_bracket_need_only_overlap_the_record():
    recorded = {"kind": "PositiveEntropy", "entropy": [0.5, 0.5 + 5e-11]}
    shifted = {"kind": "PositiveEntropy", "entropy": [0.5 + 2e-11, 0.5 + 7e-11]}
    apart = {"kind": "PositiveEntropy", "entropy": [0.6, 0.6 + 5e-11]}
    wide = {"kind": "PositiveEntropy", "entropy": [0.4, 0.6]}
    assert run.matches(recorded, shifted)
    assert not run.matches(recorded, apart)
    assert not run.matches(recorded, wide)


@pytest.mark.parametrize("name", list(wl.GENERATORS))
def test_traced_and_untraced_passes_agree(lib, record, name):
    work = _cheapest(lib, name, 3)
    plain = run.run_pass(lib, work, record[name])
    tracer = run.Tracer()
    traced = run.run_pass(lib, work, record[name], tracer)
    assert traced.answers() == plain.answers()
    assert not any(op.failed for op in plain.ops + traced.ops)
    spans = {span[0] for span in tracer.spans}
    assert {"rationals.expand", "automaton.build"} <= spans
    # every binding is restored after the pass
    assert lib.holes.classify is lib.survivor.classify
    assert lib.survivor.build_automaton is lib.automaton.build_automaton


def test_self_time_excludes_children():
    tracer = run.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    st = tracer.self_times()
    (_, o_start, o_end, _, _), = [s for s in tracer.spans if s[0] == "outer"]
    assert st["outer"] + st["inner"] == pytest.approx(o_end - o_start)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_refuses_to_run_without_the_library(tmp_path):
    bench = Path(run.__file__).parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
