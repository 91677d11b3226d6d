#!/usr/bin/env python3
"""End-to-end benchmark of dbhole, with a separate per-layer traced run.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # all four, one process
    python3 perfbench/run.py --record                     # re-record answers.json

Each run imports dbhole from ``src/`` of the checkout, generates the
workload from the seed, then runs passes over it, one after another in this
process, until ``--seconds`` is used up.  Every op's answer is checked; the
last line of stdout is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  See README.md for
the workloads and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads as wl
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ANSWERS = HERE / "answers.json"
TRACE_DIR = HERE / "out"

SETUP_REPEATS = 3
ENTROPY_TOL = 1e-10
# Fixed per workload so the metric means the same on every run.  With one
# pass, ladder keeps 16 samples above p98, long-period 10 above p75 and
# oracle 12 above p85; thin has 7 ops a pass, so its p75 is pooled over
# passes and keeps fewer than ten samples above it (the count is printed).
TAIL_PERCENTILE = {"ladder": 98, "long-period": 75, "thin": 75, "oracle": 85}
KIND_RANK = {"FixedOnly": 0, "CountableCycles": 1, "PositiveEntropy": 2}
# a* for symmetric holes has the Thue-Morse word as its binary expansion
_TM = int("".join(str(bin(n).count("1") % 2) for n in range(80)), 2)
TM_LO, TM_HI = Fraction(_TM, 1 << 80), Fraction(_TM + 1, 1 << 80)


class Library:
    """The dbhole modules of one fresh import from the checkout's ``src/``."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m == "dbhole" or m.startswith("dbhole.")]:
            del sys.modules[name]
        pkg = importlib.import_module("dbhole")
        if Path(pkg.__file__).resolve().parent != SRC / "dbhole":
            raise ImportError(f"dbhole imported from {pkg.__file__}, not from {SRC}")
        for name in ("automaton", "holes", "kernels", "survivor"):
            setattr(self, name, importlib.import_module(f"dbhole.{name}"))


def set_up(name: str, seed: int, tracer: Tracer | None = None):
    """One fresh import of dbhole plus input generation.

    Returns (library, workload, seconds).  With a tracer the ``catalog`` call
    is recorded.
    """
    start = perf_counter()
    lib = Library()
    catalog = lib.holes.catalog
    if tracer is not None:
        catalog = tracer.wrap("holes.catalog", catalog)
    work = wl.generate(name, seed, catalog)
    return lib, work, perf_counter() - start


class Op:
    __slots__ = ("key", "seconds", "answer", "failed")

    def __init__(self, key: str):
        self.key, self.seconds, self.answer, self.failed = key, 0.0, None, False


class Pass:
    """One pass over a workload: its ops, per-unit answers and wall time."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.extras: dict[str, dict] = {}
        self.wall = 0.0

    def op(self, name: str, fn, key, answer):
        """``fn`` made into an op: each call is timed, keyed and its answer kept."""
        body = self.tracer.wrap(name, fn) if self.tracer else fn

        def call(*args, **kwargs):
            op = Op(key(*args))
            self.ops.append(op)
            if self.tracer:
                self.tracer.op = len(self.ops) - 1
            start = perf_counter()
            try:
                result = body(*args, **kwargs)
            finally:
                op.seconds = perf_counter() - start
            op.answer = answer(result)
            return result

        return call

    def answers(self) -> list:
        return [(op.key, op.answer) for op in self.ops] + sorted(self.extras.items())


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def classify_answer(c) -> dict:
    return {"kind": c.kind.value, "cycles": list(c.cycles), "zero_loop": c.zero_loop,
            "entropy": [c.entropy_lo, c.entropy_hi]}


def trap_answer(r) -> dict:
    return {"trapped": r.trapped, "residual": _frac(r.residual_measure),
            "witness": r.escape_witness}


def cylinder_answer(counts) -> dict:
    return dict(zip(("lower", "upper", "paths"), counts))


def hole_key(prefix: str):
    return lambda hole, *rest: f"{prefix} {hole.a} {hole.b}"


def _note_expand(counters, args, word):
    length = len(word.preperiod) + len(word.period)
    counters["rationals.expansion_len"] = max(counters["rationals.expansion_len"], length)


def _note_build(counters, args, auto):
    counters["automaton.build_calls"] += 1
    counters["automaton.states"] += auto.n_states
    counters["automaton.live"] += sum(auto.live)


def _note_entropy(counters, args, result):
    live = sum(args[0].live)
    counters["survivor.entropy_calls"] += 1
    counters["survivor.entropy_states"] += live
    counters["survivor.entropy_width_max"] = max(counters["survivor.entropy_width_max"], live)


def _note_cylinders(counters, args, result):
    counters["kernels.cylinders"] += 1 << args[0]


@contextmanager
def instrumented(lib: Library, run: Pass):
    """Rebind library entry points for one pass and yield the calls units make.

    ``classify`` becomes an op wherever the library calls it.  With a tracer
    the layer entry points also record spans.  Every binding is restored on
    exit.
    """
    tracer = run.tracer
    span = tracer.wrap if tracer else (lambda name, fn, note=None: fn)
    classify = run.op("survivor.classify", lib.survivor.classify, hole_key("classify"),
                      classify_answer)
    patches = {(lib.holes, "classify"): classify, (lib.survivor, "classify"): classify}
    if tracer:
        for attr in ("lex_max_expansion", "lex_min_expansion"):
            patches[(lib.automaton, attr)] = span(
                "rationals.expand", getattr(lib.automaton, attr), _note_expand)
        patches[(lib.survivor, "build_automaton")] = span(
            "automaton.build", lib.survivor.build_automaton, _note_build)
        patches[(lib.survivor, "entropy")] = span(
            "survivor.entropy", lib.survivor.entropy, _note_entropy)
        patches[(lib.kernels, "cylinder_counts")] = span(
            "kernels.cylinder", lib.kernels.cylinder_counts, _note_cylinders)
    build = span("automaton.build", lib.automaton.build_automaton, _note_build)
    count_paths = span("automaton.count_paths", lib.automaton.SurvivorAutomaton.count_paths)

    def cylinder_check(hole):
        lower, upper = lib.survivor.cylinder_counts(hole, wl.CYLINDER_DEPTH)
        return lower, upper, count_paths(build(hole), wl.CYLINDER_DEPTH)

    api = SimpleNamespace(
        Hole=lib.automaton.Hole,
        classify=classify,
        certify_entry=span("holes.certify", lib.holes.certify_entry),
        locate_entropy_transition=lib.survivor.locate_entropy_transition,
        is_trap=run.op("survivor.trap", lib.survivor.is_trap,
                       lambda c, d, *rest: f"trap {c} {d}", trap_answer),
        cylinder_check=run.op("oracle.check", cylinder_check, hole_key("cylinder"),
                              cylinder_answer),
    )
    saved = {target: getattr(*target) for target in patches}
    for (module, attr), fn in patches.items():
        setattr(module, attr, fn)
    try:
        yield api
    finally:
        for (module, attr), fn in saved.items():
            setattr(module, attr, fn)


def _avoids(word: str, lo: Fraction, hi: Fraction, closed: bool) -> bool:
    """Does the cycle coded by ``word`` stay out of (lo, hi), or [lo, hi] if closed?"""
    den = (1 << len(word)) - 1
    for i in range(len(word)):
        x = Fraction(int(word[i:] + word[:i], 2), den)
        if lo <= x <= hi if closed else lo < x < hi:
            return False
    return True


def execute(api, unit: wl.Unit):
    """Run one unit.  Returns (checks passed, extra (key, answer) to record or None)."""
    kind, args = unit.kind, unit.args
    if kind == "certify":
        entry, = args
        entry.certified = None
        report = api.certify_entry(entry, wl.CATALOG_EPSILON)
        inner = report.inner
        ok = (report.passed and entry.certified is True
              and inner.entropy_hi - inner.entropy_lo <= ENTROPY_TOL)
        return ok, (f"certify {entry.left} {entry.right}", {"certified": entry.certified})
    if kind == "bisect":
        bits, = args
        lo, hi = api.locate_entropy_transition(bits)
        ok = hi - lo == Fraction(1, 1 << bits) and lo <= TM_LO and TM_HI <= hi
        return ok, (f"bisect {bits}", {"lo": _frac(lo), "hi": _frac(hi)})
    if kind == "scan":
        a, = args
        api.classify(api.Hole(a, 1 - a))
        return True, None
    if kind == "wide":
        a, b = args
        c = api.classify(api.Hole(a, b))
        ok = (c.kind.value in ("FixedOnly", "CountableCycles")
              and all(_avoids(w, a, b, closed=False) for w in c.cycles))
        return ok, None
    if kind == "thin":
        c = api.classify(api.Hole(*args))
        ok = (c.kind.value == "PositiveEntropy"
              and 0 <= c.entropy_lo <= c.entropy_hi <= math.log(2)
              and c.entropy_hi - c.entropy_lo <= ENTROPY_TOL)
        return ok, None
    if kind == "cylinder":
        lower, upper, paths = api.cylinder_check(api.Hole(*args))
        return lower <= paths <= upper, None
    if kind == "trap":
        c, d = args
        r = api.is_trap(c, d)
        if (c, d) == (Fraction(1, 3), Fraction(2, 3)) and r.trapped is not True:
            return False, None
        if r.trapped is False:
            w = r.escape_witness
            if w == "1(0)":  # the orbit 1/2 -> 0 -> 0 ...
                return not (c <= Fraction(1, 2) <= d or c <= 0), None
            return w is not None and _avoids(w, c, d, closed=True), None
        return True, None
    raise ValueError(f"unknown unit kind {kind!r}")


def matches(recorded: dict, answer: dict | None) -> bool:
    """Exact equality, except that entropy brackets need only overlap the
    recorded one and stay within ENTROPY_TOL wide."""
    if answer is None or recorded.keys() != answer.keys():
        return False
    for field, want in recorded.items():
        got = answer[field]
        if field == "entropy":
            if not (got[0] <= want[1] and want[0] <= got[1]
                    and got[1] - got[0] <= ENTROPY_TOL):
                return False
        elif got != want:
            return False
    return True


def run_pass(lib: Library, work: wl.Workload, record: dict,
             tracer: Tracer | None = None) -> Pass:
    """One timed pass over every unit, then the answer checks (untimed)."""
    run = Pass(tracer)
    with instrumented(lib, run) as api:
        start = perf_counter()
        for unit in work.units:
            first = len(run.ops)
            try:
                ok, extra = execute(api, unit)
            except Exception:  # a raising op is a failed op; keep measuring
                ok, extra = False, None
            if extra is not None:
                key, answer = extra
                run.extras[key] = answer
                ok = ok and (key not in record or matches(record[key], answer))
            if not ok:
                if len(run.ops) == first:
                    run.ops.append(Op(f"{unit.kind} {unit.args}"))
                for op in run.ops[first:]:
                    op.failed = True
        run.wall = perf_counter() - start
    by_key = {}
    for op in run.ops:
        by_key[op.key] = op
        if op.key in record and not matches(record[op.key], op.answer):
            op.failed = True
    # the survivor set only grows with a, so kind_rank may never drop along the scan
    scan = sorted(u.args[0] for u in work.units if u.kind == "scan")
    prev = 0
    for a in scan:
        op = by_key.get(f"classify {a} {1 - a}")
        if op is None or op.answer is None:
            continue
        rank = KIND_RANK[op.answer["kind"]]
        if rank < prev:
            op.failed = True
        prev = max(prev, rank)
    return run


def measure(name: str, seed: int, record: dict, seconds: float, traced: bool):
    """Run passes until ``seconds`` are used, with SETUP_REPEATS set-ups before
    the first pass and after each untraced pass.

    The machine's speed drifts over seconds, so spreading the set-ups over the
    run makes their median sample the same conditions as the passes.  With
    ``traced`` each untraced pass is followed by a traced one, and one extra
    set-up records the ``catalog`` span.  Returns (set-up times, untraced
    passes, [(traced pass, tracer)], set-up tracer, workload).
    """
    times = []

    def set_up_repeatedly():
        for _ in range(SETUP_REPEATS):
            lib, work, took = set_up(name, seed)
            times.append(took)
        return lib, work

    lib, work = set_up_repeatedly()
    setup_tracer = Tracer() if traced else None
    if traced:
        lib, work, _ = set_up(name, seed, setup_tracer)
    plain, spanned = [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(lib, work, record))
        lib, work = set_up_repeatedly()
        if traced:
            tracer = Tracer()
            spanned.append((run_pass(lib, work, record, tracer), tracer))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return times, plain, spanned, setup_tracer, work


def end_to_end(name: str, plain: list[Pass], setup_times: list[float]) -> tuple[dict, list[str]]:
    walls = [run.wall for run in plain]
    latencies = [op.seconds for run in plain for op in run.ops]
    attempted = len(latencies)
    failed = sum(op.failed for run in plain for op in run.ops)
    p = TAIL_PERCENTILE[name]
    beyond = attempted * (100 - p) / 100
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(len(r.ops) / r.wall for r in plain), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * statistics.quantiles(latencies, n=100, method="inclusive")[p - 1],
                       "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup_times)} set-ups (import + generation)",
        f"wall_s, ops_per_s: median of {len(plain)} passes",
        f"op_p50_ms, op_tail_ms: {attempted} op latencies; tail is p{p} "
        f"with {beyond:.1f} samples beyond it",
        f"fail_frac: {failed / attempted} ({failed} of {attempted} ops failed)",
    ]
    return metrics, notes


def per_layer(plain: list[Pass], spanned: list, setup_tracer: Tracer) -> dict:
    """Median over traced passes of every per-layer metric."""
    rows = [_layer_row(run, tracer) for run, tracer in spanned]
    metrics = {key: (statistics.median(row[key][0] for row in rows), rows[0][key][1])
               for key in rows[0]}
    metrics["holes.catalog_s"] = (setup_tracer.self_times()["holes.catalog"], "s")
    untraced = statistics.median(run.wall for run in plain)
    traced = statistics.median(run.wall for run, _ in spanned)
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "fraction")
    return metrics


def _layer_row(run: Pass, tracer: Tracer) -> dict:
    st, c = tracer.self_times(), tracer.counters
    kinds = Counter(op.answer["kind"] for op in run.ops if op.answer and "kind" in op.answer)
    traps = [op for op in run.ops if op.key.startswith("trap ")]
    certs = [a for key, a in run.extras.items() if key.startswith("certify ")]
    row = {
        "rationals.expand_s": (st["rationals.expand"], "s"),
        "rationals.expansion_len": (c["rationals.expansion_len"], "symbols"),
        "automaton.build_s": (st["automaton.build"], "s"),
        "automaton.build_calls": (c["automaton.build_calls"], "count"),
        "automaton.states": (c["automaton.states"], "count"),
        "automaton.live_frac": (c["automaton.live"] / max(1, c["automaton.states"]), "fraction"),
        "automaton.count_paths_s": (st["automaton.count_paths"], "s"),
        "survivor.classify_self_s": (st["survivor.classify"], "s"),
        "survivor.entropy_s": (st["survivor.entropy"], "s"),
        "survivor.entropy_calls": (c["survivor.entropy_calls"], "count"),
        "survivor.entropy_states": (c["survivor.entropy_states"], "count"),
        "survivor.entropy_width_max": (c["survivor.entropy_width_max"], "count"),
        "survivor.trap_s": (st["survivor.trap"], "s"),
        "survivor.trap_calls": (len(traps), "count"),
        "survivor.trap_undecided": (sum(1 for op in traps if op.answer
                                        and op.answer["trapped"] is None), "count"),
        "kernels.cylinder_s": (st["kernels.cylinder"], "s"),
        "kernels.cylinders": (c["kernels.cylinders"], "count"),
        "kernels.cylinders_per_s": (c["kernels.cylinders"] / st["kernels.cylinder"]
                                    if st["kernels.cylinder"] else 0.0, "1/s"),
        "holes.certify_self_s": (st["holes.certify"], "s"),
        "holes.entries": (len(certs), "count"),
        "holes.certified_frac": (sum(a["certified"] is True for a in certs) / max(1, len(certs)),
                                 "fraction"),
    }
    for kind in KIND_RANK:
        row[f"survivor.kinds.{kind}"] = (kinds[kind], "count")
    return row


def load_record() -> dict:
    with open(ANSWERS) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, traced: bool, record: dict):
    """Set up, measure and print one workload.  Returns (metrics, attempted, failed)."""
    times, plain, spanned, setup_tracer, work = measure(name, seed, record, seconds, traced)
    print(f"input {work.describe()}")
    metrics, notes = end_to_end(name, plain, times)
    runs = plain + [run for run, _ in spanned]
    attempted = sum(len(run.ops) for run in runs)
    failed = sum(op.failed for run in runs for op in run.ops)
    if traced:
        mismatched = sum(run.answers() != plain[0].answers() for run, _ in spanned)
        failed += mismatched * len(plain[0].ops)
        metrics = per_layer(plain, spanned, setup_tracer)
        wall = statistics.median(run.wall for run, _ in spanned)
        shares = sorted(((v / wall, k) for k, (v, u) in metrics.items()
                         if u == "s" and k != "holes.catalog_s"), reverse=True)
        notes = [f"traced passes: {len(spanned)}, traced wall {wall:.4f} s, "
                 f"answers differing from the untraced pass: {mismatched}",
                 "self-time shares of traced wall: " + ", ".join(
                     f"{k} {share:.1%}" for share, k in shares if share >= 0.001),
                 f"total automaton states per pass: {metrics['automaton.states'][0]:.0f}"]
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
        run, tracer = spanned[-1]
        tracer.dump(path, workload=name, seed=seed, setup_spans=setup_tracer.spans)
        notes.append(f"spans of the last traced pass written to {path.relative_to(HERE.parent)}")
    for key, (value, unit) in metrics.items():
        print(f"  {name:<12} {key:<28} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {name:<12} {note}")
    return metrics, attempted, failed


def record_answers() -> int:
    """Write answers.json from one untraced pass per workload at DEFAULT_SEED."""
    data = {}
    for name in wl.GENERATORS:
        lib, work, _ = set_up(name, wl.DEFAULT_SEED)
        run = run_pass(lib, work, {})
        bad = [op.key for op in run.ops if op.failed]
        if bad:
            print(f"{name}: {len(bad)} ops fail their checks, e.g. {bad[0]}", file=sys.stderr)
            return 1
        data[name] = dict(sorted({**{op.key: op.answer for op in run.ops}, **run.extras}.items()))
        print(f"{name}: recorded {len(data[name])} answers")
    lines = []
    for name, answers in data.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in answers.items())
        lines.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    ANSWERS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.GENERATORS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"re-record {ANSWERS.name} at seed {wl.DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    try:
        Library()
    except ImportError as exc:
        print(f"cannot import dbhole from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.record:
        return record_answers()
    record = load_record()
    names = list(wl.GENERATORS) if args.workload == "all" else [args.workload]
    results, attempted, failed = {}, 0, 0
    for name in names:
        metrics, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     record.get(name, {}))
        attempted += a
        failed += f
        prefix = "" if len(names) == 1 else f"{name}."
        results.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
