import hashlib
import json
import sys
import time
from fractions import Fraction

import pytest

from dbhole.cli import main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_fixed_only(capsys):
    code, out, _ = run(capsys, "classify", "3/10", "7/10")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "FixedOnly"
    assert data["cycles"] == []
    assert data["zero_loop"] is True


def test_classify_countable(capsys):
    code, out, _ = run(capsys, "classify", "17/50", "33/50")
    data = json.loads(out)
    assert data["kind"] == "CountableCycles"
    assert data["cycles"] == ["(01)"]


def test_classify_positive(capsys):
    code, out, _ = run(capsys, "classify", "21/50", "29/50")
    data = json.loads(out)
    assert data["kind"] == "PositiveEntropy"
    assert float(data["entropy_lo"]) > 0


def test_classify_malformed_fraction_exits_2(capsys):
    code, _, err = run(capsys, "classify", "x/y", "2/3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("arg, cause", [("1" * 5000 + "/" + "7" * 5000, "5000 digits"),
                                        ("x" * 10001, "")],
                         ids=["past-int-digit-limit", "letters"])
def test_long_malformed_fraction_gives_one_short_error_line(capsys, arg, cause):
    if cause and not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        pytest.skip("this Python reads integers of any length from a string")
    code, _, err = run(capsys, "classify", "1/3", arg)
    assert code == 2
    (line,) = err.splitlines()
    assert len(line) < 200 and "(10001 characters)" in line and cause in line


@pytest.mark.parametrize("arg", ["1e-100000000", "1E5"])
def test_exponent_notation_is_refused_at_once(capsys, arg):
    # Fraction("1e-N") builds 10^N exactly, which takes minutes at N = 10^8
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "0", arg)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert "malformed fraction" in line


def test_classify_inverted_hole_exits_2(capsys):
    code, _, _ = run(capsys, "classify", "2/3", "1/3")
    assert code == 2


def test_scan_rows_and_monotone_kinds(capsys):
    code, out, _ = run(capsys, "scan", "1/4", "29/64", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,kind,entropy_lo,entropy_hi,dimension"
    kinds = [line.split(",")[1] for line in lines[1:]]
    rank = {"FixedOnly": 0, "CountableCycles": 1, "PositiveEntropy": 2}
    ranks = [rank[k] for k in kinds]
    assert ranks == sorted(ranks)
    first = lines[1].split(",")
    assert first[0] == "1/4"
    assert first[1] == "FixedOnly"


def test_scan_fixed_grid_values(capsys):
    _, out, _ = run(capsys, "scan", "105/256", "107/256", "8")
    rows = {line.split(",")[0]: line.split(",")[1] for line in out.strip().splitlines()[1:]}
    assert rows["105/256"] != "PositiveEntropy"
    assert rows["107/256"] == "PositiveEntropy"


def test_scan_empty_grid_exits_2(capsys):
    code, _, _ = run(capsys, "scan", "1/2", "3/5", "4")
    assert code == 2


def test_scan_deterministic(capsys):
    _, first, _ = run(capsys, "scan", "1/4", "3/8", "5")
    _, second, _ = run(capsys, "scan", "1/4", "3/8", "5")
    assert first == second


def test_bisect_astar_coarse(capsys):
    code, out, _ = run(capsys, "bisect-astar", "--precision", "4")
    assert code == 0
    data = json.loads(out)
    lo, hi = F(data["lo"]), F(data["hi"])
    assert hi - lo <= F(1, 16)
    assert F(3, 8) <= lo < hi <= F(7, 16)


def test_bisect_astar_precision_cap(capsys):
    code, _, _ = run(capsys, "bisect-astar", "--precision", "30")
    assert code == 2


def test_catalog_small(capsys):
    code, out, _ = run(capsys, "catalog", "--max-q", "7")
    assert code == 0
    data = json.loads(out)
    holes = {(e["left"], e["right"]) for e in data if isinstance(e["left"], str)}
    assert ("2/7", "15/28") in holes
    assert ("9/28", "4/7") in holes
    assert ("1/3", "7/12") in holes


def test_catalog_certify_flags(capsys):
    code, out, _ = run(capsys, "catalog", "--max-q", "7", "--certify",
                       "--epsilon", "1/1024", "--degenerate-samples", "3")
    data = json.loads(out)
    rational = [e for e in data if isinstance(e["left"], str)]
    assert all(e["certified"] is True for e in rational)
    assert all(e["epsilon"] == "1/1024" for e in rational)
    assert any(e["left"] == "2/7" and e["right"] == "15/28" and e["certified"]
               for e in rational)


def test_expansion_budget_exits_3(capsys):
    v = 3 * 2**98 - 1  # trial division finds no factor within the budget
    code, out, err = run(capsys, "classify", "1/3", f"{v // 2}/{v}")
    assert code == 3
    assert str(v) in err
    assert out == ""


def test_budget_exhaustion_exits_3(capsys, monkeypatch, tmp_path):
    from fractions import Fraction
    from dbhole.rationals import BudgetExceededError
    import dbhole.cli as cli

    def explode(precision):
        raise BudgetExceededError("state budget exceeded",
                                  partial=(Fraction(3, 8), Fraction(7, 16)))

    monkeypatch.setattr(cli, "locate_entropy_transition", explode)
    code, out, err = run(capsys, "bisect-astar", "--precision", "12")
    assert code == 3
    assert "budget" in err
    assert json.loads(out) == {"partial_lo": "3/8", "partial_hi": "7/16"}
    # the one-line partial answer goes to stdout even with --out
    target = tmp_path / "never.json"
    assert run(capsys, "bisect-astar", "--precision", "12",
               "--out", str(target)) == (3, out, err)
    assert not target.exists()



def test_perron_budget_exits_3_with_partial_bracket(capsys, monkeypatch):
    from dbhole import survivor

    monkeypatch.setattr(survivor, "PERRON_WORK_BUDGET", 100)
    code, out, err = run(capsys, "classify", "21/50", "29/50")
    assert code == 3
    assert "Perron" in err
    (line,) = out.splitlines()
    partial = json.loads(line)
    assert sorted(partial) == ["partial_hi", "partial_lo"]
    assert 1 < F(partial["partial_lo"]) <= F(partial["partial_hi"])


def test_state_budget_reaches_every_entry_point(capsys, monkeypatch):
    # the budget is read at call time, so patching the module constant
    # reaches every caller; the middle third needs 5 states
    from dbhole import automaton
    from dbhole.automaton import Hole
    from dbhole.holes import catalog, certify_entry
    from dbhole.rationals import BudgetExceededError
    from dbhole.survivor import classify, locate_entropy_transition

    monkeypatch.setattr(automaton, "MAX_STATES", 4)
    with pytest.raises(BudgetExceededError, match="exceeds 4 states"):
        classify(Hole(F(1, 3), F(2, 3)))
    with pytest.raises(BudgetExceededError, match="exceeds 4 states"):
        certify_entry(catalog(3)[0], F(1, 1024))
    with pytest.raises(BudgetExceededError):
        locate_entropy_transition(4)
    for argv in (["classify", "1/3", "2/3"], ["catalog", "--max-q", "3", "--certify"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "exceeds 4 states" in err, argv


def test_catalog_with_sturmian_bracket(capsys):
    _, out, _ = run(capsys, "catalog", "--max-q", "3", "--sturmian", "1,1,1,1,1,1")
    data = json.loads(out)
    brackets = [e for e in data if isinstance(e["left"], dict)]
    assert brackets and all(set(e["left"]) == {"lo", "hi"} for e in brackets)


def test_trap_true(capsys):
    code, out, _ = run(capsys, "trap", "1/3", "2/3", "--depth", "20", "--tol", "1/1000")
    data = json.loads(out)
    assert code == 0
    assert data["trapped"] is True
    assert F(data["residual_measure"]) < F(1, 1000)


def test_trap_false_with_witness(capsys):
    _, out, _ = run(capsys, "trap", "2/5", "9/20")
    data = json.loads(out)
    assert data["trapped"] is False
    assert data["escape_witness"] == "01"


def test_trap_undecided_prints_null(capsys):
    code, out, _ = run(capsys, "trap", "1/3", "2/3", "--depth", "2")
    assert code == 0
    data = json.loads(out)
    assert data["trapped"] is None
    assert data["escape_witness"] is None


def test_trap_negative_depth_or_tol_exits_2(capsys):
    for flags in (["--depth", "-1"], ["--tol", "-1"], ["--tol", "0"]):
        code, out, err = run(capsys, "trap", "1/3", "2/3", *flags)
        assert code == 2, flags
        assert out == "" and "error" in err


def test_word_standard(capsys):
    code, out, _ = run(capsys, "word", "standard", "1", "2")
    assert code == 0
    assert out.strip() == "01010"


def test_word_characteristic(capsys):
    _, out, _ = run(capsys, "word", "characteristic", "--cf", "1,1,1,1,1,1,1",
                    "--length", "21")
    assert out.strip() == "010010100100101001010"


def test_word_thue_morse(capsys):
    _, out, _ = run(capsys, "word", "thue-morse", "16")
    assert out.strip() == "0110100110010110"


def test_word_json(capsys):
    _, out, _ = run(capsys, "word", "thue-morse", "8", "--json")
    assert json.loads(out) == {"word": "01101001"}


def test_sturmian_command(capsys):
    code, out, _ = run(capsys, "sturmian", "--cf", "1,1,1,1,1,1,1",
                       "--precision-bits", "30")
    data = json.loads(out)
    assert code == 0
    assert abs(float(data["left_float"]) - 0.322549) < 1e-5
    assert abs(float(data["right_float"]) - 0.572549) < 1e-5


def test_sturmian_refuses_a_denominator_past_the_int_digit_limit(capsys):
    # the brackets print over 2^(N+2); n is the least N whose denominator has
    # more digits than this Python converts to a string
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length to a string")
    n = (10 ** limit).bit_length() - 2
    assert 1 << (n + 1) < 10 ** limit <= 1 << (n + 2)
    code, out, _ = run(capsys, "sturmian", "--cf", "1,1", "--precision-bits", str(n - 1))
    assert code == 0 and json.loads(out)["precision_bits"] == n - 1
    start = time.perf_counter()
    code, out, err = run(capsys, "sturmian", "--cf", "1,1", "--precision-bits", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert f"precision {n} bits" in line and str(limit) in line
    assert "set_int_max_str_digits" not in line


def test_supercritical_test_command(capsys):
    code, out, _ = run(capsys, "supercritical-test", "2/7", "15/28",
                       "--epsilon", "1/1024")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert data["outer"]["kind"] == "FixedOnly"
    assert data["inner"]["kind"] == "PositiveEntropy"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "classify", "1/3", "2/3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["kind"] == "CountableCycles"


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "classify", "1/3", "2/3", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


# sha256 of the stdout of every README command line, plus a few more
GOLDEN = [
    ("classify 17/50 33/50",
     "13687e0a832f411d1ba9b906fa2c2c78b988459867fd570fc5e81702020151fd"),
    ("scan 1/4 29/64 6",
     "5b62d273f157654a18c0b4584ea6489954deb041b039dbdf525c41728c5e79e3"),
    ("bisect-astar --precision 16",
     "e2f64cbf0f2b16e5acce16984c74b10703326ba7a975a1ba3ed5c75da1fe5db1"),
    ("catalog --max-q 7 --certify",
     "953486cc94406fb81d1a6772eead36bfd9425cae3f7e5b2eb32d1adef700abf4"),
    ("trap 1/3 2/3 --depth 20 --tol 1/1000",
     "0baeb861cd374e6e2512acc00e6f32e1031c11a711183ac7916c3d264b9f5ca1"),
    ("word standard 1 2",
     "3cd0a3e1a887d61f33db5cc90a2e7b284404bd288f6af7669a8dfcb21da1c18c"),
    ("word characteristic --cf 1,1,1,1,1,1,1 --length 21",
     "de2d2e0e603297be98d43cf5821d8f1b205b332bfc1a3772a30e0ac175116927"),
    ("word thue-morse 16",
     "0cf652401e54967a2b3567a2f29867363450fba2fe745e3c65f4252e34e77812"),
    ("sturmian --cf 1,1,1,1,1,1,1 --precision-bits 30",
     "cf93ebb7e0ba9547f9f7956df8ddf37d831f74b117c38a366db4b138c3093a91"),
    ("supercritical-test 2/7 15/28 --epsilon 1/1024",
     "53bb2e8597035c59d38c2208ee026edac90410578cafb6199fbf59b3263f019d"),
    ("word thue-morse 8 --json",
     "1643170e7264c4ad2fc1e2dfac457eaeb0f5bc74495f4a2c93645e0571262919"),
    ("trap 1/3 2/3 --depth 2",
     "b657a8900a794712f8bcdd1eab0f3462d92c7ac39207617068be4da1ccf93466"),
]


@pytest.mark.parametrize("line,digest", GOLDEN, ids=[line for line, _ in GOLDEN])
def test_golden_stdout(capsys, line, digest):
    code, out, err = run(capsys, *line.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("line", [
    "classify 17/50 33/50", "scan 1/4 3/8 4", "bisect-astar --precision 4",
    "catalog --max-q 3", "trap 2/5 9/20", "word thue-morse 8",
    "word thue-morse 8 --json", "sturmian --cf 1,1,1",
    "supercritical-test 2/7 15/28",
])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, line):
    target = tmp_path / "out"
    _, printed, _ = run(capsys, *line.split())
    code, out, err = run(capsys, *line.split(), "--out", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == printed
