import hashlib
import json
import time
from fractions import Fraction

import pytest

from dbhole.cli import main
from dbhole.rationals import int_max_str_digits
from dbhole.words import MAX_WORD_LENGTH

F = Fraction
DIGIT_LIMIT = int_max_str_digits()
PAST_LIMIT_BITS = (10 ** DIGIT_LIMIT).bit_length() - 2
ANY_LENGTH = "this Python converts integers of any length to and from a string"


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


def test_state_budget_reaches_every_entry_point(monkeypatch):
    # the budget is read at call time, so patching the module constant
    # reaches every caller; the middle third needs 5 states.  REFUSALS holds
    # the CLI's entry points under the same budget
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
    # an undecided search prints nothing, never "trapped": null: below depth
    # 20 the residual 2/3 / 2**depth is still above tol and the CLI exits 3
    for depth in range(20):
        code, out, err = run(capsys, "trap", "1/3", "2/3", "--depth", str(depth))
        assert (code, out) == (3, "")
        assert f"undecided after {depth} rounds" in err
    code, out, _ = run(capsys, "trap", "1/3", "2/3", "--depth", "20")
    assert code == 0
    assert json.loads(out)["trapped"] is True


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


def test_word_length_cap_admits_its_bound(capsys):
    code, out, err = run(capsys, "word", "thue-morse", str(MAX_WORD_LENGTH))
    assert (code, len(out), err) == (0, MAX_WORD_LENGTH + 1, "")


@pytest.mark.parametrize("line, word", [
    pytest.param("word characteristic --cf 1000000000 --length 5", "00000",
                 id="word-characteristic-cf-1000000000"),
    pytest.param("word characteristic --cf 1,1000000000 --length 5", "01010",
                 id="word-characteristic-cf-1-1000000000"),
])
def test_word_characteristic_builds_only_its_prefix(capsys, line, word):
    start = time.perf_counter()
    assert run(capsys, *line.split()) == (0, word + "\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("line", [
    "sturmian --cf 1,{a} --precision-bits 30", "catalog --max-q 3 --sturmian 1,{a}",
])
def test_sturmian_digit_past_the_prefix_costs_nothing(capsys, line):
    # the 30-symbol prefix is (01)^15 for every a >= 15
    start = time.perf_counter()
    code, out, err = run(capsys, *line.format(a=10**9).split())
    assert (code, err) == (0, "") and time.perf_counter() - start < 1
    assert out.replace(str(10**9), str(10**6)) == run(capsys, *line.format(a=10**6).split())[1]


def test_sturmian_command(capsys):
    code, out, _ = run(capsys, "sturmian", "--cf", "1,1,1,1,1,1,1",
                       "--precision-bits", "30")
    data = json.loads(out)
    assert code == 0
    assert abs(float(data["left_float"]) - 0.322549) < 1e-5
    assert abs(float(data["right_float"]) - 0.572549) < 1e-5


@pytest.mark.skipif(not DIGIT_LIMIT, reason=ANY_LENGTH)
def test_sturmian_refuses_a_denominator_past_the_int_digit_limit(capsys):
    # the brackets print over 2^(N+2); PAST_LIMIT_BITS is the least N whose
    # denominator has more digits than this Python converts to a string.
    # REFUSALS refuses it; one bit less still prints
    n = PAST_LIMIT_BITS
    assert 1 << (n + 1) < 10 ** DIGIT_LIMIT <= 1 << (n + 2)
    code, out, _ = run(capsys, "sturmian", "--cf", "1,1", "--precision-bits", str(n - 1))
    assert code == 0 and json.loads(out)["precision_bits"] == n - 1


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
    # trapped: true
    ("trap 1/3 2/3",
     "bf8d650df147f151e5eb320e53078b149e47eb9090274f2901dc6ee34774e3f3"),
    # 60 entries, every one certified
    ("catalog --max-q 8 --certify",
     "b70775557cbbe7f8d0733fb123828cb91c521b40f9afe2962d27ad648cc66240"),
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



def refusal(name, line, code, fragment, partial=None, patches=(), seconds=1, marks=()):
    return pytest.param(line, code, fragment, partial, patches, seconds, id=name, marks=marks)


STATES_4 = [("dbhole.automaton.MAX_STATES", 4)]
PERRON_100 = [("dbhole.survivor.PERRON_WORK_BUDGET", 100)]
NO_FACTOR = 3 * 2**98 - 1  # trial division finds no factor within the budget
ODD_3_9000 = 3**9000  # 14,265 bits, past MAX_ODD_BITS; its period would take tens of seconds

# Every refusal of the CLI: exit 2 for a bad argument or an unwritable
# --out, exit 3 when a budget runs out, with its partial answer (lo, hi) if
# it has one.  "{tmp}" stands for the test's temporary directory
REFUSALS = [
    refusal("malformed-fraction", "classify x/y 2/3", 2, "malformed fraction 'x/y'"),
    refusal("long-past-int-digit-limit", f"classify 1/3 {'1' * 5000}/{'7' * 5000}", 2,
            "... (10001 characters): a number has 5000 digits",
            marks=pytest.mark.skipif(not 0 < DIGIT_LIMIT < 5000, reason=ANY_LENGTH)),
    refusal("long-letters", f"classify 1/3 {'x' * 10001}", 2, "'... (10001 characters)"),
    # Fraction("1e-N") builds 10^N exactly, which takes minutes at N = 10^8
    refusal("exponent-1e-100000000", "classify 0 1e-100000000", 2, "fraction '1e-100000000'"),
    refusal("exponent-1E5", "classify 0 1E5", 2, "malformed fraction '1E5'"),
    refusal("inverted-hole", "classify 2/3 1/3", 2, "need 0 <= a < b <= 1, got (2/3, 1/3)"),
    refusal("unwritable-out", "classify 1/3 2/3 --out {tmp}/missing/x.json", 2,
            "No such file or directory: '{tmp}/missing/x.json'"),
    refusal("scan-empty-grid", "scan 1/2 3/5 4", 2, "empty dyadic grid in [1/2, 3/5] at 2^-4"),
    refusal("scan-grid-31", "scan 1/4 1/2 31", 2, "grid exponent must be in 1..30"),
    refusal("bisect-astar-precision-30", "bisect-astar --precision 30", 2, "must be in 1..24"),
    refusal("catalog-max-q-1", "catalog --max-q 1", 2, "max_q must be >= 2"),
    refusal("catalog-no-samples", "catalog --degenerate-samples 0", 2, "samples must be >= 1"),
    refusal("catalog-sturmian-letter", "catalog --sturmian 1,x", 2, "base 10: 'x'"),
    refusal("trap-depth-negative", "trap 1/3 2/3 --depth -1", 2, "got -1 and 1/1000000"),
    refusal("trap-tol-negative", "trap 1/3 2/3 --tol -1", 2, "tol > 0, got 24 and -1"),
    refusal("trap-tol-0", "trap 1/3 2/3 --tol 0", 2, "tol > 0, got 24 and 0"),
    refusal("trap-inverted", "trap 2/3 1/3", 2, "need 0 < c < d < 1, got [2/3, 1/3]"),
    refusal("word-standard", "word standard", 2, "continued-fraction tuple must be nonempty"),
    refusal("word-characteristic", "word characteristic", 2, "characteristic needs --cf"),
    refusal("word-characteristic-cf", "word characteristic --cf 1,1", 2, "needs --length"),
    refusal("word-thue-morse", "word thue-morse", 2, "thue-morse needs a length"),
    # every word builder refuses a word longer than MAX_WORD_LENGTH before
    # it builds it, standard words on the way included
    refusal("word-thue-morse-8000000", "word thue-morse 8000000", 2,
            "word needs 8000000 symbols, above the cap of 1048576"),
    refusal("word-standard-1000000000", "word standard 1000000000", 2,
            "word needs 1000000001 symbols"),
    refusal("word-characteristic-length", "word characteristic --cf 1,1 --length 1048577", 2,
            "word needs 1048577 symbols"),
    refusal("sturmian-precision-0", "sturmian --cf 1,1 --precision-bits 0", 2,
            "precision_bits must be positive"),
    # refused before any work, in place of Python's own int-to-str error
    refusal("sturmian-past-int-digit-limit",
            f"sturmian --cf 1,1 --precision-bits {PAST_LIMIT_BITS}", 2,
            f"precision {PAST_LIMIT_BITS} bits: its denominator 2^{PAST_LIMIT_BITS + 2} has "
            f"more than the {DIGIT_LIMIT} digits that Python converts to a string",
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason=ANY_LENGTH)),
    refusal("supercritical-empty-inner", "supercritical-test 2/7 15/28 --epsilon 1/8", 2,
            "inner hole empty: (23/56, 23/56) at epsilon 1/8"),
    refusal("supercritical-epsilon-0", "supercritical-test 2/7 15/28 --epsilon 0", 2,
            "epsilon must be positive"),
    refusal("trial-division-budget", f"classify 1/3 {NO_FACTOR // 2}/{NO_FACTOR}", 3,
            f"trial division of {NO_FACTOR} passed 4194304 without a factor", seconds=5),
    refusal("odd-part-budget", f"classify 1/3 {(ODD_3_9000 - 1) // 2}/{ODD_3_9000}", 3,
            "<14265-bit integer>: odd part has 14265 bits, above 4096"),
    refusal("state-budget-classify", "classify 1/3 2/3", 3,
            "automaton for (1/3, 2/3) exceeds 4 states", patches=STATES_4),
    refusal("state-budget-catalog", "catalog --max-q 3 --certify", 3, "exceeds 4 states",
            patches=STATES_4),
    refusal("common-prefix-budget", "classify 1/3 1027/3072", 3,
            "share more than 4 leading binary digits", patches=STATES_4),
    refusal("state-budget-bisect-astar", "bisect-astar --precision 4", 3,
            "(3/8, 5/8) exceeds 4 states; bisection bracket [3/8, 7/16]",
            partial=("3/8", "7/16"), patches=STATES_4),
    refusal("perron-budget-classify", "classify 21/50 29/50", 3, "Perron bracket did not reach",
            partial=("42/29", "27/17"), patches=PERRON_100),
    refusal("perron-budget-bisect-astar", "bisect-astar --precision 4", 3,
            "100 node and successor-entry visits; bisection bracket [3/8, 7/16]",
            partial=("3/8", "7/16"), patches=PERRON_100),
    # an undecided trap search has no bracket, so it prints no partial line
    refusal("trap-depth-2", "trap 1/3 2/3 --depth 2", 3,
            "trap search for [1/3, 2/3] undecided after 2 rounds; residual 1/6"),
    refusal("trap-gap-budget", "trap 1/3 3/5", 3,
            "trap search for [1/3, 3/5] has 8 gaps in round 3, above the gap budget of 6",
            patches=[("dbhole.survivor.MAX_TRAP_INTERVALS", 5)]),
    refusal("perron-budget-supercritical", "supercritical-test 2/7 15/28", 3,
            "Perron bracket did not reach", partial=("1/1", "24/19"), patches=PERRON_100),
]


@pytest.mark.parametrize("line, code, fragment, partial, patches, seconds", REFUSALS)
def test_refusal(capsys, monkeypatch, tmp_path, line, code, fragment, partial, patches, seconds):
    for target, value in patches:
        monkeypatch.setattr(target, value)
    argv = line.replace("{tmp}", str(tmp_path)).split()
    start = time.perf_counter()
    refused = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    got, out, err = refused
    assert got == code
    (message,) = err.splitlines()
    assert message.startswith("error: ") and len(message) < 200 and "Traceback" not in err
    assert fragment.replace("{tmp}", str(tmp_path)) in message
    if partial is None:
        assert out == ""
    else:
        (answer,) = out.splitlines()
        assert json.loads(answer) == {"partial_lo": partial[0], "partial_hi": partial[1]}
        assert F(partial[0]) <= F(partial[1])
    # nothing is written to --out, and a partial answer still goes to stdout
    target = tmp_path / "never.json"
    assert run(capsys, argv[0], "--out", str(target), *argv[1:]) == refused
    assert not target.exists()
