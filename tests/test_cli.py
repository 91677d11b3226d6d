import json
from fractions import Fraction

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
    assert first[0] == "16/64".replace("16/64", "1/4") or first[0] == "1/4"
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


def test_budget_exhaustion_exits_3(capsys, monkeypatch):
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
