import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly_power_row, poly_power_rows
from polyadic import (CapacityError, CylFunction, DimTable, GenPolynomial, PathPrefix,
                      extract_limiting_curve, kappa, letter_stream, maximal_word,
                      measure_params, minimal_word, predecessor, rank, successor,
                      unrank, word_from_string, word_to_string)
from polyadic import measure, paths
from polyadic import poly as poly_module
from polyadic.cli import _emit, _line, main
from polyadic.poly import DEFAULT_ENTRY_BUDGET, VertexCone, _bezout, vertex_source


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--poly", "1,1", "--nmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,dim"
    last_row = [line.split(",")[2] for line in lines if line.startswith("4,")]
    assert last_row == ["1", "4", "6", "4", "1"]
    code, out, _ = run(capsys, "dims", "--poly", "1,1,3", "--nmax", "2")
    row2 = [line.split(",")[2] for line in out.strip().splitlines()
            if line.startswith("2,")]
    assert row2 == ["1", "2", "7", "6", "9"]


@pytest.mark.parametrize("coeffs", [(1,), (3,), (1, 1, 3), (2, 1, 1, 2)])
def test_dims_bytes_equal_an_independent_csv_writer(coeffs, capsys, tmp_path):
    # the oracle writes every row through csv.writer, from the test's own
    # convolution; dims preformats its lines
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "k", "dim"))
    ends = []                   # where each level's lines end
    for n, row in enumerate(poly_power_rows(coeffs, 200)):
        writer.writerows((n, k, v) for k, v in enumerate(row))
        ends.append(buf.tell())
    expected = buf.getvalue()
    poly = ",".join(map(str, coeffs))
    for nmax in range(61):
        code, out, err = run(capsys, "dims", "--poly", poly, "--nmax", str(nmax))
        assert (code, out, err) == (0, expected[:ends[nmax]], "")
    code, out, err = run(capsys, "dims", "--poly", poly, "--nmax", "200")
    assert (code, out, err) == (0, expected, "")
    path = tmp_path / "dims.csv"
    code, out, err = run(capsys, "dims", "--poly", poly, "--nmax", "200", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_text() == expected
    assert [f.name for f in tmp_path.iterdir()] == ["dims.csv"]


def test_dims_opens_out_after_the_budget_check_and_before_building(capsys, monkeypatch,
                                                                  tmp_path):
    # a bad --out path once failed only after the whole table was built
    built = []

    def counted(*args):
        built.append(args[1])
        return next_level(*args)

    next_level = poly_module._next_level
    monkeypatch.setattr(poly_module, "_next_level", counted)
    bad = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "dims", "--poly", "1,1,3", "--nmax", "50", "--out", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{bad}'\n"
    assert built == []
    # a budget refusal still comes first: no file, no output, the same text
    good = tmp_path / "x.csv"
    code, out, err = run(capsys, "dims", "--poly", "1,1,3", "--nmax", "100000",
                         "--out", str(good))
    assert (code, out, built) == (1, "", [])
    assert err == ("error: table with n_max=100000, degree=2 needs 10000200001 "
                   "entries, budget is 4000000\n")
    assert not good.exists()
    code, out, err = run(capsys, "dims", "--poly", "1,1,3", "--nmax", "50", "--out", str(good))
    assert (code, out, err) == (0, "", "")
    assert built == list(range(1, 51))


def test_cohom_refuses_a_table_past_the_budget_before_building(capsys, monkeypatch, tmp_path):
    # R of a constant g stays 0, so only the entry budget can end this run
    built = []

    def counted(*args):
        built.append(args[1])
        return next_level(*args)

    next_level = poly_module._next_level
    monkeypatch.setattr(poly_module, "_next_level", counted)
    gpath = _write_g(tmp_path, GenPolynomial((1, 1)), CylFunction(1, {(0,): 1.0, (1,): 1.0}))
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "cohom", "--poly", "1,1", "--g", gpath, "--nmax", "3000",
                            "--out", str(out))
    assert (code, stdout, built) == (1, "", [])
    assert err == ("error: table with n_max=3000, degree=1 needs 4504501 entries, "
                   "budget is 4000000\n")
    assert [f.name for f in tmp_path.iterdir()] == ["g.json"]


def test_dims_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["dims", "--nmax", "3"])
    assert err.value.code == 2
    # a --poly that is not comma-separated ASCII digits is never coerced
    for poly in ["1 1", "1 1,3", "1,,1", "1,1,", "\u0661,1"]:
        with pytest.raises(SystemExit) as err:
            main(["dims", "--poly", poly, "--nmax", "3"])
        assert err.value.code == 2
    assert "bad coefficient list" in capsys.readouterr().err


def test_a_second_main_call_reuses_the_parser(capsys, monkeypatch):
    run(capsys, "tq", "--poly", "1,1", "--q", "0.3")
    built = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    code, out, _ = run(capsys, "tq", "--poly", "1,1", "--q", "0.3")
    assert code == 0 and "t,0.7" in out and built == []


def _csv_writer_lines(rows) -> str:
    """Rows as csv.writer writes them in its default dialect, one \\n-ended line each.

    The default line terminator holds both \\r and \\n, so csv.writer quotes a
    field with either on every Python version.
    """
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        assert buf.getvalue().endswith("\r\n")
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


_FIELDS = st.one_of(
    st.integers(),
    st.integers(1, 9).flatmap(lambda a: st.integers(4300, 4400).map(lambda e: a * 10 ** e + 7)),
    st.floats(),
    st.floats().map(repr),
    st.sampled_from([repr(math.nan), repr(math.inf), repr(-0.0)]),
    st.text("0123456789"),
    st.lists(st.integers(0, 20)).map(lambda w: ",".join(map(str, w))),
    st.text("01,\"\r\n a"),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_FIELDS, min_size=2, max_size=5).map(tuple), min_size=1,
                     max_size=6))
def test_emit_writes_the_bytes_of_csv_writer(rows):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)     # as main does for the command
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _emit(argparse.Namespace(out=None), rows[0], map(_line, rows[1:]))
        assert buf.getvalue() == _csv_writer_lines(rows)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_emit_without_a_header_writes_only_its_lines(tmp_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(argparse.Namespace(out=None), None, ["0110\n", "a,b\n"])
    assert buf.getvalue() == "0110\na,b\n"
    path = tmp_path / "x.txt"
    _emit(argparse.Namespace(out=str(path)), None, iter(["1001\n"]))
    assert path.read_text() == "1001\n"
    assert [f.name for f in tmp_path.iterdir()] == ["x.txt"]


def test_tq(capsys):
    code, out, _ = run(capsys, "tq", "--poly", "1,1", "--q", "0.3")
    assert code == 0
    assert "t,0.7" in out
    assert "residual,0.0" in out
    assert "letter0" in out and "letter1" in out


def test_tq_bad_q_is_runtime_error(capsys):
    code, _, err = run(capsys, "tq", "--poly", "2,1", "--q", "0.9")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_non_finite_q_is_runtime_error(capsys, q):
    # the degree-0 system only compares q with 1/a_0, and a comparison with
    # NaN is always false
    for argv in (["tq", "--poly", "3", "--q", q],
                 ["orbit", "--poly", "3", "--q", q, "--n", "3", "--steps", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: q={q} ")


def test_succ_and_pred(capsys):
    code, out, _ = run(capsys, "succ", "--poly", "1,1", "--word", "0110")
    assert code == 0 and out.strip() == "1001"
    code, out, _ = run(capsys, "succ", "--poly", "1,1", "--word", "1001", "--pred")
    assert code == 0 and out.strip() == "0110"
    # many steps through one (1,1,3) tower: first word to last, back again,
    # and one step past the last word
    poly = GenPolynomial((1, 1, 3))
    dim = DimTable(poly).dim(5, 4)
    first, last = (word_to_string(w(5, 4, poly), poly)
                   for w in (minimal_word, maximal_word))
    code, out, _ = run(capsys, "succ", "--poly", "1,1,3", "--word", first,
                       "--steps", str(dim - 1))
    assert code == 0 and out.strip() == last
    code, out, _ = run(capsys, "succ", "--poly", "1,1,3", "--word", last,
                       "--steps", str(dim - 1), "--pred")
    assert code == 0 and out.strip() == first
    code, out, err = run(capsys, "succ", "--poly", "1,1,3", "--word", first,
                         "--steps", str(dim))
    assert code == 1 and out == "" and "maximal through level 5" in err


_README_WORD = "01234" * 12     # the README's 60-letter word on 1,1,3


def _jumped(word, steps):
    poly = GenPolynomial((1, 1, 3))
    w = word_from_string(word, poly)
    moved = unrank(len(w), kappa(w, poly), rank(w, poly) + steps, DimTable(poly))
    return word_to_string(moved, poly) + "\n"


@pytest.mark.parametrize("argv, expected", [
    (("--poly", "1,1", "--word", "0110"), "1001\n"),
    (("--poly", "1,1", "--word", "1001", "--pred"), "0110\n"),
    (("--poly", "1,1,3", "--word", _README_WORD, "--steps", "20000"),
     _jumped(_README_WORD, 20000)),
])
def test_succ_writes_the_same_bytes_to_stdout_and_to_out(capsys, tmp_path, argv, expected):
    assert run(capsys, "succ", *argv) == (0, expected, "")
    path = tmp_path / "succ.txt"
    assert run(capsys, "succ", *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text() == expected
    assert [f.name for f in tmp_path.iterdir()] == ["succ.txt"]


def test_succ_jumps_by_rank_without_stepping(capsys, monkeypatch):
    def no_steps(*args):
        raise AssertionError("succ stepped")

    monkeypatch.setattr(paths, "_steps", no_steps)
    poly = GenPolynomial((1, 1, 3))
    table = DimTable(poly)
    kap = 60
    top = table.dim(60, kap)
    start = unrank(60, kap, top - 10 ** 29, table)
    code, out, _ = run(capsys, "succ", "--poly", "1,1,3",
                       "--word", word_to_string(start, poly), "--steps", "20000")
    assert code == 0
    assert out.strip() == word_to_string(unrank(60, kap, top - 10 ** 29 + 20000, table), poly)
    # stepping would take 10**29 steps before it found the end of the tower
    for last, pred, end in ((start, (), "maximal"),
                            (unrank(60, kap, 10 ** 29, table), ("--pred",), "minimal")):
        code, out, err = run(capsys, "succ", "--poly", "1,1,3", "--word",
                             word_to_string(last, poly), "--steps", str(10 ** 30), *pred)
        assert (code, out, err) == (1, "", f"error: {end} through level 60\n")


def test_succ_steps_where_the_pivot_cone_is_over_budget(capsys):
    # the pivot sits at level 3000, whose cone holds 4,503,000 entries, more
    # than three steps would cost (and more than the entry budget)
    poly = GenPolynomial((1, 1, 3))
    for word, step, pred in ((maximal_word(2999, 2999, poly) + (0,), successor, ()),
                             (minimal_word(2999, 2999, poly) + (4,), predecessor, ("--pred",))):
        x = PathPrefix(word)
        for _ in range(3):
            x = step(x, poly)
        code, out, _ = run(capsys, "succ", "--poly", "1,1,3", "--word",
                           word_to_string(word, poly), "--steps", "3", *pred)
        assert (code, out) == (0, word_to_string(x.known(), poly) + "\n")


def test_succ_past_the_entry_budget_is_refused_without_stepping(capsys, monkeypatch):
    def no_steps(*args):
        raise AssertionError("succ stepped")

    monkeypatch.setattr(paths, "_steps", no_steps)
    poly = GenPolynomial((1, 1, 3))
    # the pivot at level 5000 has no source: its cone (12,505,000 entries) is
    # over the entry budget and its descent (337,577,506 bits) over the bits'
    for word, pred in ((maximal_word(4999, 4999, poly) + (0,), ()),
                       (minimal_word(4999, 4999, poly) + (4,), ("--pred",))):
        for steps in (10 ** 30, DEFAULT_ENTRY_BUDGET + 1):
            code, out, err = run(capsys, "succ", "--poly", "1,1,3", "--word",
                                 word_to_string(word, poly), "--steps", str(steps), *pred)
            assert (code, out) == (1, "")
            assert "budget" in err and "islice" not in err and str(steps) in err


def test_rank_round_trip(capsys):
    code, out, _ = run(capsys, "rank", "--poly", "1,1,3", "--word", "04120")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    word, n, kap, idx = row[0], int(row[1]), int(row[2]), int(row[3])
    code, out, _ = run(capsys, "rank", "--poly", "1,1,3", "--level", str(n),
                       "--kappa", str(kap), "--index", str(idx))
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[0] == word
    # full-width digits are not letters
    code, out, err = run(capsys, "rank", "--poly", "1,1", "--word", "\uff10\uff11")
    assert code == 1 and out == "" and "bad word" in err
    # nor is a leading zero: over eleven letters 01 is no label
    code, out, err = run(capsys, "rank", "--poly", ",".join(["1"] * 11),
                         "--word", "01")
    assert code == 1 and out == "" and "bad word" in err


def test_parabola_row(capsys):
    code, out, _ = run(capsys, "parabola", "--d", "2", "--grid", "3")
    assert code == 0
    row = out.strip().splitlines()[2].split(",")
    assert float(row[0]) == pytest.approx(1 / 3)
    assert float(row[1]) == pytest.approx(1 / 3, abs=1e-9)


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--poly", "1,1", "--q", "0.5",
                       "--steps", "8", "--n", "12", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,theta,word"
    assert len(lines) == 10
    # counts and words are taken as given, also when zero or empty
    code, out, _ = run(capsys, "orbit", "--poly", "1,1", "--q", "0.5",
                       "--steps", "3", "--n", "0", "--seed", "3")
    assert code == 0 and out.splitlines()[1] == "0,0.0,"
    code, empty, _ = run(capsys, "orbit", "--poly", "1,1", "--q", "0.5",
                         "--steps", "3", "--word", "", "--seed", "3")
    assert code == 0 and empty == out


@pytest.mark.parametrize("argv", [
    ("orbit", "--poly", "1,1", "--q", "0.5", "--word", "01", "--n", "5"),
    ("rank", "--poly", "1,1", "--word", "01", "--level", "2", "--kappa", "1",
     "--index", "1"),
    ("rank", "--poly", "1,1", "--word", "01", "--index", "1"),
])
def test_conflicting_inputs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["0.5", "5"])
def test_orbit_without_a_start_is_a_usage_error_before_q_is_read(capsys, q):
    # as with both starts given, whether q is in range or not
    with pytest.raises(SystemExit) as err:
        main(["orbit", "--poly", "1,1", "--q", q])
    assert err.value.code == 2
    assert "orbit needs --word or --n" in capsys.readouterr().err


def _write_g(tmp_path, poly, g, name="g.json"):
    path = tmp_path / name
    path.write_text(g.to_json(poly))
    return str(path)


def test_curve_writes_files_and_is_deterministic(tmp_path, capsys):
    poly = GenPolynomial((1, 1))
    gpath = _write_g(tmp_path, poly, CylFunction(1, {(0,): 1.0}))
    out1 = tmp_path / "curve1.csv"
    out2 = tmp_path / "curve2.csv"
    for out in (out1, out2):
        code = main(["curve", "--poly", "1,1", "--q", "0.5", "--g", gpath,
                     "--m", "6", "--nmax", "300", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "curve1.csv.meta.json").read_text())
    assert meta["converged_at"] == meta["n"]
    assert meta["m"] == 6
    assert isinstance(meta["R"], str)
    mp = measure_params(poly, 0.5)
    x = PathPrefix((), extend=letter_stream(mp, 2), max_level=300)
    curve, _ = extract_limiting_curve(CylFunction(1, {(0,): 1.0}), x, poly,
                                      m=6, n_max=300, mp=mp)
    assert meta["R"] == repr(curve.R) and float(meta["R"]) == curve.R
    body = out1.read_text().splitlines()
    assert body[0] == "x,y"
    assert float(body[1].split(",")[0]) == 0.0
    assert float(body[-1].split(",")[0]) == 1.0


def test_curve_degenerate_exit_code(tmp_path, capsys):
    poly = GenPolynomial((1, 1))
    const = CylFunction.from_table(poly, 1, lambda w: 2.0)
    gpath = _write_g(tmp_path, poly, const)
    code = main(["curve", "--poly", "1,1", "--q", "0.5", "--g", gpath,
                 "--nmax", "80", "--seed", "2", "--eps", "0.9"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in captured.err


def test_curve_no_convergence_exit_code(tmp_path, capsys):
    poly = GenPolynomial((1, 1))
    gpath = _write_g(tmp_path, poly, CylFunction(1, {(0,): 1.0}))
    code = main(["curve", "--poly", "1,1", "--q", "0.5", "--g", gpath,
                 "--nmax", "60", "--seed", "2", "--tol", "1e-12"])
    captured = capsys.readouterr()
    assert code == 3 and "error" in captured.err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_curve_rejects_bad_tol_before_walking(tmp_path, capsys, tol):
    gpath = _write_g(tmp_path, GenPolynomial((1, 1)), CylFunction(1, {(0,): 1.0}))
    code, out, err = run(capsys, "curve", "--poly", "1,1", "--q", "0.5", "--g", gpath,
                         "--m", "6", "--nmax", "300", "--seed", "2", "--tol", tol)
    assert (code, out, err) == (1, "", "error: need tol >= 0\n")


def test_cohom(tmp_path, capsys):
    poly = GenPolynomial((3,))
    g = CylFunction(2, {(0, 1): 1.0, (2, 0): -0.5})
    gpath = _write_g(tmp_path, poly, g)
    out = tmp_path / "r.csv"
    code = main(["cohom", "--poly", "3", "--g", gpath, "--nmax", "12",
                 "--m", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "verdict: BOUNDED" in captured.err
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["verdict"] == "BOUNDED"
    assert out.read_text().splitlines()[0] == "n,R"


def test_cohom_reports_an_inconclusive_series(tmp_path, capsys):
    gpath = _write_g(tmp_path, GenPolynomial((1, 1)), CylFunction(1, {(0,): 1.0}))
    code, out, err = run(capsys, "cohom", "--poly", "1,1", "--g", gpath, "--nmax", "3",
                         "--m", "0")
    assert code == 0
    assert out == "n,R\n1,0.0\n2,0.5\n3,0.3333333333333333\n"
    assert err.endswith("verdict: INCONCLUSIVE\n")


def test_takagi_subcommand(capsys):
    code, out, _ = run(capsys, "takagi", "--poly", "1,1", "--q", "0.5",
                       "--k", "1", "--grid", "4")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "x,value"
    mid = rows[3].split(",")
    assert float(mid[0]) == 0.5
    assert abs(float(mid[1])) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [("--grid", "0"), ("--grid", "-3"),
                                 ("--depth", "0"), ("--depth", "-2")])
@pytest.mark.parametrize("command", [("takagi", "--poly", "1,1", "--q", "0.5"),
                                     ("parabola", "--d", "2")])
def test_takagi_and_parabola_reject_bad_grid_and_depth(capsys, command, bad):
    code, out, err = run(capsys, *command, *bad)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_g_file_poly_mismatch(tmp_path, capsys):
    poly = GenPolynomial((1, 1))
    gpath = _write_g(tmp_path, poly, CylFunction(1, {(0,): 1.0}))
    code = main(["cohom", "--poly", "1,2", "--g", gpath, "--nmax", "8"])
    captured = capsys.readouterr()
    assert code == 1 and "error" in captured.err


@pytest.mark.parametrize("poly,q", [("1,1,3", "1e-300"), ("1,1,2", "1e-200"),
                                    ("1,1,3", "5e-324"), ("1,1", "5e-324"),
                                    (",".join("1" * 31), "5e-324"),
                                    (",".join("1" * 61), "5e-324")])
def test_tiny_q_ends_in_error_not_traceback(tmp_path, capsys, poly, q):
    # every q in (0, 1/a_0) has a measure, down to the smallest subnormal:
    # tq answers with weights summing to one, also where t is subnormal, and
    # the commands that read more than the weights answer or end in a
    # documented exit code
    code, out, err = run(capsys, "tq", "--poly", poly, "--q", q)
    assert code == 0 and err == "" and "inf" not in out
    weights = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()
               if line.startswith("letter")]
    assert abs(math.fsum(weights) - 1.0) <= 1e-15
    gpath = _write_g(tmp_path, GenPolynomial.parse(poly), CylFunction(1, {(0,): 1.0}))
    for argv in (["orbit", "--n", "5", "--steps", "3"],
                 ["curve", "--g", gpath, "--nmax", "40"], ["takagi", "--grid", "4"]):
        code, out, err = run(capsys, *argv, "--poly", poly, "--q", q)
        assert code in (0, 1, 3) and "Traceback" not in err
        if code:
            assert out == "" and err.startswith("error: ")


def test_float_range_ends_in_error_not_traceback(tmp_path, capsys):
    gpath = _write_g(tmp_path, GenPolynomial((1, 1)), CylFunction(1, {(0,): 1.0}))
    walk = ("--q", "0.5", "--m", "2", "--tol", "0", "--eps", "1", "--delta", "0",
            "--align", "-1")
    for argv in (("curve", "--poly", "1,1", "--g", gpath, "--nmax", "1600") + walk,
                 ("cohom", "--poly", "1,1", "--g", gpath, "--nmax", "1600")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "exceeds float range" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_g_values_are_rejected(tmp_path, capsys, bad):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"poly": [1, 1], "N": 1, "values": {"0": %s}}' % bad)
    for argv in (("curve", "--poly", "1,1", "--q", "0.5", "--g", str(gpath),
                  "--nmax", "40"),
                 ("cohom", "--poly", "1,1", "--g", str(gpath), "--nmax", "20")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err


@pytest.mark.parametrize("argv", [
    ("dims", "--poly", "1,1", "--nmax", "-1"),
    ("cohom", "--poly", "1,1", "--g", "unread.json", "--nmax", "-1"),
    ("curve", "--poly", "1,1", "--q", "0.5", "--g", "unread.json", "--nmax", "-1"),
    ("orbit", "--poly", "1,1", "--q", "0.5", "--n", "4", "--horizon", "-1"),
])
def test_negative_levels_are_rejected(capsys, argv):
    option = argv[argv.index("-1") - 1]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {option} must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("command", ["rank", "succ"])
def test_rank_and_succ_have_no_nmax(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--poly", "1,1", "--word", "0110", "--nmax", "8"])
    assert err.value.code == 2


def test_orbit_table_grows_only_as_far_as_the_walk(capsys, built_tables):
    code, _, _ = run(capsys, "orbit", "--poly", "1,1", "--q", "0.5", "--n", "40",
                     "--steps", "200", "--seed", "0")
    assert code == 0
    code, _, _ = run(capsys, "succ", "--poly", "1,1,3", "--word", "0123401234",
                     "--steps", "500")
    assert code == 0
    # neighbours follow letter rules: neither command reads a dense table
    assert built_tables == []


def test_orbit_horizon_only_bounds_the_search(capsys):
    argv = ("orbit", "--poly", "1,1,3", "--q", "0.25", "--n", "40", "--steps", "50")
    code, out_1000, _ = run(capsys, *argv, "--horizon", "1000")
    assert code == 0
    code, out_3000, err = run(capsys, *argv, "--horizon", "3000")
    assert code == 0, err
    assert out_3000 == out_1000
    # a step that hits the horizon ends the run before any row is printed
    code, out, err = run(capsys, "orbit", "--poly", "1,1", "--q", "0.5",
                         "--word", "1111", "--horizon", "4", "--steps", "1")
    assert code == 1 and out == "" and "error: level 5 beyond horizon 4" in err


# sha256 of the CSV and of its sidecar for four orbits, as written before
# each row was rebuilt only below its step's pivot: the README example, a
# degree-2 walk, a start whose steps read above its prefix (1111 grows to
# seven letters, then eight), and twelve letters, whose labels take commas
ORBIT_PINS = [
    (("--poly", "1,1", "--q", "0.5", "--n", "40", "--steps", "200", "--seed", "0"),
     "5e28a0c3c0291720f8a360957347938c1c175cd3fdd8351e7c3995c94d5d9a88",
     "c2cc2e8beacb96c2d0714806ba4ec5ed8dba606e684da7ba24d7968f9e1a1dfc"),
    (("--poly", "1,1,3", "--q", "0.25", "--n", "40", "--steps", "50"),
     "3037f59ef053de68e7461708cf81cec2755a648f7e2af962b7883669cdf4d91d",
     "2b32851ea710fc422ffabb1eb730e01a785f76eef425f5687b4f89c393e1fe02"),
    (("--poly", "1,1", "--q", "0.5", "--word", "1111", "--steps", "60", "--seed", "2"),
     "e8d25e6d8ab1837ff2f07bce80f1aee5ea27675de8414e6a57e1dc23e58df718",
     "a29194a1ad107716cc5ce21118275e82e3a6f1f36286e0e7ea7c8367fc787870"),
    (("--poly", "1,1,10", "--q", "0.05", "--n", "30", "--steps", "100", "--seed", "1"),
     "193bf1038992f6cd2215d3658b1b143ba42cb6c2bbec2e26ac93023812b3520c",
     "988fc30b1d0cb2217783add8ec47ae959327245184ac7bd33e752e958abcca57"),
]


@pytest.mark.parametrize("argv, csv_digest, meta_digest", ORBIT_PINS,
                         ids=["readme", "p113", "grows", "commas"])
def test_orbit_bytes_are_pinned(capsys, tmp_path, argv, csv_digest, meta_digest):
    code, out, _ = run(capsys, "orbit", *argv)
    assert code == 0
    path = tmp_path / "orbit.csv"
    assert main(["orbit", *argv, "--out", str(path)]) == 0
    assert path.read_text() == out
    assert hashlib.sha256(out.encode()).hexdigest() == csv_digest
    meta = (tmp_path / "orbit.csv.meta.json").read_bytes()
    assert hashlib.sha256(meta).hexdigest() == meta_digest


def test_orbit_admits_its_sampled_prefix_before_drawing_a_letter(capsys, monkeypatch):
    # past the default horizon the sample used to end at level 1001; under a
    # higher one, or with no max_level at all, it drew letters without end
    drawn = []

    def stream(mp=None, seed=None):
        while True:
            drawn.append(0)
            yield 0

    monkeypatch.setattr(measure, "letter_stream", stream)
    argv = ("orbit", "--poly", "1,1", "--q", "0.5", "--n", "5000000")
    for horizon in ((), ("--horizon", "6000000")):
        code, out, err = run(capsys, *argv, *horizon)
        assert (code, out, drawn) == (1, "", [])
        assert err == f"error: word needs 5000000 letters, budget is {DEFAULT_ENTRY_BUDGET}\n"
    with pytest.raises(CapacityError):
        PathPrefix((), extend=stream()).prefix(5_000_000)
    assert drawn == []


@pytest.mark.parametrize("doc", [
    '{"poly": [1, 1], "N": 1, "values": {"0": "1.5", "1": true}}',
    '{"poly": [1, 1], "N": 1, "values": {"0": true}}',
    '{"poly": [true, 2.7], "N": 1, "values": {"0": 1.0}}',
])
def test_g_file_values_and_coefficients_are_not_coerced(tmp_path, capsys, doc):
    gpath = tmp_path / "g.json"
    gpath.write_text(doc)
    poly = "1,2" if "2.7" in doc else "1,1"
    code, out, err = run(capsys, "cohom", "--poly", poly, "--g", str(gpath),
                         "--nmax", "8")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("doc", [
    '{"poly": [1, 1], "N": 1.9, "values": {"0": 1.0}}',
    '{"poly": [1, 1], "N": true, "values": {"0": 1.0}}',
    '{"poly": [1, 1], "values": {"0": 1.0}}',
    '[{"poly": [1, 1], "N": 1, "values": {"0": 1.0}}]',
    '{"poly": [1, 1], "N": 1, "values": [1, 2]}',
])
def test_g_file_shape_is_checked(tmp_path, capsys, doc):
    gpath = tmp_path / "g.json"
    gpath.write_text(doc)
    code, out, err = run(capsys, "cohom", "--poly", "1,1", "--g", str(gpath),
                         "--nmax", "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and '"N"' in err


@pytest.mark.parametrize("argv,option", [
    (("orbit", "--poly", "1,1", "--q", "0.5", "--n", "4", "--steps", "-3"), "--steps"),
    (("succ", "--poly", "1,1", "--word", "0110", "--steps", "-2"), "--steps"),
    (("succ", "--poly", "1,1", "--word", "0110", "--steps", "-1", "--pred"), "--steps"),
    (("cohom", "--poly", "1,1", "--g", "unread.json", "--nmax", "8", "--m", "-2"), "--m"),
    (("curve", "--poly", "1,1", "--q", "0.5", "--g", "unread.json", "--m", "-1"), "--m"),
    (("orbit", "--poly", "1,1", "--q", "0.5", "--n", "-5", "--steps", "2"), "--n"),
])
def test_negative_counts_are_rejected(capsys, argv, option):
    value = argv[argv.index(option) + 1]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {option} must be an integer >= 0, got {value}\n"


def test_g_file_keys_naming_one_word_are_rejected(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"poly": [1, 1], "N": 2, "values": {"01": 1.0, "0,1": -5.0}}')
    code, out, err = run(capsys, "cohom", "--poly", "1,1", "--g", str(gpath),
                         "--nmax", "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "'01'" in err and "'0,1'" in err


def test_g_file_letter_outside_its_alphabet_is_refused(tmp_path, capsys):
    # from_json reads every key through word_from_string, which refuses the
    # letter before the function is built
    doc = '{"poly": [1, 1], "N": 1, "values": {"2": 1.0}}'
    text = "letter out of range in '2' (alphabet size 2)"
    with pytest.raises(ValueError) as info:
        CylFunction.from_json(doc)
    assert str(info.value) == text
    gpath = tmp_path / "g.json"
    gpath.write_text(doc)
    code, out, err = run(capsys, "cohom", "--poly", "1,1", "--g", str(gpath),
                         "--nmax", "5")
    assert (code, out, err) == (1, "", f"error: {text}\n")


def test_rank_word_past_the_dense_table_budget(capsys):
    word = "01" * 1500
    code, out, err = run(capsys, "rank", "--poly", "1,1", "--word", word)
    assert code == 0, err
    rows = out.splitlines()
    assert rows[0] == "word,n,kappa,rank,dim"
    _, n, kap, rnk, dim = rows[1].split(",")
    assert (n, kap, dim) == ("3000", "1500", str(math.comb(3000, 1500)))
    # each 1 at level j adds the words carrying 0 there: C(j - 1, kappa_{j-1} - 1)
    assert int(rnk) == 1 + sum(math.comb(j - 1, j // 2 - 1)
                               for j in range(2, 3001, 2))


def test_unrank_past_the_dense_table_budget(capsys):
    # the dense table to level 3000 would need 9006001 entries; the cone
    # below (3000, 5997) holds at most four a level
    code, out, err = run(capsys, "rank", "--poly", "1,1,3", "--level", "3000",
                         "--kappa", "5997", "--index", "7")
    assert code == 0, err
    word, n, kap, rnk, dim = out.splitlines()[1].split(",")
    assert (n, kap, rnk) == ("3000", "5997", "7")
    code, out, err = run(capsys, "rank", "--poly", "1,1,3", "--word", word)
    assert code == 0, err
    assert out.splitlines()[1].split(",") == [word, "3000", "5997", "7", dim]


def test_unrank_descends_where_the_cone_is_over_the_budget(capsys):
    # the cone below (3000, 3000) holds 4,503,001 entries; the descent from
    # there about 24,000
    code, out, err = run(capsys, "rank", "--poly", "1,1,3", "--level", "3000",
                         "--kappa", "3000", "--index", "1")
    assert code == 0, err
    word, n, kap, rnk, dim = out.splitlines()[1].split(",")
    assert word == word_to_string(minimal_word(3000, 3000, GenPolynomial((1, 1, 3))),
                                  GenPolynomial((1, 1, 3)))
    code, out, err = run(capsys, "rank", "--poly", "1,1,3", "--word", word)
    assert code == 0, err
    assert out.splitlines()[1].split(",") == [word, "3000", "3000", "1", dim]


def test_unrank_keeps_small_vertices_of_high_degree_on_the_cone(capsys):
    # the identity behind the descent at degree 60 is a 119 x 119 integer
    # solve, far dearer than the cone at (3, 5): the unrank does not wait for it
    rng = random.Random(60)
    coeffs = tuple(rng.randint(1, 9) for _ in range(61))
    text = ",".join(map(str, coeffs))
    _bezout.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "--poly", text, "--level", "3", "--kappa", "5",
                         "--index", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    poly = GenPolynomial(coeffs)
    word = next(csv.reader(out.splitlines()[1:]))[0]
    assert word == word_to_string(minimal_word(3, 5, poly), poly)
    assert type(vertex_source(poly, 3, 5)) is VertexCone
    assert _bezout(coeffs) is not None          # no repeated root: the cost chose the cone


def test_unrank_counts_its_entries_before_building(capsys):
    code, out, err = run(capsys, "rank", "--poly", "1,1", "--level", "1000000000",
                         "--kappa", "5", "--index", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_unrank_bounds_the_cone_bits_before_building(capsys):
    # 1.2 million entries of up to 3^300000 each: within the entry budget,
    # far past memory
    code, out, err = run(capsys, "rank", "--poly", "1,1,3", "--level", "300000",
                         "--kappa", "599997", "--index", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("argv", [
    # p(1) = 10^23 letters; a billion coefficients
    ["tq", "--poly", "99999999999999999999999,1", "--q", "1e-30"],
    ["parabola", "--d", "1000000000"],
])
def test_alphabets_past_the_entry_budget_are_refused_before_building(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_parabola_degree_range(capsys):
    code, out, err = run(capsys, "parabola", "--d", "150", "--grid", "2")
    assert code == 0, err
    assert len(out.splitlines()) == 4
    # the exact coder weights hold about 192 d^2 bits: counted, not built
    start = time.perf_counter()
    code, out, err = run(capsys, "parabola", "--d", "100000", "--grid", "4")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_dims_lists_no_letters(capsys):
    code, out, err = run(capsys, "dims", "--poly", "99999999999999999999999,1",
                         "--nmax", "2")
    assert code == 0, err
    assert out.splitlines()[-1] == "2,2,1"


def test_unrank_builds_no_dense_table(capsys, built_tables):
    code, out, err = run(capsys, "rank", "--poly", "1,1,3", "--level", "5",
                         "--kappa", "4", "--index", "3")
    assert code == 0, err
    assert out.splitlines()[1] == "44420,5,4,3,185"
    assert built_tables == []


@pytest.mark.parametrize("level,kap,index,message", [
    ("-1", "0", "1", "error: --level must be an integer >= 0, got -1\n"),
    ("5", "-1", "1", "error: index 1 outside [1, 0] at vertex (5, -1)\n"),
    ("5", "11", "1", "error: index 1 outside [1, 0] at vertex (5, 11)\n"),
    ("5", "4", "0", "error: index 0 outside [1, 185] at vertex (5, 4)\n"),
    ("5", "4", "186", "error: index 186 outside [1, 185] at vertex (5, 4)\n"),
])
def test_unrank_errors(capsys, level, kap, index, message):
    code, out, err = run(capsys, "rank", "--poly", "1,1,3", "--level", level,
                         "--kappa", kap, "--index", index)
    assert (code, out, err) == (1, "", message)


def test_dims_prints_integers_past_the_digit_limit(capsys):
    # C(44, 0) = (10^100)^44 has 4401 digits, past Python's default of 4300
    coeffs = (10 ** 100, 1)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "dims", "--poly", "1" + "0" * 100 + ",1",
                         "--nmax", "44")
    assert code == 0, err
    # the command restores the interpreter's limit
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    last = [line.split(",")[2] for line in out.splitlines() if line.startswith("44,")]
    assert len(last[0]) == 4401
    if limit is not None:           # parse with the limit lifted, then restore it
        sys.set_int_max_str_digits(0)
    try:
        assert [int(v) for v in last] == poly_power_row(coeffs, 44)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_takagi_past_171_factorial(capsys):
    code, out, err = run(capsys, "takagi", "--poly", "1,1", "--q", "0.5",
                         "--k", "171", "--grid", "4", "--depth", "5")
    assert code == 0, err
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["0.0"] * 5
    code, out, err = run(capsys, "takagi", "--poly", "1,1,2", "--q", "0.25",
                         "--k", "171", "--grid", "4", "--depth", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "order 171" in err


# -- exit codes for drawn command lines ----------------------------------------
#
# A small grammar over every command.  Each option is drawn on its own, so a
# required one (upper case below) is now and then missing: a usage error, 2.
# Values come from small ranges with negatives; polynomials, q, the float
# knobs and the g files take values inside and outside their domains.

_INT = st.integers(-3, 12).map(str)
_SMALL = st.integers(-2, 4).map(str)
_POLY = st.sampled_from(["1,1", "1,1", "1,1,2", "3", "2,1", "1,0", "x"])
_Q = st.sampled_from(["0.5", "0.25", "0.3", "0", "1", "1.5", "-0.2", "nan", "1e-300"])
_FLOAT = st.sampled_from(["0.1", "0.05", "0", "0.3", "1.5", "-1", "nan"])
_WORD = st.text("012349,", max_size=6)
_G = st.sampled_from(["g11.json", "g11.json", "gconst.json", "g3.json", "missing.json"])
_GRAMMAR = {
    "dims": {"POLY": _POLY, "NMAX": _INT},
    "tq": {"POLY": _POLY, "Q": _Q},
    "rank": {"POLY": _POLY, "word": _WORD, "level": _INT, "kappa": _INT,
             "index": _INT},
    "succ": {"POLY": _POLY, "WORD": _WORD, "steps": _INT, "pred": None},
    "orbit": {"POLY": _POLY, "Q": _Q, "steps": _INT, "word": _WORD, "n": _INT,
              "seed": _INT, "horizon": _INT},
    "curve": {"POLY": _POLY, "Q": _Q, "G": _G, "eps": _FLOAT, "delta": _FLOAT,
              "m": _SMALL, "tol": _FLOAT, "seed": _INT, "align": _SMALL,
              "nmax": st.sampled_from(["-1", "0", "12", "40", "300"])},
    "cohom": {"POLY": _POLY, "G": _G, "NMAX": _INT, "m": _SMALL},
    "takagi": {"POLY": _POLY, "Q": _Q, "grid": _SMALL,
               "k": st.one_of(st.integers(-2, 4), st.sampled_from([23, 171, 200])).map(str),
               "depth": st.integers(-2, 8).map(str)},
    "parabola": {"D": _INT, "grid": _SMALL, "depth": _SMALL},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    options = {**_GRAMMAR[command], "out": st.sampled_from(["out.csv", "no/dir/out.csv"])}
    for name, values in options.items():
        if draw(st.integers(0, 9)) < (9 if name.isupper() else 4):
            option = "--" + name.lower()
            argv += [option] if values is None else [option, draw(values)]
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    (path / "g11.json").write_text('{"poly": [1, 1], "N": 1, "values": {"0": 1.0}}')
    (path / "g3.json").write_text('{"poly": [3], "N": 2, "values": {"01": 1.0, "12": -0.5}}')
    (path / "gconst.json").write_text('{"poly": [1, 1], "N": 1, "values": {"0": 2.0, "1": 2.0}}')
    return path


@settings(max_examples=300, deadline=None)
@example(["takagi", "--poly", "1,1", "--q", "0.5", "--k", "171", "--grid", "1",
          "--depth", "5"])
@example(["takagi", "--poly", "1,1,2", "--q", "0.25", "--k", "171", "--grid", "1",
          "--depth", "5"])
@example(["tq", "--poly", "1,1,2", "--q", "1e-300"])
@given(argv=_argv())
def test_drawn_command_lines_end_in_a_documented_exit_code(cli_files, argv):
    argv = [str(cli_files / a) if a.endswith((".json", ".csv")) else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
