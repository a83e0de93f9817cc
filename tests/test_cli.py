import json

import pytest

from polyadic import CylFunction, GenPolynomial
from polyadic.cli import main


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


def test_dims_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["dims", "--nmax", "3"])
    assert err.value.code == 2


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


def test_succ_and_pred(capsys):
    code, out, _ = run(capsys, "succ", "--poly", "1,1", "--word", "0110")
    assert code == 0 and out.strip() == "1001"
    code, out, _ = run(capsys, "succ", "--poly", "1,1", "--word", "1001", "--pred")
    assert code == 0 and out.strip() == "0110"


def test_rank_round_trip(capsys):
    code, out, _ = run(capsys, "rank", "--poly", "1,1,3", "--word", "04120")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    word, n, kap, idx = row[0], int(row[1]), int(row[2]), int(row[3])
    code, out, _ = run(capsys, "rank", "--poly", "1,1,3", "--level", str(n),
                       "--kappa", str(kap), "--index", str(idx))
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[0] == word


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
