import re
import shlex
from pathlib import Path
from types import ModuleType

import polyadic

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(blocks[0], ns)
    # the values its comments state
    assert ns["table"].dim(2, 2) == 7
    assert ns["rank"](ns["w"], ns["poly"]) == 10
    assert ns["diag"]["converged_at"] == ns["curve"].n


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    from polyadic.cli import main

    text = README.read_text()
    files = re.findall(r"`([\w.]+\.json)`[^`]*```json\n(.*?)```", text, re.S)
    assert [name for name, _ in files] == ["g.json", "g3.json"]
    for name, body in files:
        (tmp_path / name).write_text(body)
    lines = re.findall(r"^    polyadic (.*)$", text, re.M)
    assert len(lines) == 11
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)) == 0, (line, capsys.readouterr().err)


# every name the package exported before its submodules were left out
EXPORTS = {
    "CapacityError", "CylFunction", "DegenerateCurve", "DimTable", "DivisionByZeroJet",
    "GenPolynomial", "HCoeffs", "HorizonExhausted", "Jet", "LetterTable", "MIRROR_SIGN",
    "MaximalPath", "MeasureParams", "MinimalPath", "NoConvergence", "NoRoot",
    "PathPrefix", "PolyadicError", "PolygonalCurve", "PrefixExhausted",
    "RankOutOfRange", "central_vertex", "coding_map", "cohomology_verdict",
    "curve_value", "cylinder_measure", "decode_digits", "encode_theta",
    "extract_limiting_curve", "fluctuation_curve", "h_coeffs", "iter_tower",
    "jet_const", "jet_var", "jump", "kappa", "letter_stream", "letter_table",
    "maximal_word", "measure_params", "measure_ray", "minimal_word", "node_grid",
    "parabola_profile", "predecessor", "prefix_walk", "rank", "sample_word",
    "self_affinity_residual", "solve_t", "stationary_points", "successor",
    "sup_distance", "t_jet", "takagi_function", "tower_total", "unrank",
    "weight_residual", "word_from_string", "word_to_string"}


def test_star_import_leaves_the_callers_names_alone():
    # the sketch starts with a star import; submodules are not exported, so
    # a caller's own `poly` or `paths` survives it
    assert not [n for n in polyadic.__all__ if isinstance(getattr(polyadic, n), ModuleType)]
    assert set(polyadic.__all__) == EXPORTS
    ns = {"poly": "mine", "paths": "mine"}
    exec("from polyadic import *", ns)
    assert ns["poly"] == ns["paths"] == "mine"
    assert ns["rank"] is polyadic.rank
