"""What each entry point loads: a library module is imported when a public name
or a command first needs it, so ``import polyadic``, ``--help`` and a usage
error load none of them.  Each case runs in a fresh interpreter."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyadic

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENTRY = {"polyadic", "polyadic.cli", "polyadic.errors"}
G_FILE = '{"poly": [1, 1], "N": 1, "values": {"0": 1.0}}'


def _loaded(script, cwd):
    """The polyadic modules in sys.modules after ``script`` runs in a fresh interpreter."""
    script += ("\nimport sys\n"
               "print(' '.join(m for m in sys.modules if m.partition('.')[0] == 'polyadic'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def _main(argv):
    """A script that runs the CLI on ``argv``, its output and any SystemExit swallowed."""
    return ("import contextlib, io\n"
            "from polyadic.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass\n")


@pytest.mark.parametrize("script, expected", [
    pytest.param("import polyadic", {"polyadic"}, id="import-polyadic"),
    pytest.param(_main(["--help"]), ENTRY, id="help"),
    pytest.param(_main(["dims", "--nmax", "3"]), ENTRY, id="usage-error"),
])
def test_an_entry_point_alone_loads_no_library_module(tmp_path, script, expected):
    assert _loaded(script, tmp_path) == expected


POLY = {"polyadic.poly"}
PATHS = POLY | {"polyadic.paths"}
MEASURE = PATHS | {"polyadic.measure"}
TAKAGI = MEASURE | {"polyadic.takagi"}


@pytest.mark.parametrize("argv, modules", [
    (["dims", "--poly", "1,1", "--nmax", "3"], POLY),
    (["rank", "--poly", "1,1", "--word", "0110"], PATHS),
    (["succ", "--poly", "1,1", "--word", "0110"], PATHS),
    (["tq", "--poly", "1,1", "--q", "0.5"], MEASURE),
    (["orbit", "--poly", "1,1", "--q", "0.5", "--n", "8", "--steps", "3"], MEASURE),
    (["curve", "--poly", "1,1", "--q", "0.5", "--g", "g.json", "--nmax", "40"],
     MEASURE | {"polyadic.ergodic"}),
    (["cohom", "--poly", "1,1", "--g", "g.json", "--nmax", "10"],
     PATHS | {"polyadic.ergodic"}),
    (["takagi", "--poly", "1,1", "--q", "0.5", "--grid", "4"], TAKAGI),
    (["parabola", "--d", "2", "--grid", "4"], TAKAGI),
], ids=["dims", "rank", "succ", "tq", "orbit", "curve", "cohom", "takagi", "parabola"])
def test_each_command_loads_only_the_modules_it_uses(tmp_path, argv, modules):
    (tmp_path / "g.json").write_text(G_FILE)
    assert _loaded(_main(argv), tmp_path) == ENTRY | modules


def test_a_submodule_resolves_after_a_bare_import(tmp_path):
    script = ("import polyadic\n"
              "assert polyadic.poly.DimTable is polyadic.DimTable\n"
              "assert polyadic.takagi.MIRROR_SIGN == polyadic.MIRROR_SIGN\n")
    assert _loaded(script, tmp_path) == {"polyadic", "polyadic.errors", "polyadic.poly",
                                         "polyadic.paths", "polyadic.measure",
                                         "polyadic.takagi"}


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in polyadic.__all__:
        value = getattr(polyadic, name)
        module = importlib.import_module(f"polyadic.{polyadic._SOURCE[name]}")
        assert getattr(module, name) is value
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
        assert vars(polyadic)[name] is value        # kept after the first access


def test_dir_and_the_star_import_cover_every_public_name():
    assert set(polyadic.__all__) <= set(dir(polyadic))
    assert {"cli", "poly", "takagi"} <= set(dir(polyadic))
    ns = {}
    exec("from polyadic import *", ns)
    assert set(polyadic.__all__) == set(ns) - {"__builtins__"}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'polyadic' has no attribute 'nosuch'"):
        polyadic.nosuch
    with pytest.raises(ImportError):
        exec("from polyadic import nosuch", {})
