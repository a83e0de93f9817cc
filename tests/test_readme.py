import re
import shlex
from pathlib import Path

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
