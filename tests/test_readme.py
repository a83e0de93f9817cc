import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(blocks[0], ns)
    # the values its comments state
    assert ns["table"].dim(2, 2) == 7
    assert ns["rank"](ns["w"], ns["table"]) == 10
    assert ns["diag"]["converged_at"] == ns["curve"].n
