"""The README's Python examples run as written.

Every ```python block of README.md runs in order, in one namespace and
inside a temporary directory, and prints the values its comments state.
"""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: Block index -> the lines it prints, each stated in a ``# ...`` comment.
STATED = {
    0: ["(25.0, 25.0, 25.0, 25.0)", "(100.0, 75.0, 50.0, 25.0, 0.0)", "10.0"],
    1: ["17.0 35.0 -18.0"],
}


def _python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)


def test_python_blocks_print_what_their_comments_state(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks()
    assert len(blocks) == 4
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    printed = []
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
        printed.append(capsys.readouterr().out.splitlines())
    for i, lines in STATED.items():
        for line in lines:
            assert f"# {line}" in blocks[i]
        assert printed[i] == lines
    # the simulation blocks state no values; each prints one line
    assert [len(out) for out in printed[2:]] == [1, 1]
