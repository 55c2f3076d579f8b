"""The README's Python examples run as written.

Every ```python block of README.md runs in order, in one namespace and
inside a temporary directory, and prints the values its comments state.
"""
import dataclasses
import re
from pathlib import Path

from execsched import RecursionConfig

README = Path(__file__).resolve().parents[1] / "README.md"

#: Block index -> the lines it prints, each stated in a ``# ...`` comment.
STATED = {
    0: ["(25.0, 25.0, 25.0, 25.0)", "(100.0, 75.0, 50.0, 25.0, 0.0)", "10.0"],
    1: ["17.0 35.0 -18.0"],
}


#: Solver settings a config may no longer name; each exits 2 as unknown.
RETIRED_SOLVER_FIELDS = {
    "golden_iters", "foc_tol_factor", "foc_max_iter",
    "grid_lo_frac", "refine", "regression_samples", "regression_degree", "newton_iters",
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


def test_solver_bullet_names_the_recursion_config_fields():
    text = README.read_text(encoding="utf-8")
    bullet = re.search(r"^- `solver`: (.*?)\n(?=- )", text, re.DOTALL | re.MULTILINE)
    knobs, _, rest = " ".join(bullet.group(1).split()).partition(")")
    assert re.findall(r"`(\w+)`", knobs) == [f.name for f in dataclasses.fields(RecursionConfig)]
    (retired,) = [s for s in re.split(r"(?<=\.) ", rest) if "exits 2" in s]
    assert set(re.findall(r"`(\w+)`", retired)) == RETIRED_SOLVER_FIELDS
    # the retired names appear nowhere else in the README
    for name in RETIRED_SOLVER_FIELDS:
        assert len(re.findall(rf"\b{name}\b", text)) == 1, name
