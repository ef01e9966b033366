"""The README's ``python`` examples run, and return what their comments say."""

import ast
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def _run(block):
    """Run a block statement by statement; returns {source: (value,
    comment)} for each expression statement that has a comment."""
    ns, out = {}, {}
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     ns)
        source, _, comment = lines[stmt.lineno - 1].partition("#")
        if comment:
            out[source.strip()] = (value, comment.strip())
    return out


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


def test_readme_library_example():
    said = _run(BLOCKS[0])
    value, comment = said["s.lorentzian"]
    assert value is True and comment.startswith("True:")
    value, comment = said["psi_matrix(s, 1, 2)"]
    assert repr(value) == comment == "Matrix[-3 -8 0; 8 21 0; 12 36 1]"
    value, comment = said["res.t_word, res.model_index"]
    assert value == ((1,), 1) and comment == "(1,), 1"
    value, comment = said["verify_free(build_system(2, 3), depth=4)"]
    assert (value.words_checked, value.collisions) == (936, 0)
    assert comment == "936 words, 0 collisions"


def test_readme_symmetric_example():
    said = _run(BLOCKS[1])
    value, comment = said["sym_relation_check()"]
    assert value is True and comment.startswith("True:")
    value, comment = said["d_classes()"]
    assert value == ((-2, 2, 6), (2, -2, 6)) and repr(value) == comment
