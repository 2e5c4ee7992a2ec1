"""The README's examples: every ``$ qarrow ...`` command in its text blocks,
run in-process on the Quick start program, prints the output shown under
it, byte for byte.  The ``--json`` examples that the README shortens with
``...`` are skipped.  The Python API block runs, and the values of its
expression statements are the densities its comments name."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from qarrow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# a deviation below this is rounding noise, which differs between numpy builds
NOISE = 1e-12
DEVIATION = re.compile(r"max deviation (\S+)\)")


def text_blocks(markdown):
    return re.findall(r"^```text\n(.*?)^```", markdown, re.M | re.S)


def examples(blocks):
    """(argv, expected stdout) for each command of the blocks."""
    out = []
    for block in blocks:
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ qarrow "):
                continue
            command, _, shown = chunk.partition("\n")
            out.append((shlex.split(command[len("$ qarrow "):]),
                        shown.rstrip("\n") + "\n"))
    return out


def without_noise(text):
    """`text` with each deviation below NOISE replaced by a placeholder."""
    def mark(m):
        return "max deviation <noise>)" if float(m[1]) < NOISE else m[0]
    return DEVIATION.sub(mark, text)


BLOCKS = text_blocks(README.read_text(encoding="utf-8"))
EXAMPLES = [(argv, want) for argv, want in examples(BLOCKS)
            if "..." not in want]


def test_the_readme_has_its_examples():
    assert len(EXAMPLES) == 11
    assert len(examples(BLOCKS)) - len(EXAMPLES) == 3


@pytest.mark.parametrize("argv,want", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(argv, want, tmp_path, monkeypatch, capsys):
    (tmp_path / "demo.qarr").write_text(BLOCKS[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    main(argv)
    assert without_noise(capsys.readouterr().out) == without_noise(want)


def test_readme_python_block():
    import numpy as np

    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace, shown = {}, []
    for stmt in ast.parse(blocks[0]).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
    half, one = shown                       # I/2, then |1><1|
    assert np.abs(half - np.eye(2) / 2).max() < NOISE
    assert np.abs(one - np.diag([0.0, 1.0])).max() < NOISE
