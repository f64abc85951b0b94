"""Each input rule is written once, in ``mcmpricer.errors``: no other module copies one."""

import ast
import re
from pathlib import Path

import pytest

import mcmpricer

SRC = Path(mcmpricer.__file__).parent
# Each idiom as ``ast.unparse`` prints a comparison or a boolean expression
IDIOMS = {
    "integer": re.compile(r"isinstance\((.+), bool\) or not isinstance\(\1, "),
    "seed range": re.compile(r"\b0 <= .+ < SEED_LIMIT\b"),
    "finite and positive": re.compile(r"(\b0(\.0)? < |> 0(\.0)?\b).*< (np|math)\.inf\b"),
}
# The CLI's own boundary: its ConfigError names the config field
EXEMPT = ("bench.py", "RunConfig", "validate")


def _copies(path: Path) -> set[tuple[str, int]]:
    """(rule, line) of every idiom in the module, outside the exempt method."""
    tree = ast.parse(path.read_text())
    skip = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and (path.name, cls.name) == EXEMPT[:2]:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == EXEMPT[2]:
                    skip.update(range(fn.lineno, fn.end_lineno + 1))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BoolOp, ast.Compare, ast.BinOp)) and node.lineno not in skip:
            text = ast.unparse(node)
            found.update((rule, node.lineno) for rule, idiom in IDIOMS.items() if idiom.search(text))
    return found


def test_errors_holds_every_rule():
    assert {rule for rule, _ in _copies(SRC / "errors.py")} == set(IDIOMS)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_no_other_module_copies_a_rule(path):
    assert _copies(path) == set()
