"""Each input rule is written once, in ``mcmpricer.errors``: no other module copies one,
and the CLI's config check leaves every rule the library checks to the library."""

import ast
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import mcmpricer
from mcmpricer import errors
from mcmpricer.errors import DimensionMismatchError

SRC = Path(mcmpricer.__file__).parent
# Each idiom as ``ast.unparse`` prints a comparison or a boolean expression
IDIOMS = {
    # a type check that turns a bool away, whatever the order or polarity of its two isinstance calls
    "type, not a bool": re.compile(r"\bisinstance\((.+), bool\).* isinstance\(\1, "
                                   r"|\bisinstance\((.+), .+ isinstance\(\2, bool\)"),
    "seed range": re.compile(r"\b0 <= .+ < SEED_LIMIT\b"),
    "finite and positive": re.compile(r"(\b0(\.0)? < |> 0(\.0)?\b).*< (np|math)\.inf\b"),
}
# The config fields that only the CLI reads: the library never sees them
CLI_FIELDS = {"log2_paths", "out"}


def _copies(path: Path) -> set[tuple[str, int]]:
    """(rule, line) of every idiom in the module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BoolOp, ast.Compare, ast.BinOp)):
            text = ast.unparse(node)
            found.update((rule, node.lineno) for rule, idiom in IDIOMS.items() if idiom.search(text))
    return found


def test_errors_holds_every_rule():
    assert {rule for rule, _ in _copies(SRC / "errors.py")} == set(IDIOMS)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_no_other_module_copies_a_rule(path):
    assert _copies(path) == set()


@pytest.mark.parametrize("rule,values,error", [
    (errors.require_integer, {"n": 2.5}, TypeError),
    (errors.require_real, {"n": True}, TypeError),
    (partial(errors.require_count, DimensionMismatchError), {"n": 0}, DimensionMismatchError),
    (errors.require_seed, {"seed": -1}, ValueError),
    (errors.require_positive, {"n": np.array([1.0, np.nan])}, ValueError),
    (errors.require_finite, {"n": np.inf}, ValueError),
    (partial(errors.require_choice, ("a", "b")), {"n": "c"}, ValueError),
])
def test_each_rule_names_the_argument_it_rejects(rule, values, error):
    with pytest.raises(error) as exc:
        rule(**values)
    assert exc.value.argument == next(iter(values))


def test_config_validation_compares_only_the_cli_fields():
    # a comparison on any other field, or on a value read from one, restates a library rule
    tree = ast.parse((SRC / "bench.py").read_text())
    config = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    validate = next(node for node in config.body
                    if isinstance(node, ast.FunctionDef) and node.name == "validate")
    for node in ast.walk(validate):
        if isinstance(node, ast.Compare):
            read = {attr.attr for attr in ast.walk(node) if isinstance(attr, ast.Attribute)
                    and isinstance(attr.value, ast.Name) and attr.value.id == "self"}
            assert read and read <= CLI_FIELDS, f"line {node.lineno}: {ast.unparse(node)}"
