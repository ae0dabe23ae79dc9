"""The package carries no `assert` statement: `python -O` strips them, so an
invariant written as one would silently stop being checked."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsscarrier"
SOURCES = sorted(SRC.rglob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"
