"""The package namespace is exactly what the README tour and the demos use."""

import ast
import builtins
import re
from fractions import Fraction
from pathlib import Path

import pytest

import turangap

ROOT = Path(__file__).resolve().parents[1]


def _readme_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


def _free_names(tree: ast.AST) -> set[str]:
    """Names a module reads but never binds itself."""
    bound = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} - bound


def _used_names() -> set[str]:
    """Names the demos import from turangap, plus those the README tour reads."""
    used = _free_names(ast.parse(_readme_block()))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "turangap":
                used.update(a.name for a in node.names)
    return used


def test_readme_tour_runs_on_the_star_import():
    ns: dict = {}
    exec(compile(_readme_block(), "README.md", "exec"), ns)
    assert abs(ns["res"].value - 4 / 9) < 1e-9
    assert ns["a"].r == 3 and ns["lad"].m == 6


def test_all_is_exactly_what_readme_and_demos_use():
    used = _used_names()
    assert set(turangap.__all__) == used
    assert len(set(turangap.__all__)) == len(turangap.__all__)
    for name in used:
        assert hasattr(turangap, name), name
    # the README's exact values come out of the trimmed namespace
    assert turangap.max_step(4) == (Fraction(9, 16), (2, 1, 1, 0))


def test_names_load_on_first_use_and_dir_lists_them():
    assert set(turangap.__all__) <= set(dir(turangap))
    assert turangap.maximize is turangap.simplex.maximize
    with pytest.raises(AttributeError, match="no attribute 'compute'"):
        getattr(turangap, "compute")
