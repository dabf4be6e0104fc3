"""Every name the package exports has a caller outside the tests.

The package source (without ``__init__.py``), the demos and the benchmark
are parsed; an exported name counts as used where it appears as a name or
an attribute, never where it is only imported.
"""

import ast
import pathlib

import maxent_tomo

ROOT = pathlib.Path(__file__).resolve().parent.parent

# each is the subject or the reference of one acceptance-6 property sweep
TESTED_ONLY = {
    "deviation_gradient",
    "hermitian_expm",
    "ideal_quadrature_distribution",
    "wigner_marginal",
}


def _exported() -> set:
    tree = ast.parse((ROOT / "src" / "maxent_tomo" / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used() -> set:
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported = _exported()
    assert exported <= set(dir(maxent_tomo))
    assert TESTED_ONLY <= exported
    assert sorted(exported - TESTED_ONLY - _used()) == []


def test_allowlisted_names_are_still_unused_outside_the_tests():
    # a name that gains a caller leaves the allowlist
    assert sorted(TESTED_ONLY & _used()) == []
