"""Every name the package exports has a caller outside the tests.

The package source (without ``__init__.py``), the demos and the benchmark
are parsed.  An exported name counts as used only where it is read:

- as a bare name, in a file that imports it from the package, or in the
  package module that defines it;
- as an attribute read off a name bound to the package or one of its
  submodules (``mt.fit``, ``tio.read_record``).

Imports, assignments and same-named locals or attributes of other objects
do not count.
"""

import ast
import pathlib

import maxent_tomo

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "maxent_tomo"
PACKAGE_DIR = ROOT / "src" / PACKAGE
SUBMODULES = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}


def _exported() -> dict:
    """Each exported name, mapped to the submodule that defines it."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _reads(path: pathlib.Path, exported: dict) -> set:
    """The exported names that one file reads."""
    in_package = path.parent == PACKAGE_DIR
    tree = ast.parse(path.read_text())
    names = {}  # local name -> exported name
    if in_package:
        names = {name: name for name, module in exported.items() if module == path.stem}
    modules = set()  # local names bound to the package or a submodule
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    # `import maxent_tomo.cli` binds `maxent_tomo`
                    modules.add(alias.asname or PACKAGE)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                from_package = in_package
            else:
                from_package = node.module.split(".")[0] == PACKAGE
            if not from_package:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module in (None, PACKAGE) and alias.name in SUBMODULES:
                    modules.add(local)
                else:
                    names[local] = alias.name

    def is_package(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in modules
        return (isinstance(expr, ast.Attribute) and expr.attr in SUBMODULES
                and is_package(expr.value))

    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names:
                read.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and is_package(node.value)):
            read.add(node.attr)
    return read & set(exported)


def _used() -> set:
    exported = _exported()
    files = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    return set().union(*(_reads(path, exported) for path in files))


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported = set(_exported())
    assert exported <= set(dir(maxent_tomo))
    assert sorted(exported - _used()) == []


def test_only_reads_through_the_package_count(tmp_path):
    """A same-named local, an attribute of another object and an import
    alone are not uses; reads through the package and its imports are."""
    script = tmp_path / "script.py"
    script.write_text(
        "import maxent_tomo as mt\n"
        "import maxent_tomo.cli\n"
        "from maxent_tomo import io as tio, wigner_eval, fidelity as fid\n"
        "from maxent_tomo import entropy\n"
        "deviation = other.Deviation()\n"
        "other.canonical_state(deviation)\n"
        "mt.fit(tio.read_record(0), fid, maxent_tomo.cli.main)\n"
        "wigner_eval(maxent_tomo.io.write_record)\n"
    )
    assert _reads(script, _exported()) == {
        "fit", "read_record", "fidelity", "wigner_eval", "write_record",
    }
