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
import importlib
import os
import pathlib
import subprocess
import sys

import maxent_tomo

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "maxent_tomo"
PACKAGE_DIR = ROOT / "src" / PACKAGE
SUBMODULES = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}


def _exported() -> dict:
    """Each exported name, mapped to the submodule that defines it: the
    table the package's lazy namespace imports from."""
    return dict(maxent_tomo._EXPORTS)


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


def test_the_table_names_each_export_where_it_is_defined():
    """A table that read empty would let the caller test below pass on no
    names at all.  The table is the one export list: no submodule keeps an
    ``__all__`` of its own to fall out of step with it."""
    exported = _exported()
    assert exported and set(exported.values()) <= SUBMODULES
    for name, module in exported.items():
        submodule = importlib.import_module(f"{PACKAGE}.{module}")
        assert getattr(maxent_tomo, name) is getattr(submodule, name), name
    lists = [m for m in sorted(SUBMODULES)
             if hasattr(importlib.import_module(f"{PACKAGE}.{m}"), "__all__")]
    assert lists == []


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported = set(_exported())
    assert exported and exported <= set(dir(maxent_tomo))
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


NAMESPACE_PROBE = """
import sys
import maxent_tomo
loaded = sorted(m for m in sys.modules if m.startswith("maxent_tomo."))
assert loaded == [], loaded
# submodules resolve through the namespace as attributes, as perfbench reads them
assert maxent_tomo.maxent is sys.modules["maxent_tomo.maxent"]
assert getattr(maxent_tomo, "measurement").ObservableSet is maxent_tomo.ObservableSet
from maxent_tomo import fit, io
assert fit is maxent_tomo.maxent.fit and io is sys.modules["maxent_tomo.io"]
assert set(maxent_tomo._EXPORTS) <= set(dir(maxent_tomo))
assert sorted(maxent_tomo.__all__) == sorted(maxent_tomo._EXPORTS)
names = {}
exec("from maxent_tomo import *", names)
assert all(names[n] is getattr(maxent_tomo, n) for n in maxent_tomo.__all__)
try:
    maxent_tomo.no_such_name
except AttributeError as exc:
    assert "'no_such_name'" in str(exc), exc
else:
    raise AssertionError("no AttributeError")
"""


def test_the_namespace_imports_each_name_on_first_access():
    """In a fresh interpreter: importing the package loads no submodule;
    names, submodules, `from ... import` and `import *` resolve on access;
    an unknown name raises AttributeError naming it."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run([sys.executable, "-c", NAMESPACE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
