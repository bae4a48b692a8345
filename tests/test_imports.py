"""Static checks: no module of the package, of its tests or of the
benchmark imports a name it never uses, and no module of the package
defines a helper, method or property that nothing names, or a slot that
nothing reads; start-up imports only what `check` and `eval` run; the
README states the package's line count; and every source parses as the
oldest Python that pyproject.toml admits."""
import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualpcf

PACKAGE = Path(dualpcf.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# the package, its tests and the benchmark
SOURCES = [p for d in (PACKAGE, ROOT / "tests", ROOT / "bench")
           for p in sorted(d.glob("*.py"))]


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            # re-exports listed in __all__ count as uses
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@functools.lru_cache(maxsize=None)
def name_sites():
    """Each word of the sources, tests and benchmark -> its (file, line)s."""
    sites = {}
    for path in [p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py")]:
        for i, line in enumerate(path.read_text().splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                sites.setdefault(word, set()).add((path, i))
    return sites


def dead_helpers(module: Path):
    """Module-level functions and classes of `module`, and the methods and
    properties of its classes, that no line outside their own definition
    names: a helper that only calls itself is dead.  Dunders, which Python
    calls itself (a module's `__getattr__` included), are not helpers."""
    tree = ast.parse(module.read_text())
    defs = [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [(f"{cls.name}.{node.name}", node)
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    return sorted(qualname for qualname, node in defs
                  if not (node.name.startswith("__")
                          and node.name.endswith("__"))
                  and not name_sites().get(node.name, set())
                  - {(module, i) for i in range(node.lineno,
                                                node.end_lineno + 1)})


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_dead_helpers(module):
    assert dead_helpers(PACKAGE / module) == []


@functools.lru_cache(maxsize=None)
def attribute_reads():
    """The attribute names the sources, tests and benchmark read: `x.name`
    that is not a plain assignment target, and a `getattr` string."""
    reads = set()
    for path in [p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.AugAssign) \
                    and isinstance(node.target, ast.Attribute):
                reads.add(node.target.attr)
            elif isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "getattr" \
                    and isinstance(node.args[1], ast.Constant):
                reads.add(node.args[1].value)
    return reads


def dead_slots(module: Path):
    """The `__slots__` names of `module`'s classes that nothing reads and
    that the class does not list in `_fields`, which `Struct` reads."""
    dead = []
    for cls in ast.parse(module.read_text()).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        slots, fields = [], set()
        for node in cls.body:
            names = {t.id for t in getattr(node, "targets", ())
                     if isinstance(t, ast.Name)}
            if "__slots__" in names:
                slots = ast.literal_eval(node.value)
            if "_fields" in names:
                parts = list(ast.walk(node.value))
                fields = {p.value for p in parts if isinstance(p, ast.Constant)}
                if any(getattr(p, "id", None) == "__slots__" for p in parts):
                    fields |= set(slots)
        dead += [f"{cls.name}.{s}" for s in slots
                 if s not in fields and s not in attribute_reads()]
    return dead


def test_no_dead_slots():
    assert [slot for p in sorted(PACKAGE.glob("*.py"))
            for slot in dead_slots(p)] == []


def imported_modules(source: str):
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_dataclasses(module):
    # the decorator and its imports (inspect, ast, dis, tokenize) cost
    # about 40 ms of every command's start-up
    source = (PACKAGE / module).read_text()
    assert "dataclasses" not in imported_modules(source)


def test_cli_start_up_loads_only_what_eval_runs():
    # `verify` and `examples` import the analysis and corpus modules
    # themselves, and only JSON output imports `json`, so `check` and
    # `eval` never load them; only the tests run the literal reducer, so
    # the package's public names do not load it either, and the name
    # `typecheck` is the submodule
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    for start in ("import dualpcf.cli", "from dualpcf import *"):
        code = (f"import sys; before = set(sys.modules); {start}; "
                "import dualpcf; print(dualpcf.typecheck is "
                "sys.modules['dualpcf.typecheck'], "
                "*sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=60)
        submodule, *loaded = out.stdout.split()
        assert submodule == "True", start
        assert "dualpcf.machine" in loaded, start
        assert set(loaded) & {"dataclasses", "inspect", "json",
                              "dualpcf.analysis", "dualpcf.corpus",
                              "dualpcf.reducer"} == set(), start


def test_readme_states_the_package_line_count():
    # the README's figure for the package source, as `wc -l` counts it
    lines = sum(p.read_text().count("\n") for p in PACKAGE.glob("*.py"))
    stated = re.search(r"\(`src/dualpcf/\*\.py`\)\s+is\s+([\d,]+)\s+lines",
                       (ROOT / "README.md").read_text())
    assert stated and int(stated[1].replace(",", "")) == lines


def test_sources_parse_as_python_3_10():
    # pyproject.toml's `requires-python` floor; the suite itself runs on
    # a later Python, which would accept newer syntax
    assert len(SOURCES) > 20
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
