"""Static checks: no module of the package imports a name it never uses,
and none defines a helper that nothing names."""
import ast
import functools
import re
from pathlib import Path

import pytest

import dualpcf

PACKAGE = Path(dualpcf.__file__).resolve().parent


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


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


ROOT = Path(__file__).resolve().parents[1]


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
    """Module-level functions and classes of `module` that no line other
    than their own definition names."""
    tree = ast.parse(module.read_text())
    return sorted(node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not name_sites().get(node.name, set())
                  - {(module, node.lineno)})


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_dead_helpers(module):
    assert dead_helpers(PACKAGE / module) == []
