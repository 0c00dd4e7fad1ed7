"""Source scans: every import in the sources, tests and demos is used,
the package never takes numpy's hashing unique, and it asks whether a
value is an integer in one place only.

A name bound by an import must be read somewhere in its module. A
package's `__init__.py` imports to re-export, so it is left out. The
scans are plain `ast`, so they need no linter.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "import scipy.sparse\nfrom a.b import c, d\n"
        "np.zeros(c)\nscipy.sparse.eye(d)\n"
    )
    assert unused_imports(source) == ["os"]


def test_no_unused_imports():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {"src", "tests", "demos"}
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in FILES}
    assert {name: unused for name, unused in found.items() if unused} == {}


def hashed_unique_calls(source):
    """Lines where `source` reaches numpy's hashing unique: np.unique (or
    numpy.unique) called for the values alone, np.unique_values, or
    either imported by name from numpy. The forms that also return
    indices, an inverse or counts sort, and are left alone."""
    sorting = {"return_index", "return_inverse", "return_counts"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            lines.extend(node.lineno for alias in node.names
                         if alias.name in ("unique", "unique_values"))
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        values_only = (node.func.attr == "unique" and len(node.args) < 2
                       and not sorting & {kw.arg for kw in node.keywords})
        if values_only or node.func.attr == "unique_values":
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_flags_hashed_unique():
    source = (
        "import numpy as np\nfrom numpy import sort, unique_values\n"
        "keys = np.sort(x)\nvalues = np.unique(keys)\n"
        "keys, inverse = np.unique(keys, return_inverse=True)\n"
        "mesh.unique_edges()\nnumpy.unique_values(keys)\n"
    )
    assert hashed_unique_calls(source) == [2, 4, 7]


def test_package_does_not_hash_for_unique_values():
    # numpy 2.x answers np.unique for the values alone by hashing, many
    # times slower than np.sort on int64 keys
    found = {str(path.relative_to(ROOT)): hashed_unique_calls(path.read_text())
             for path in sorted((ROOT / "src" / "equimesh").rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}, (
        "sort the keys and keep equimesh.mesh._run_starts of them "
        "instead of np.unique"
    )


def integer_type_tests(source):
    """Names of the functions (innermost, or "<module>") in which `source`
    asks `isinstance` whether a value is an int or a numpy integer, one per
    such call, in line order."""
    tree = ast.parse(source)
    spans = sorted((node.lineno, node.end_lineno, node.name) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    names = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if {ast.unparse(kind) for kind in kinds} & {"int", "np.integer", "numpy.integer"}:
            inside = [name for lo, hi, name in spans if lo <= node.lineno <= hi]
            names.append((node.lineno, inside[-1] if inside else "<module>"))
    return [name for _, name in sorted(names)]


def test_scan_flags_integer_type_tests():
    source = (
        "import numpy as np\n"
        "def check(v):\n    return isinstance(v, (int, np.integer))\n"
        "def other(v):\n    return isinstance(v, bool) or isinstance(v, int)\n"
        "isinstance(3, numpy.integer)\nisinstance(3, (str, float))\n"
    )
    assert integer_type_tests(source) == ["check", "other", "<module>"]


def test_package_has_one_count_rule():
    # a bool is an int to isinstance, so a second copy of the count test
    # tends to let True through as 1; every count goes through check_count
    found = {str(path.relative_to(ROOT)): integer_type_tests(path.read_text())
             for path in sorted((ROOT / "src" / "equimesh").rglob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {
        "src/equimesh/errors.py": ["check_count"]
    }, "test integer counts with equimesh.errors.check_count"


def test_importing_the_package_leaves_out_the_kd_tree():
    # scipy.spatial costs every process about 8.5 MiB; compare_surfaces,
    # its one user, loads it on first use and still returns the values
    # it gave when the package imported it up front
    code = (
        "import sys\n"
        "import equimesh\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "import equimesh.cli\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "m = equimesh.icosphere(3)\n"
        "print(*(x.hex() for x in equimesh.compare_surfaces(m, m.with_vertices(m.vertices * 1.1))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0x1.98c6ce0f371cdp-4", "0x1.9035304001ffcp+3",
                           "0x1.e4405ba99c04ep+3"]
