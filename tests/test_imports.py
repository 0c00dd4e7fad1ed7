"""Every import in the sources, tests and demos is used.

A name bound by an import must be read somewhere in its module. A
package's `__init__.py` imports to re-export, so it is left out. The scan
is plain `ast`, so it needs no linter.
"""

import ast
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
