"""The package as documented and as shipped: the README's library quickstart
runs, and every module imports only the standard library and numpy."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_quickstart_runs():
    """The first python block of the README, as written: the documented API
    cannot change without the README changing with it."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    assert "sr.certificates(" in block  # the library quickstart, not the training block
    exec(compile(block, "README.md", "exec"), {})


def test_modules_import_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "smoothrank"}
    modules = sorted((ROOT / "src" / "smoothrank").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
