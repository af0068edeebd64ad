"""The demos import only names the library still has.

Nothing else runs `demos/`, and running them takes about 10 s, so each
script is parsed rather than run: every name it imports from `llgtw` or a
submodule must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _llgtw_imports(path: Path):
    """(module, name) for each `from llgtw... import name` and (module, None)
    for each `import llgtw...` in the script."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level != 0 or (node.module or "").split(".")[0] != "llgtw":
                continue
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "llgtw":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(_llgtw_imports(path))
    assert imports, f"{path.name} imports nothing from llgtw"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        # `from llgtw import submodule` also resolves when the package has
        # not imported that submodule itself
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name}: {module} has no {name!r}")
