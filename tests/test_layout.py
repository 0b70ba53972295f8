"""Module layering: each module of the package imports only the modules
that README's "Module layout" lists before it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cycledec"


def layout_order() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Module layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\* `(\w+)\.py`", section, flags=re.MULTILINE)


def relative_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.append(node.module.split(".")[0])
            else:
                names += [alias.name for alias in node.names]
    return names


def test_layout_lists_every_module():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert layout_order() == ["errors", "rng", "multigraph", "connectivity", "operators",
                              "oracle", "recognition", "generators", "cli"]
    assert set(layout_order()) == modules


@pytest.mark.parametrize("module", layout_order())
def test_imports_only_earlier_modules(module):
    order = layout_order()
    earlier = set(order[:order.index(module)])
    for name in relative_imports(PACKAGE / f"{module}.py"):
        assert name in earlier, f"{module} imports {name}, which the layout lists later"
