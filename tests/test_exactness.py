"""The package promises no floating point in any decision: its source must hold
no float or complex literal, no true division, no cmath and no float()."""

import ast
import pathlib

import pytest

import cuntzfrac

MODULES = sorted(pathlib.Path(cuntzfrac.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            found.append(f"{where}: import cmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(f"{where}: from cmath import")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: float")
    return found


def test_modules_found():
    assert {"cuntz.py", "surds.py", "cfe.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scanner_sees_each_kind():
    src = "import cmath\nfrom cmath import pi\nx = 1.5 + 2j\ny = a / b\ny /= 2\nz = float(y)\n"
    assert len(float_uses(ast.parse(src))) == 7
