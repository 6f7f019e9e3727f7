import ast
from pathlib import Path

import facefollow

SRC = Path(facefollow.__file__).parent


def facefollow_imports(tree: ast.Module):
    """(module, names) of each import of a facefollow module in ``tree``;
    ``module`` is the dotted name inside the package ("" for the package)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                yield mod, [a.name for a in node.names]
            elif mod == "facefollow" or mod.startswith("facefollow."):
                yield mod.removeprefix("facefollow").lstrip("."), [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "facefollow" or a.name.startswith("facefollow."):
                    yield a.name.removeprefix("facefollow").lstrip("."), []


def test_private_names_come_only_from_rules():
    """The input rules have one home, ``_rules``: no module imports a private
    name of ``cascade`` or ``imaging``, and ``_rules`` imports no facefollow
    module, so every module can import it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for mod, names in facefollow_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if path.stem == "_rules":
                found.append(f"_rules imports facefollow module {mod or 'facefollow'!r}")
            found += [f"{path.name} imports {mod}.{n}" for n in names
                      if mod in ("cascade", "imaging") and n.startswith("_")]
    assert found == []
