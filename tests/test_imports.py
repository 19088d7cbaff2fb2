"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stableadmit"

# Imported but unread on purpose, each with its reason.
ALLOWED = {
    ("cli", "induced_matching"): "bench/layers.py patches it on stableadmit.cli",
    ("cli", "solve_lex"): "bench/layers.py patches it on stableadmit.cli",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements at any depth that the module
    never reads; names listed in __all__ count as read."""
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Sequence, Any\n"
                          "x: Any = os.sep\n") == ["Sequence"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_package_modules_have_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports {unused} without using them"


def test_every_allowed_import_is_still_unread():
    for (module, name) in ALLOWED:
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        assert name in unused_imports(source), (module, name)


def test_every_allowance_names_an_attribute_the_traced_benchmark_wraps(
        monkeypatch):
    """An allowance outlives its reason once bench/layers.py stops
    wrapping the name."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers
    from tracing import Tracer

    wrapped = {(module.__name__, attr)
               for module, attr, _ in layers.patch_table(Tracer())}
    for module, name in ALLOWED:
        assert (f"stableadmit.{module}", name) in wrapped, (module, name)
