"""Guards against dead code in the library: unread imports and names nothing else mentions."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hgrec"


def modules() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's import statements bind, ``from __future__`` aside."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name loaded anywhere in the module, string annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees: list[ast.AST] = [tree]
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                trees.append(ast.parse(sub.value, mode="eval"))
    return {
        node.id
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def defined_names(tree: ast.Module) -> set[str]:
    """Functions, classes, non-dunder methods and module-level assignments."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def corpus() -> str:
    """The text of the library, tests, demos, bench scripts and README."""
    paths = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "tests").rglob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "README.md",
    ]
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def test_every_import_is_read():
    unread = []
    for path in modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unread += [f"{path.name}: {n}" for n in sorted(imported_names(tree) - read_names(tree))]
    assert unread == []


def test_every_definition_is_named_elsewhere():
    # A name's whole-word occurrences are exactly the corpus's word tokens equal to it.
    counts = Counter(re.findall(r"\w+", corpus()))
    lonely = []
    for path in modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in sorted(defined_names(tree)):
            if counts[name] < 2:
                lonely.append(f"{path.name}: {name}")
    assert lonely == []
