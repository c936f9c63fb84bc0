"""Source hygiene: every name a module imports is used in that module,
and every top-level function, class or constant is used somewhere in the
package."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "densecotrain"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))

# Top-level names nothing in the package calls, kept because code outside
# it calls them by name.
ENTRY_POINTS_OUTSIDE_SRC = {
    "average_precision",      # metrics: imported by the acceptance gates
    "average_recall_at",      # metrics: spanned by the benchmark's tracer
    "brute_force_ap_oracle",  # metrics: the AP oracle of the acceptance gates
    "fuse",                   # ensemble: the scalar vote of the acceptance gates
    "planted_objective",      # tuner: the planted surrogate of the tuner tests
    "save_predictions",       # cli: writes the predictions file perfbench evaluates
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            yield annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    # a name counts when it is read; assigning it is not a use
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    # string annotations such as -> "EnsembleClassifier"; other string
    # literals (messages, labels) name nothing
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced_names(tree)
    unused = {
        name: line for name, line in _imported_names(tree).items()
        if name not in used
    }
    assert not unused, f"{path.name}: imported but never used: {unused}"


def _top_level_names(tree: ast.Module):
    """(line, name) of every module-level function, class and assigned
    name, dunders such as ``__all__`` left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield node.lineno, name.id


def test_every_top_level_definition_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*(_referenced_names(tree) for tree in trees.values()))
    defined = {
        (name, line, def_name)
        for name, tree in trees.items()
        for line, def_name in _top_level_names(tree)
    }
    unused = sorted(
        f"{name}:{line} {def_name}" for name, line, def_name in defined
        if def_name not in used | ENTRY_POINTS_OUTSIDE_SRC
    )
    assert not unused, f"defined but never used in src/: {unused}"
    # an allowlisted name that is gone must leave the list too
    assert ENTRY_POINTS_OUTSIDE_SRC <= {def_name for _, _, def_name in defined}
