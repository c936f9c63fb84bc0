"""Source hygiene: every name a module imports is used in that module,
every top-level function, class or constant is used somewhere in the
package, and every defaulted parameter is passed by some call in it."""

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
    "detect",                 # detectors: detect_batch's one-image call; spanned by the benchmark's tracer
    "fuse",                   # ensemble: the scalar vote of the acceptance gates; tests/test_ensemble.py's reference for EnsembleClassifier.predict
    "iou",                    # geom: the scalar reference the kernels match; counted by the benchmark's tracer
    "match_detections",       # metrics: the matching kernel's one-image call; spanned by the benchmark's tracer
    "nms",                    # geom: NMS of scored boxes for the acceptance gates; spanned by the benchmark's tracer
    "planted_objective",      # tuner: the planted surrogate of the tuner tests
    "save_predictions",       # cli: writes the predictions file perfbench evaluates
}


# Defaulted parameters no call in the package passes, kept because code
# outside it calls these entry points with other values.
PARAMETERS_SET_OUTSIDE_SRC = {
    ("main", "argv"),                 # cli: the tests and the benchmark pass argv
    ("default_synthetic", "seed"),    # config: the stock experiment of any seed
    ("average_recall_at", "k"),       # metrics: the AR@k tests pick k
    ("run_cotraining", "resume"),     # cotrain: the library's resume entry
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


def _defaulted_parameters(tree: ast.Module):
    """(line, function, parameter, positional index as callers count it or
    None for keyword-only) of every parameter with a default; a method's
    ``self``/``cls`` is not counted."""
    methods = {
        id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = int(
            id(node) in methods and bool(positional)
            and positional[0].arg in ("self", "cls")
        )
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield node.lineno, node.name, arg.arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.lineno, node.name, arg.arg, None


def _passes(call: ast.Call, parameter: str, index: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed():
    """A default no call overrides is a constant in disguise: calls are
    matched by the called name alone, so any same-named call counts."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    defaulted = [
        (name, line, function, parameter, index)
        for name, tree in trees.items()
        for line, function, parameter, index in _defaulted_parameters(tree)
    ]
    never = sorted(
        f"{name}:{line} {function}({parameter})"
        for name, line, function, parameter, index in defaulted
        if (function, parameter) not in PARAMETERS_SET_OUTSIDE_SRC
        and not any(_passes(c, parameter, index) for c in calls.get(function, ()))
    )
    assert not never, f"defaulted but never passed in src/: {never}"
    # an allowlisted parameter that is gone must leave the list too
    assert PARAMETERS_SET_OUTSIDE_SRC <= {(f, p) for _, _, f, p, _ in defaulted}


# whole-file writes and reads, opened files, and renames into place
_FILE_ACCESS = {"write_text", "write_bytes", "read_text", "read_bytes", "open"}
_RENAMES = {"replace", "rename"}


def _file_access(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "open":
            yield node
        if isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr in _FILE_ACCESS or (owner == "os" and node.attr in _RENAMES):
                yield node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_codec_writes_whole_files(path):
    """``codec`` is the one file layer: ``write_text`` replaces every file
    atomically, and ``read_text`` and ``read_json`` name a file whose text
    is not UTF-8.  No other module opens a file (``open``, ``.open``),
    reads one whole (``.read_text``, ``.read_bytes``), writes one (``.write_text``,
    ``.write_bytes``) or renames one into place."""
    if path.name == "codec.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"line {n.lineno}: {ast.unparse(n)}" for n in _file_access(tree)]
    assert not found, f"{path.name} opens, reads or writes a file outside codec: {found}"
