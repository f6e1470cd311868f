"""No function, class or parameter exists that only tests use.

Every public top-level function and class in ``src/pointreg`` must be
referenced by code in the package itself, or be listed below with the reason
it stays. A private one (leading underscore, dunders aside) has no such
list: it must be referenced. A reference is any name or attribute with the
same spelling, so the check can miss a dead name but never flags a live one.
Likewise every defaulted parameter of a public function must be passed by
some call in the package or the benchmark, or be listed with its reason.
And the package imports nothing but the standard library, numpy and itself.
"""

import ast
import sys
from pathlib import Path

import pointreg

SRC = Path(pointreg.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

ALLOWED_UNREFERENCED = {
    "max_pool_rows": "bench/tracing.py's Tracer.install wraps autodiff.max_pool_rows by name; "
                     "ROADMAP item 2 replaces that hook",
    "load_checkpoint": "the resume API of trainer.train(start_epoch=); bench/workloads.py checks "
                       "the train-2d checkpoint with it",
}


def unreferenced_names() -> set:
    """Top-level functions and classes no package code references."""
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined - referenced


def test_unreferenced_public_names_are_the_allowlist():
    public = {n for n in unreferenced_names() if not n.startswith("_")}
    assert public == set(ALLOWED_UNREFERENCED)


def test_every_private_name_is_referenced():
    assert {n for n in unreferenced_names() if n.startswith("_")} == set()


def test_package_imports_only_the_standard_library_and_numpy():
    # the package is numpy-only: any other import is a new dependency
    allowed = sys.stdlib_module_names | {"numpy", "pointreg"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []


def test_no_private_name_is_imported_across_modules():
    # a module's private names are its own; another module that needs one
    # needs it public
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imported += [f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert imported == []


# (module file, ``alias._name``) reads of another module's private name that
# stay, with the reason
ALLOWED_PRIVATE_READS = {}


def test_no_private_attribute_is_read_across_modules():
    # ``from . import autodiff as ad`` binds a module; ``ad._x`` then reads
    # autodiff's private ``_x`` as surely as importing it would
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module is None
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules and node.attr.startswith("_") \
                    and not node.attr.startswith("__"):
                reads.add((path.name, f"{node.value.id}.{node.attr}"))
    assert reads == set(ALLOWED_PRIVATE_READS)


# (module file, function, parameter) defaults that no call in ``src`` or
# ``bench`` passes and that stay, with the reason
ALLOWED_UNPASSED_DEFAULTS = {
    ("trainer.py", "train", "start_epoch"): "resuming from a checkpoint equals the uninterrupted run, "
                                           "a guarantee of the library API (ROADMAP)",
}


def _public_functions(tree):
    """``(call name, def, parameters a call does not pass)`` of each public
    top-level function, and of each public method and the constructor of a
    public class, whose calls pass no ``self``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list)
                if method.name == "__init__":
                    yield node.name, method, 1
                elif not method.name.startswith("_"):
                    yield method.name, method, 0 if static else 1


def _defaulted_parameters() -> dict:
    """``(file, function, parameter) -> position``, the position in a call
    or ``None`` for a keyword-only one, of every defaulted parameter of
    ``_public_functions``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for name, node, skip in _public_functions(ast.parse(path.read_text(encoding="utf-8"))):
            a = node.args
            positional = a.posonlyargs + a.args
            for i in range(len(positional) - len(a.defaults), len(positional)):
                found[(path.name, name, positional[i].arg)] = i - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    found[(path.name, name, arg.arg)] = None
    return found


def _passed(call: ast.Call, param: str, position) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: ``**kwargs``
        return True
    if position is None:
        return False
    # a ``*args`` may fill every position from its own onwards
    return position < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args)


def test_every_defaulted_parameter_is_passed_outside_tests():
    # a default no run overrides is a constant in disguise: an option that
    # only tests set doubles what they must cover for nothing a run does
    calls = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]:
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.append((name, node))
    unpassed = {key for key, position in _defaulted_parameters().items()
                if not any(name == key[1] and _passed(call, key[2], position) for name, call in calls)}
    assert unpassed == set(ALLOWED_UNPASSED_DEFAULTS)
