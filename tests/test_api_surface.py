"""No function or class exists that only tests call.

Every public top-level function and class in ``src/pointreg`` must be
referenced by code in the package itself, or be listed below with the reason
it stays. A private one (leading underscore, dunders aside) has no such
list: it must be referenced. A reference is any name or attribute with the
same spelling, so the check can miss a dead name but never flags a live one.
"""

import ast
from pathlib import Path

import pointreg

SRC = Path(pointreg.__file__).parent

ALLOWED_UNREFERENCED = {
    "batch_norm": "reference route the fused batch-norm ops are tested against",
    "leaky_relu": "reference route the fused batch-norm ops are tested against",
    "conv_valid": "reference route conv_bn_act_batch is tested against",
    "transpose2d": "reference route conv_bn_act_batch is tested against",
    "gmm_loss": "one-directional loss gmm_loss_symmetric is tested against",
    "max_pool_rows": "reference route the fused pool op is tested against",
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
ALLOWED_PRIVATE_READS = {
    ("model.py", "ad._scratch"): "bench/tracing.py hooks the scratch pool by this name; "
                                 "ROADMAP item 3 removes it together with the pool",
}


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
