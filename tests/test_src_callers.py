"""``src/`` holds what a run uses: every definition there has a caller outside the tests.

A definition is a top-level function or class, or a public method of a class.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rfagree"
CALLERS = ("scripts", "perfbench")


def loaded_names(tree, skip=None) -> set:
    """Names read in ``tree``, as ``name`` or ``obj.name``, outside the subtree ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree):
    """``(name, node)`` of each top-level function or class and each public method of a class.

    A method's name is ``Class.method``; dunder and underscore methods are left out.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def unused_definitions() -> list:
    """``module.name`` of each definition (:func:`definitions`) that nothing outside tests loads.

    A name counts as used when some module of the package other than
    ``__init__.py`` loads it outside its own definition, or when a file
    under ``scripts/`` or ``perfbench/`` loads it.  A method counts as
    used when its bare name is loaded so, as ``obj.method``.
    """
    modules = {
        path: parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    }
    callers = set()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).glob("*.py")):
            callers |= loaded_names(parse(path))
    unused = []
    for path, tree in modules.items():
        elsewhere = set(callers)
        for other, other_tree in modules.items():
            if other != path:
                elsewhere |= loaded_names(other_tree)
        for name, node in definitions(tree):
            if node.name not in elsewhere and node.name not in loaded_names(tree, skip=node):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_src_definition_has_a_caller_outside_tests():
    # Reference paths and checkers that only tests call belong in tests/helpers.py.
    assert unused_definitions() == []
