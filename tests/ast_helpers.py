"""AST helpers shared by the static checks of ``src/``: the structural
guards in ``test_one_mechanism.py`` and the rules in
``test_static_rules.py``.  Paths are relative to the scanned root with
forward slashes (``pic/gather.py``)."""

from __future__ import annotations

import ast
import os

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))


def python_files(root):
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(name for name in subdirs if name != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def source_texts(root=SRC):
    for path in python_files(root):
        with open(path, "r", encoding="utf-8") as stream:
            text = stream.read()
        yield os.path.relpath(path, root).replace(os.sep, "/"), text


def source_trees(root=SRC):
    for path, text in source_texts(root):
        yield path, ast.parse(text, filename=path)


def name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def names_in(tree):
    return {name_of(node) for node in ast.walk(tree)} - {None}


def defined_names(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def dotted_chain(node):
    """``np.random.seed`` -> ``["np", "random", "seed"]``; None if the
    expression is not a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def numpy_aliases(tree):
    """``(aliases, from_names)``: the local names bound to the numpy
    module (``np`` for ``import numpy as np``), and each name imported
    from it mapped to its numpy-relative dotted path (``from numpy.random
    import seed`` -> ``{"seed": "random.seed"}``)."""
    aliases, from_names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname or "numpy" for alias in node.names
                           if alias.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and (node.module == "numpy"
                     or node.module.startswith("numpy.")):
            prefix = node.module[len("numpy"):].lstrip(".")
            for alias in node.names:
                dotted = f"{prefix}.{alias.name}" if prefix else alias.name
                from_names[alias.asname or alias.name] = dotted
    return aliases, from_names


def numpy_path(node, aliases, from_names):
    """The numpy-relative dotted path of an expression, or None:
    ``np.add.at`` -> ``"add.at"``, and a bare ``zeros`` imported by
    ``from numpy import zeros`` -> ``"zeros"``."""
    chain = dotted_chain(node)
    if not chain:
        return None
    head, rest = chain[0], chain[1:]
    if head in aliases:
        return ".".join(rest) if rest else None
    if head in from_names:
        return ".".join([from_names[head], *rest])
    return None
