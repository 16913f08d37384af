"""Every definition in ``src/`` is used by ``src/``.

A top-level function or class counts as used when some other code in the
package names it; a method counts when some code reaches it as an
attribute (``getattr`` with a literal name included), or its class body
names it outside its methods, as an alias does. So a local variable of
the same name cannot hide a dead method. Dunder methods are called by
the interpreter and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import alignrag

PACKAGE = Path(alignrag.__file__).parent

# definitions only tests and the benchmark use, each with its reason
KEPT = {
    "corpus.save_corpus": "the benchmark writes its corpora with it; whether "
    "it is library API is open (ROADMAP item 26)",
    "ngram_index.save_index": "the stored index format the benchmark still "
    "builds its engine from (ROADMAP item 5)",
    "ngram_index.load_index": "the stored index format the benchmark still "
    "builds its engine from (ROADMAP item 5)",
    "lm.MockScorer.script": "a test helper, to move out of src (ROADMAP item 26)",
    "pipeline.RetrievalEngine.relevance_map": "the benchmark gate's independent "
    "relevance path (ROADMAP item 26)",
    "struct_align.check_draft": "the solver audit that tests and the benchmark "
    "gate run, to move to the oracles (ROADMAP item 26)",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(module: str, tree: ast.Module):
    """(qualified name, name, its node, the names that use it) of every
    top-level function and class and every method of a top-level class:
    every bare name for the first two, and for a method its class body's
    bare names outside its methods."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield f"{module}.{node.name}", node.name, node, None
        if isinstance(node, ast.ClassDef):
            body = [item for item in node.body if not isinstance(item, FUNCTIONS)]
            names = [
                sub.id
                for item in body
                for sub in ast.walk(item)
                if isinstance(sub, ast.Name)
            ]
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, names


def uses(tree: ast.Module):
    """(name, node, is an attribute) of every bare name, imported name,
    attribute and literal ``getattr``/``hasattr`` name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node, False
        elif isinstance(node, ast.alias):
            yield node.name, node, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node, True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value, node, True


def test_every_definition_is_used():
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    used = [use for tree in trees.values() for use in uses(tree)]
    unused = []
    for module, tree in trees.items():
        for qualified, name, node, class_names in definitions(module, tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if class_names is not None and name in class_names:
                continue
            # a use inside the definition itself, a recursive call, does
            # not count
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(
                n == name and id(use) not in inside and (attr or class_names is None)
                for n, use, attr in used
            ):
                unused.append(qualified)
    assert sorted(unused) == sorted(KEPT)
