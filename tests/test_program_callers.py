"""Every program function has a program caller.

A function, class or method that only tests reach is a second path the
program never takes: it can drift from the one the program does take while
its tests keep passing. This walks the AST of ``src/numctx/*.py`` and finds
each non-dunder top-level function or class, and each method, that no code
of the package reads as a name or an attribute outside the name's own
definition. The match is by name, so a caller of any same-named function
counts; the test catches a name nothing reads, not every unreached body.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "numctx"

# program names that only tests read, each with the reason it stays
ALLOWED_WITHOUT_CALLER = {
    "deserialize": "the public inverse of serialize; the model-file round-trip tests use it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield node
            yield from (sub for sub in node.body if isinstance(sub, _FUNCTIONS))


def _reads(tree):
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _names_without_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    reads = sum(map(_reads, trees), Counter())
    return {
        definition.name
        for tree in trees
        for definition in _definitions(tree)
        if not (definition.name.startswith("__") and definition.name.endswith("__"))
        and reads[definition.name] == _reads(definition)[definition.name]  # every read is inside its own def
    }


def test_every_program_name_has_a_program_reader():
    # exact both ways: an allowlisted name that gains a caller leaves the list,
    # and a wrong PACKAGE finds no definition at all
    assert _names_without_caller() == set(ALLOWED_WITHOUT_CALLER)
