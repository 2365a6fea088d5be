"""Static checks over the library source, by parsing it with ast."""

import ast
from pathlib import Path

import kolmo

SRC = Path(kolmo.__file__).resolve().parent


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _name(node):
    """The class name in `raise X(...)`, `raise X` or `raise errors.X(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _raised(trees):
    return {_name(n.exc) for t in trees.values() for n in ast.walk(t)
            if isinstance(n, ast.Raise) and n.exc is not None}


def _cli_caught(tree):
    """Every class the CLI maps to an exit code: the members of its
    module-level *_ERRORS tuples and the names caught in main()."""
    tuples = {}
    for n in tree.body:
        if (isinstance(n, ast.Assign) and len(n.targets) == 1
                and isinstance(n.targets[0], ast.Name)
                and n.targets[0].id.endswith("_ERRORS")):
            tuples[n.targets[0].id] = {e.id for e in n.value.elts}
    main = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    caught = set().union(*tuples.values())
    for h in ast.walk(main):
        if isinstance(h, ast.ExceptHandler) and h.type is not None:
            elts = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
            caught |= {e.id for e in elts if e.id not in tuples}
    return caught - {"SystemExit"}


def test_every_error_class_is_raised():
    """An exception class that nothing raises is dead API: every class in
    errors.py but the KolmoError base is raised somewhere in the library."""
    trees = _trees()
    declared = {n.name for n in trees["errors.py"].body
                if isinstance(n, ast.ClassDef)} - {"KolmoError"}
    assert declared and declared <= _raised(trees), \
        sorted(declared - _raised(trees))


def test_every_exit_code_class_is_raised():
    """An exit code the CLI maps from a class nothing raises is
    unreachable."""
    trees = _trees()
    caught = _cli_caught(trees["cli.py"])
    assert "NotSPD" in caught and "Unstable" in caught
    assert caught <= _raised(trees), sorted(caught - _raised(trees))
