"""Static checks over the library source, by parsing it with ast, and a
check that the benchmark tracer's targets resolve."""

import ast
import importlib.util
from pathlib import Path

import kolmo

SRC = Path(kolmo.__file__).resolve().parent
# The code whose calls may set a library default.
CALLERS = [Path(__file__).resolve().parents[1] / d
           for d in ("src", "scripts", "perfbench", "tests")]


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


def _defaulted_params(trees):
    """(module, function, parameter) -> positional index, or None for a
    keyword-only one, of every defaulted parameter of a public module-level
    function."""
    out = {}
    for mod, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            for i, arg in enumerate(pos[first:], first):
                out[(mod, fn.name, arg.arg)] = i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out[(mod, fn.name, arg.arg)] = None
    return out


def _calls(paths):
    """Called name -> (positional count, keyword names) of every call in
    the files; the count stops at a *args, and a **kwargs names nothing."""
    calls = {}
    for p in paths:
        for n in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if not isinstance(n, ast.Call):
                continue
            name = _name(n)
            npos = next((i for i, a in enumerate(n.args)
                         if isinstance(a, ast.Starred)), len(n.args))
            calls.setdefault(name, []).append(
                (npos, {k.arg for k in n.keywords}))
    return calls


def test_every_default_is_set_by_some_call():
    """A default that no caller ever overrides is a setting nobody uses:
    it belongs in a module constant, or nowhere.  Every defaulted parameter
    of a public module-level function in kolmo is passed, by keyword or by
    position, in some call under src/, scripts/, perfbench/ or tests/ to a
    function of that name."""
    calls = _calls(p for d in CALLERS for p in sorted(d.rglob("*.py")))
    unset = [f"{mod}: {fn}({arg}=)" for (mod, fn, arg), i
             in sorted(_defaulted_params(_trees()).items())
             if not any(arg in kw or (i is not None and npos > i)
                        for npos, kw in calls.get(fn, ()))]
    assert not unset, unset


def test_tracer_targets_resolve():
    """perfbench/tracer.py wraps its targets where they are looked up: a
    class's own attribute (`owner.__dict__[attr]`, so a method moved to a
    base class or out of the class body would be wrapped nowhere) or a
    module global.  Every target resolves to a callable."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert targets
    for name, owner, attr, _ in targets:
        fn = (owner.__dict__.get(attr) if isinstance(owner, type)
              else getattr(owner, attr, None))
        assert callable(fn), name
