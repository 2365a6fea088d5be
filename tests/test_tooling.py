"""Static checks over the library source, by parsing it with ast, and a
check that the benchmark tracer's targets resolve."""

import ast
import importlib.util
import sys
from pathlib import Path

import kolmo
from kolmo import cli, specfile

SRC = Path(kolmo.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# The code that uses the library: its calls may set a library default.
# Tests do not count; a name or a setting that only tests use goes, or
# moves into tests/.
CALLERS = [ROOT / d for d in ("src", "scripts", "perfbench")]

# Library names that no command, script or benchmark step reaches, each
# with the reason it stays.
UNREACHED = {
    "coefficients.__getattr__": "perfbench/drive.py and tracer.py read the "
                                "mollifier's names here; ROADMAP item 6",
}
# Defaults that no caller overrides, each with the reason it stays.
UNSET = {
    "pde.solve_cauchy(boundary=)": "ROADMAP item 1, a solve that refuses "
                                   "a box too small for its datum",
}


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


def _exit_classes():
    """Every class the CLI maps to an exit code: the classes of cli.EXITS."""
    return {c.__name__ for _, _, classes in cli.EXITS for c in classes}


def _main_handlers(tree):
    """The class names cli.main's except clauses catch, in order."""
    main = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    return [_name(h.type) for h in ast.walk(main)
            if isinstance(h, ast.ExceptHandler)]


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
    caught = _exit_classes()
    assert "NotSPD" in caught and "Unstable" in caught
    assert caught <= _raised(trees), sorted(caught - _raised(trees))


def _error_classes(trees):
    """Every class in the library derived from KolmoError, KolmoError
    itself included, by following the base names through all modules."""
    bases = {n.name: {_name(b) for b in n.bases} for t in trees.values()
             for n in t.body if isinstance(n, ast.ClassDef)}
    found = {"KolmoError"}
    while True:
        more = {c for c, bs in bases.items() if bs & found} - found
        if not more:
            return found
        found |= more


def test_every_raised_error_class_has_an_exit_code():
    """A library error that cli.EXITS does not list escapes as a traceback
    with exit 1.  Every KolmoError class the library raises is in EXITS,
    but InternalInconsistency, which marks a bug in kolmo; and EXITS is
    the one map: cli.main catches only the parser's SystemExit and, once,
    KolmoError."""
    trees = _trees()
    raised = _error_classes(trees) & _raised(trees)
    assert "SpecError" in raised and "NotSPD" in raised
    uncaught = raised - _exit_classes() - {"InternalInconsistency"}
    assert not uncaught, sorted(uncaught)
    assert _main_handlers(trees["cli.py"]) == ["SystemExit", "KolmoError"]


# The steps of the report pipeline, which cli.main alone runs.
PIPELINE = {"settle_mode", "check_out", "load", "point_defaults", "resolved",
            "emit"}


def test_one_report_path():
    """Every command is a function of (args, spec) that returns its
    report's body, and cli.main alone settles the mode, checks --out, loads
    the spec and emits the report: every cmd_* in cli.py and cli_*.py takes
    exactly (args, spec), there is one per command, and every call in the
    command modules of a PIPELINE step is in cli.main."""
    commands, callers = set(), set()
    for mod, tree in _trees().items():
        if not _is_command(mod):
            continue
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name.startswith("cmd_"):
                a = fn.args
                assert [p.arg for p in a.posonlyargs + a.args] \
                    == ["args", "spec"], (mod, fn.name)
                assert not (a.vararg or a.kwonlyargs or a.kwarg
                            or a.defaults), (mod, fn.name)
                commands.add(fn.name)
            callers |= {(mod, fn.name) for n in ast.walk(fn)
                        if isinstance(n, ast.Call) and _name(n) in PIPELINE}
    assert commands == {"cmd_" + "_".join(w) for w in cli.COMMANDS}
    assert callers == {("cli.py", "main")}


def _is_command(module):
    """The command modules: cli.py, cliargs.py and cli_*.py."""
    return module in ("cli.py", "cliargs.py") or module.startswith("cli_")


def _uses(node):
    """Every name the subtree uses: an identifier, an attribute or a string
    that is an identifier (as a getattr or a benchmark target names one)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            out.add(n.value)
    return out


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(trees):
    """"module.name" -> the names its body uses, for every module-level
    function, class and constant and every method of a class but a dunder
    one, in the library modules (all but the command modules).  A class's
    body is its bases, decorators and statements, its dunder methods
    included: they run whenever the class is used."""
    out = {}
    for mod, tree in trees.items():
        if _is_command(mod):
            continue
        stem = mod[:-3]
        for n in tree.body:
            if isinstance(n, ast.FunctionDef):
                out[f"{stem}.{n.name}"] = _uses(n)
            elif isinstance(n, ast.ClassDef):
                body = set()
                for m in n.body:
                    if isinstance(m, ast.FunctionDef) and not _dunder(m.name):
                        out[f"{stem}.{n.name}.{m.name}"] = _uses(m)
                    else:
                        body |= _uses(m)
                for part in n.bases + n.keywords + n.decorator_list:
                    body |= _uses(part)
                out[f"{stem}.{n.name}"] = body
            elif isinstance(n, (ast.Assign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) \
                    else [n.target]
                for t in targets:
                    for name in _uses(t):
                        if not _dunder(name):
                            out[f"{stem}.{name}"] = _uses(n.value)
    return out


def _reached(definitions, roots):
    """The definitions reached from the names in roots: a definition is
    reached when its own (last) name is used by a root or by the body of a
    reached definition, and a method only once its class is reached too,
    taken to a fixpoint."""
    used, reached = set(roots), set()
    while True:
        new = {d for d in definitions
               if d not in reached and d.rsplit(".", 1)[-1] in used
               and (d.count(".") == 1 or d.rsplit(".", 1)[0] in reached)}
        if not new:
            return reached
        reached |= new
        for d in new:
            used |= definitions[d]


def test_every_library_name_is_reached():
    """The library's surface is what its commands, scripts and benchmark
    use.  Every module-level function, class and constant and every method
    but a dunder one in the library modules is named (an identifier, an
    attribute or an identifier string) from a command module, a script, a
    perfbench/ file, or the body of another such name, to a fixpoint, a
    method only once its class is reached; or it is in UNREACHED, with a
    reason.  __all__ reaches nothing, and neither do tests.  An UNREACHED
    entry that is gone or reached fails too."""
    trees = _trees()
    roots = set()
    for mod, tree in trees.items():
        if _is_command(mod):
            roots |= _uses(tree)
    for d in ("scripts", "perfbench"):
        for p in sorted((ROOT / d).rglob("*.py")):
            roots |= _uses(ast.parse(p.read_text(encoding="utf-8")))
    definitions = _definitions(trees)
    unreached = set(definitions) - _reached(definitions, roots)
    assert not unreached - set(UNREACHED), sorted(unreached - set(UNREACHED))
    assert not set(UNREACHED) - unreached, \
        sorted(set(UNREACHED) - unreached)


def _params(fn, skip):
    """parameter -> positional index, or None for a keyword-only one, of
    every defaulted parameter of fn, less its first `skip` (self)."""
    out = {}
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for i, arg in enumerate(pos[first:], first):
        out[arg.arg] = i - skip
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            out[arg.arg] = None
    return out


def _is_dataclass(cls):
    return any(_name(d) == "dataclass" for d in cls.decorator_list)


def _fields(cls):
    """field -> position in the generated __init__, of every defaulted
    init field of a dataclass: a field(init=False) is no parameter."""
    out, i = {}, 0
    for n in cls.body:
        if not (isinstance(n, ast.AnnAssign)
                and isinstance(n.target, ast.Name)):
            continue
        if (isinstance(n.value, ast.Call) and _name(n.value) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True)
                        is False for k in n.value.keywords)):
            continue
        if n.value is not None:
            out[n.target.id] = i
        i += 1
    return out


def _defaulted_params(trees):
    """"module.callable(parameter=)" -> (callable, parameter, positional
    index or None for a keyword-only one) of every defaulted parameter of
    a public module-level function, of the __init__ of a public class, and
    of a public dataclass's init fields."""
    out = {}
    for mod, tree in trees.items():
        for n in tree.body:
            if (not isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    or n.name.startswith("_")):
                continue
            if isinstance(n, ast.FunctionDef):
                params = _params(n, 0)
            elif _is_dataclass(n):
                params = _fields(n)
            else:
                init = next((m for m in n.body
                             if isinstance(m, ast.FunctionDef)
                             and m.name == "__init__"), None)
                params = _params(init, 1) if init else {}
            for arg, i in params.items():
                out[f"{mod[:-3]}.{n.name}({arg}=)"] = (n.name, arg, i)
    return out


def _is_super_init(node):
    f = node.func
    return (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
            and f.attr == "__init__" and isinstance(f.value, ast.Call)
            and _name(f.value) == "super")


def _calls(paths):
    """Called name -> (positional count, keyword names) of every call in
    the files; the count stops at a *args, and a **kwargs names nothing.
    A super().__init__(...) in a class calls its bases by name."""
    calls = {}
    for p in paths:
        tree = ast.parse(p.read_text(encoding="utf-8"))
        bases = {}
        # outer classes first, so a nested class's bases win
        for c in ast.walk(tree):
            if isinstance(c, ast.ClassDef):
                for n in ast.walk(c):
                    if isinstance(n, ast.Call) and _is_super_init(n):
                        bases[n] = [_name(b) for b in c.bases]
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            npos = next((i for i, a in enumerate(n.args)
                         if isinstance(a, ast.Starred)), len(n.args))
            for name in bases.get(n, [_name(n)]):
                calls.setdefault(name, []).append(
                    (npos, {k.arg for k in n.keywords}))
    return calls


def test_every_default_is_set_by_some_call():
    """A default that no caller ever overrides is a setting nobody uses:
    it belongs in a module constant, or nowhere.  Every defaulted parameter
    of a public module-level function or of a public class's __init__, and
    every defaulted init field of a public dataclass, is passed by keyword
    or by position in some call under src/, scripts/ or perfbench/ to a
    callable of that name; or it is in UNSET, with a reason.  Tests do not
    count.  An UNSET entry that is gone or set fails too."""
    calls = _calls(p for d in CALLERS for p in sorted(d.rglob("*.py")))
    unset = {key for key, (fn, arg, i) in _defaulted_params(_trees()).items()
             if not any(arg in kw or (i is not None and npos > i)
                        for npos, kw in calls.get(fn, ()))}
    assert not unset - set(UNSET), sorted(unset - set(UNSET))
    assert not set(UNSET) - unset, sorted(set(UNSET) - unset)


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


# Names a library module imports and never uses, each with the reason it
# stays.
UNUSED_IMPORTS = {
    "cli.write_csv": "perfbench/tracer.py wraps the CSV writer under this "
                     "name",
}


def _imported(tree):
    """Every name an import anywhere in the tree binds."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in n.names}
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            out |= {a.asname or a.name for a in n.names}
    return out


def _exported(tree):
    """The names a module's __all__ lists."""
    return {e.value for n in tree.body if isinstance(n, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in n.targets)
            for e in n.value.elts}


def test_every_import_is_used():
    """An import that nothing reads is dead code: every name a library
    module imports is used in that module (read as a bare name) or listed
    in its __all__, or it is in UNUSED_IMPORTS, with a reason.  An
    UNUSED_IMPORTS entry that is gone or used fails too."""
    unused = set()
    for mod, tree in _trees().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {f"{mod[:-3]}.{name}" for name in
                   _imported(tree) - used - _exported(tree)}
    assert unused == set(UNUSED_IMPORTS), \
        sorted(unused ^ set(UNUSED_IMPORTS))


def _write_csv_callers(trees):
    """(module, function) of every call to write_csv in the library, and
    the calls whose rows are not the third positional argument."""
    sites, keyword = set(), []
    for mod, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and _name(n) == "write_csv":
                    sites.add((mod[:-3], fn.name))
                    if (len(n.args) < 3 or any(isinstance(a, ast.Starred)
                                               for a in n.args[:3])):
                        keyword.append((mod, n.lineno))
    return sites, keyword


def test_write_csv_rows_are_the_rows_written(proto_spec_path, tmp_path,
                                             monkeypatch, capsys):
    """perfbench's tracer counts the rows of cli.write_csv as len(args[2]).
    Every library call passes path, header and rows by position, and in a
    run of every command that writes a CSV, each call's len(rows) is the
    number of rows in the file, a grid's axes notwithstanding."""
    sites, keyword = _write_csv_callers(_trees())
    assert not keyword
    spec = str(proto_spec_path)
    (tmp_path / "pts.csv").write_text("x1,x2,t\n0,0,1\n1,0,0.5\n")
    monkeypatch.chdir(tmp_path)
    seen = []
    write = specfile.write_csv

    def counted(*args, **kwargs):
        write(*args, **kwargs)
        caller = sys._getframe(1).f_code
        rows = Path(args[0]).read_bytes().count(b"\r\n") - 1
        seen.append((Path(caller.co_filename).stem, caller.co_name,
                     len(args[2]), rows))

    monkeypatch.setattr(specfile, "write_csv", counted)
    for argv in (
            ["kernel", "eval", spec, "--pole", "0,0",
             "--grid=-1:1:3;-1:1:4;0.1:1:5"],
            ["kernel", "eval", spec, "--pole", "0,0", "--points", "pts.csv"],
            ["solve", "cauchy", spec, "--box=-4,4;-2,2", "--nx", "21,31",
             "--t1", "0.3"],
            ["solve", "fundamental", spec, "--box=-4,4;-2,2", "--nx",
             "21,81", "--t1", "0.8", "--widths", "0.3,0.25"],
            ["mc", "simulate", spec, "--paths", "100"],
            ["mc", "density", spec, "--paths", "100", "--box=-3,3;-2,2",
             "--bins", "4,5"],
            ["check", "harnack", spec, "--sweep", "2"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert {(m, f) for m, f, _, _ in seen} == sites
    assert all(n == rows for _, _, n, rows in seen), seen
    assert [n for *_, n in seen] == [60, 2, 651, 1701, 100, 20, 2]


# The only library function that imports scipy: it interpolates on a grid.
SCIPY_IMPORTERS = {"coefficients.GridField.__init__"}


def _scipy_imports(node, where, in_function, out):
    """Append (qualified name, inside a function body) for every import of
    scipy or a scipy submodule under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            _scipy_imports(child, f"{where}.{child.name}", in_function
                           or not isinstance(child, ast.ClassDef), out)
            continue
        if isinstance(child, ast.Import):
            names = [a.name for a in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(n.split(".")[0] == "scipy" for n in names):
            out.append((where, in_function))
        _scipy_imports(child, where, in_function, out)
    return out


def test_scipy_loads_lazily_for_grid_interpolation_only():
    """Every scipy import in the library sits inside a function body, so no
    import of a kolmo module loads scipy, and the one function that imports
    it is the grid field's interpolation."""
    found = []
    for name, tree in _trees().items():
        _scipy_imports(tree, name[:-len(".py")], False, found)
    assert all(inside for _, inside in found), found
    assert {where for where, _ in found} == SCIPY_IMPORTERS


def _importers(packages):
    """(library module, imported name) of every import, at any depth, of a
    module in or under one of the packages."""
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(name, n) for n in names
                      if any(n == p or n.startswith(p + ".")
                             for p in packages)]
    return found


def test_no_module_imports_warnings():
    """The library reports what goes wrong through its return values (a
    solve's meta["warnings"]) and its errors, never through Python's
    warnings module, whose output names the file that warned and so
    differs between two installs of the same code."""
    assert _importers(["warnings"]) == []


def test_no_module_imports_a_pool_or_logging():
    """The Monte Carlo spreads its chunks over forked processes, and no
    library module imports concurrent.futures or logging, which its
    executors import: a short `kolmo` process would compile and run them
    for nothing."""
    assert _importers(["concurrent.futures", "logging"]) == []


def test_one_parallel_mechanism():
    """The Monte Carlo's workers made by os.fork are the library's one
    parallel mechanism: no library module imports threading, contextvars,
    concurrent.futures or multiprocessing, and only mc.py names os.fork."""
    assert _importers(["threading", "contextvars", "concurrent.futures",
                       "multiprocessing"]) == []
    forks = {name for name, tree in _trees().items() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "fork"
             or isinstance(n, ast.alias) and n.name == "fork"}
    assert forks == {"mc.py"}


def _call_sites(trees, callee):
    """(module, enclosing top-level definition or None) of every call in
    the library to a callable named callee."""
    sites = set()
    for mod, tree in trees.items():
        for top in tree.body:
            where = top.name if isinstance(
                top, (ast.FunctionDef, ast.ClassDef)) else None
            sites |= {(mod[:-3], where) for n in ast.walk(top)
                      if isinstance(n, ast.Call) and _name(n) == callee}
    return sites


def test_one_ensemble_stream_rule():
    """The Monte Carlo ensemble's noise stream is defined in one place:
    the only SeedSequence the library builds is the one in mc.chunk_rng,
    which simulate draws every chunk's generator from."""
    trees = _trees()
    assert _call_sites(trees, "SeedSequence") == {("mc", "chunk_rng")}
    assert ("mc", "simulate") in _call_sites(trees, "chunk_rng")


def test_one_covariance_factor_rule():
    """C(t) is factored once per operator: KernelParams factors C(1), and
    the kernel and the exact Monte Carlo law read every C(t) through the
    dilation of that factor.  covariance only checks that a C(t) has a
    factor, and _log_reproduction_quadrature factors the covariance of
    the Gauss-Hermite product, not C(t); no other library code calls
    cholesky."""
    assert _call_sites(_trees(), "cholesky") == {
        ("kernel", "KernelParams"), ("kernel", "covariance"),
        ("kernel", "_log_reproduction_quadrature")}


def test_no_dense_inverse_rule():
    """The library inverts a matrix only where the matrix is N x N: the
    factor of C(1) in KernelParams, and the Gaussian product's precision
    and covariance in _gauss_product and _log_reproduction_quadrature.  No
    solver stage builds or applies a dense inverse over a grid axis."""
    assert _call_sites(_trees(), "inv") == {
        ("kernel", "KernelParams"), ("kernel", "_gauss_product"),
        ("kernel", "_log_reproduction_quadrature")}
