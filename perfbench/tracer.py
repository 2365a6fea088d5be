"""In-process traced run of one workload pass.

    python perfbench/tracer.py PLAN.json

PLAN (written by run.py) lists the pass's steps and three directories.  The
tracer first times `import kolmo.cli` in this fresh interpreter.  Then it
runs each step in process untraced (directory "plain"), traced twice
("traced"; spans are kept from the second) and untraced again; a step that
asks for --threads > 1 then runs once more untraced at --threads 1
("single").  Tracing wraps public functions and methods of
kolmo's modules from this file only, so the library itself is unchanged; a
wrapper records a span (name, start, end, parent span, step, thread) and the
work counts it can read off the call's arguments and result.  Spans stay in
memory and are written, with the step timings, to the plan's output file at
the end.  run.py derives the per-layer metrics from them.
"""

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path


class Recorder:
    """Span store.  A span opened on a worker thread with nothing open on
    that thread takes the innermost span open on the main thread as its
    parent (the call that started the workers)."""

    def __init__(self):
        self.spans = []
        self.step = None
        self._ids = itertools.count()
        self._main = []
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            main = threading.current_thread() is threading.main_thread()
            st = self._local.stack = self._main if main else []
        return st

    def _enter(self):
        st = self._stack()
        parent = st[-1] if st else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        st.append(sid)
        return st, sid, parent

    def _leave(self, st, sid, parent, name, t0, counts):
        t1 = time.perf_counter()
        st.pop()
        self.spans.append([sid, name, t0, t1, parent, self.step,
                           threading.get_ident(), counts])

    @contextlib.contextmanager
    def span(self, name):
        st, sid, parent = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(st, sid, parent, name, t0, None)

    def wrap(self, name, fn, measure=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, sid, parent = rec._enter()
            counts = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if measure is not None:
                    counts = measure(args, out)
                return out
            finally:
                rec._leave(st, sid, parent, name, t0, counts)
        return traced


# -- what is wrapped, and the counts read at each boundary -------------------


def _rows(args, out):
    return {"rows": len(args[2]), "bytes": os.path.getsize(args[0])}


def _points(args, out):
    shape = getattr(args[1], "shape", (1,))
    return {"points": int(shape[0]) if len(shape) > 1 else 1}


def _gamma_points(args, out):
    shape = getattr(args[0], "shape", (1,))
    return {"points": int(shape[0]) if len(shape) > 1 else 1}


def _solve(args, out):
    import numpy as np
    v = out.values
    steps, nodes = v.shape[0] - 1, int(v[0].size)
    return {"steps": steps, "nodes": nodes, "node_steps": steps * nodes,
            "values_bytes": int(v.nbytes),
            "negative_values": int(np.count_nonzero(v < 0.0)),
            "boundary_max_ratio": out.meta["boundary_max_ratio"],
            "warnings": len(out.meta["warnings"])}


def _simulate(args, out):
    p = out.provenance
    return {"path_steps": out.paths * p["nsteps"], "chunks": p["nchunks"]}


def _cylinder(args, out):
    return {"nodes": out.n_minus + out.n_plus}


def _cone(args, out):
    return {"nodes": out["n_nodes"] + 1}


def _global(args, out):
    return {"nodes": 2 * out["n_pairs"]}


def _sandwich(args, out):
    return {"nodes": len(args[0])}


def targets():
    """(span name, owner, attribute, measure) of every wrapped callable."""
    from kolmo import (cli, coefficients, group, kernel, mc, pde, specfile,
                       structure, verify)
    co = coefficients
    out = [
        ("cli.write_csv", cli, "write_csv", _rows),
        ("specfile.load", specfile, "load", None),
        ("structure.check_hypoellipticity", structure,
         "check_hypoellipticity", None),
        ("structure.detect_canonical_form", structure,
         "detect_canonical_form", None),
        ("kernel.gamma_K_lambda", kernel, "gamma_K_lambda", None),
        ("kernel.gamma_many", kernel, "gamma_many", _gamma_points),
        ("kernel.cov", kernel.KernelParams, "cov", None),
        ("kernel.covariance", kernel, "covariance", None),
        ("kernel.covariance_matrix", kernel, "covariance_matrix", None),
        ("kernel.reproduction_check", kernel, "reproduction_check", None),
        ("coefficients.modulus_of_continuity", co, "modulus_of_continuity",
         None),
        ("coefficients.holder_seminorm", co, "holder_seminorm", None),
        ("coefficients.mollify", co, "mollify", None),
        ("pde.solve_cauchy", pde, "solve_cauchy", _solve),
        ("pde.approx_fundamental", pde, "approx_fundamental", None),
        ("mc.simulate", mc, "simulate", _simulate),
        ("mc.density_estimate", mc, "density_estimate", None),
        ("mc.mass_in_DR", mc, "mass_in_DR", None),
        ("verify.harnack_local", verify, "harnack_local", _cylinder),
        ("verify.harnack_cone", verify, "harnack_cone", _cone),
        ("verify.harnack_global", verify, "harnack_global", _global),
        ("verify.fit_sandwich", verify, "fit_sandwich", _sandwich),
    ]
    for meth in ("compose", "inverse", "dilate", "hom_norm", "distance"):
        out.append((f"group.{meth}", group.Geometry, meth, None))
    for cls in (co.ConstantField, co.CheckerboardField, co.MollifiedField):
        out.append((f"coefficients.{cls.__name__}.many", cls, "many",
                    _points))
    for cls in (co.ConstantField, co.ExprField, co.GridField,
                co.CheckerboardField, co.MollifiedField):
        out.append(("coefficients.call", cls, "__call__", None))
    return out


def install(rec):
    """Wrap every target where it is looked up: the class attribute, or each
    kolmo module global bound to the function.  Returns the undo list."""
    undo = []
    modules = [m for k, m in list(sys.modules.items())
               if k == "kolmo" or k.startswith("kolmo.")]
    for name, owner, attr, measure in targets():
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            undo.append((owner, attr, orig))
            setattr(owner, attr, rec.wrap(name, orig, measure))
            continue
        orig = getattr(owner, attr)
        wrapped = rec.wrap(name, orig, measure)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    undo.append((m, k, orig))
                    setattr(m, k, wrapped)
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


# -- running steps in process ------------------------------------------------


def run_step(mains, step, args, cwd):
    """Run one step in `cwd`; its stdout goes to <label>.stdout there.
    Returns (exit code, wall seconds)."""
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mains[step["program"]](list(args))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            rc = 1
    wall = time.perf_counter() - t0
    Path(f"{step['label']}.stdout").write_bytes(out.getvalue().encode())
    Path(f"{step['label']}.stderr").write_bytes(err.getvalue().encode())
    return rc, wall


def single_thread_args(args):
    if args[:1] == ["--threads"]:
        return ["--threads", "1"] + list(args[2:])
    return None


def main(argv):
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    cli = importlib.import_module("kolmo.cli")
    import_s = time.perf_counter() - t0
    drive = importlib.import_module("drive")
    mains = {"kolmo": cli.main, "drive": drive.main}
    dirs = plan["dirs"]
    for d in dirs.values():
        Path(d).mkdir(parents=True, exist_ok=True)

    rec = Recorder()
    steps = []
    for step in plan["steps"]:
        # plain, traced, traced, plain: the means cancel a linear drift
        # (caches warming, memory reuse) between the untraced and traced runs
        res = {"label": step["label"]}
        res["rc_plain"], plain1 = run_step(mains, step, step["args"],
                                           dirs["plain"])
        walls, rcs = [], []
        # the first traced run only warms up; spans and artifacts are kept
        # from the second
        for r in (Recorder(), rec):
            undo = install(r)
            r.step = step["label"]
            try:
                with r.span("step"):
                    rc, wall = run_step(mains, step, step["args"],
                                        dirs["traced"])
            finally:
                r.step = None
                uninstall(undo)
            walls.append(wall)
            rcs.append(rc)
        res["rc_traced"] = next((c for c in rcs if c != 0), 0)
        _, plain2 = run_step(mains, step, step["args"], dirs["plain"])
        res["plain_s"] = 0.5 * (plain1 + plain2)
        res["traced_s"] = 0.5 * sum(walls)
        single = single_thread_args(step["args"])
        if single is not None:
            # against plain2, the run just before it
            res["threaded_s"] = plain2
            _, res["single_s"] = run_step(mains, step, single,
                                          dirs["single"])
        steps.append(res)

    doc = {"workload": plan["workload"], "import_s": import_s,
           "steps": steps, "spans": rec.spans}
    Path(plan["out"]).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
