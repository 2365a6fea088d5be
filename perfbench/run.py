"""End-to-end and per-layer benchmark of kolmo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a kolmo source checkout; the library is taken from
src/ next to this directory, nothing is installed.  Workloads are defined in
workloads.py and described in README.md.

--trace 0 runs the workload as a closed loop with one client: each step is a
fresh `kolmo` process (or a fresh process of the benchmark's own library
step, drive.py), started only after the previous one finished and its output was
checked, pass after pass (at least two) until the next pass would overrun
--seconds.  It reports the end-to-end metrics.

--trace 1 runs one such pass, with the set-up command as its first step,
then the same pass in process under the tracer (tracer.py), checks that
the traced run's artifacts are byte-identical to the untraced pass's, and
reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the machine block,
goes to .perfbench_work/<workload>-trace<k>/result.json.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COLD_STARTS = 5         # `kolmo structure` runs per set-up measurement
STEP_TIMEOUT = 100.0    # a step running longer is killed and counts failed
TRACE_TIMEOUT = 150.0
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Time of calibrate() on the machine the bounds were set on (2-core x86-64
# VM, Python 3.11, numpy 2.4).  Timings are reported in these
# reference seconds: each step's wall time is divided by the mean of the
# calibrations just before and just after it, then multiplied by
# CALIB_REF_S.  That machine is shared, and its speed drifts by tens of per
# cent over minutes; the drift slows the calibration and the step alike,
# and the ratio cancels most of it.
CALIB_REF_S = 0.1

# (name, unit, better, bound): what a user of kolmo sees.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_rate", "1", "higher", 0.05),
]

GROUP_METHODS = ("compose", "inverse", "dilate", "hom_norm", "distance")
FIELDS = ("ConstantField", "CheckerboardField", "MollifiedField")
VERIFY = ("harnack_local", "harnack_cone", "harnack_global", "fit_sandwich")

# (name, unit, better): single layers, from the traced run.
PER_LAYER = (
    [("cli.import_s", "s", "lower"),
     ("cli.write_csv.self_s", "s", "lower"),
     ("cli.write_csv.rows", "count", "higher"),
     ("cli.write_csv.mb_per_s", "MB/s", "higher"),
     ("specfile.load.calls", "count", "lower"),
     ("specfile.load.self_s", "s", "lower"),
     ("structure.check_hypoellipticity.self_s", "s", "lower"),
     ("structure.detect_canonical_form.self_s", "s", "lower")]
    + [(f"group.{m}.{k}", u, "lower") for m in GROUP_METHODS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("group.hom_norm.us_per_call", "us", "lower"),
       ("kernel.gamma_K_lambda.calls", "count", "lower"),
       ("kernel.gamma_K_lambda.us_per_call", "us", "lower"),
       ("kernel.gamma_K_lambda.self_s", "s", "lower"),
       ("kernel.gamma_many.points", "count", "higher"),
       ("kernel.gamma_many.ns_per_point", "ns", "lower"),
       ("kernel.cov.calls", "count", "lower"),
       ("kernel.covariance.calls", "count", "lower"),
       ("kernel.cov.hit_ratio", "1", "higher"),
       ("kernel.covariance_matrix.calls", "count", "lower"),
       ("kernel.reproduction_check.self_s", "s", "lower")]
    + [(f"coefficients.{f}.many.{k}", u, "lower") for f in FIELDS
       for k, u in (("calls", "count"), ("points", "count"),
                    ("self_s", "s"), ("ns_per_point", "ns"))]
    + [("coefficients.call.calls", "count", "lower"),
       ("coefficients.modulus_of_continuity.self_s", "s", "lower"),
       ("coefficients.holder_seminorm.self_s", "s", "lower"),
       ("coefficients.mollify.self_s", "s", "lower"),
       ("pde.solve_cauchy.calls", "count", "lower"),
       ("pde.solve_cauchy.self_s", "s", "lower"),
       ("pde.solve_cauchy.steps", "count", "lower"),
       ("pde.solve_cauchy.nodes", "count", "higher"),
       ("pde.solve_cauchy.ns_per_node_step", "ns", "lower"),
       ("pde.solve_cauchy.values_mb", "MB", "lower"),
       ("pde.solve_cauchy.boundary_max_ratio", "1", "lower"),
       ("pde.solve_cauchy.warnings", "count", "lower"),
       ("pde.solve_cauchy.negative_values", "count", "lower"),
       ("pde.approx_fundamental.self_s", "s", "lower"),
       ("mc.simulate.calls", "count", "lower"),
       ("mc.simulate.self_s", "s", "lower"),
       ("mc.simulate.path_steps", "count", "higher"),
       ("mc.simulate.ns_per_path_step", "ns", "lower"),
       ("mc.simulate.chunks", "count", "lower"),
       ("mc.thread_speedup", "1", "higher"),
       ("mc.thread_speedup.single_s", "s", "lower"),
       ("mc.thread_speedup.threaded_s", "s", "lower"),
       ("mc.density_estimate.self_s", "s", "lower"),
       ("mc.mass_in_DR.self_s", "s", "lower")]
    + [(f"verify.{v}.{k}", u, "lower") for v in VERIFY
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("verify.nodes", "count", "higher"),
       ("trace.overhead_frac", "1", "lower"),
       ("trace.self_sum_gap", "1", "lower"),
       ("pde.solve_cauchy.max_rel_err", "1", "lower"),
       ("mc.simulate.cov_max_rel_err", "1", "lower"),
       ("kernel.reproduction_check.max_rel_err", "1", "lower"),
       ("kernel.gamma_K_lambda.homogeneity_defect", "1", "lower")]
)


def calibrate():
    """Seconds taken by a fixed reference task made of the three kinds of
    work kolmo's steps do: interpreted Python, numpy streaming over an array
    larger than the caches, and many small numpy calls."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.linspace(-1.0, 1.0, 1_000_000)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    x, eye = np.ones(3), np.eye(3)
    for _ in range(20_000):
        x = x @ eye
    return time.perf_counter() - t0


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    env.update(PINS)
    return env


def run_child(cmd, cwd, stem, timeout):
    """Run cmd in cwd through launch.py, with stdout/stderr in
    <stem>.stdout/.stderr.  Returns (exit code, wall seconds, peak RSS in
    MB) of cmd itself; a launcher that hangs is killed with its group."""
    launcher = [sys.executable, str(HERE / "launch.py"), str(timeout),
                f"{stem}.stdout", f"{stem}.stderr", "--", *cmd]
    t0 = time.perf_counter()
    p = subprocess.Popen(launcher, cwd=cwd, env=child_env(),
                         stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout + 30.0)
    except subprocess.TimeoutExpired:
        out = b""
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
    if p.returncode != 0 or not out:
        return -1, time.perf_counter() - t0, 0.0
    rep = json.loads(out)
    return rep["rc"], rep["wall_s"], rep["maxrss_kb"] / 1024.0


def step_cmd(step):
    if step.program == "drive":
        return [sys.executable, str(HERE / "drive.py")] + step.args
    return [sys.executable, "-m", "kolmo.cli"] + step.args


def run_step(step, pass_dir, calib):
    """Run one step, calibrate, then check the step's output.  `calib` is
    the calibration just before the step; the step is scaled by the mean
    of the two around it.  Returns (record, calibration just after)."""
    rc, wall, rss = run_child(step_cmd(step), pass_dir,
                              pass_dir / step.label, STEP_TIMEOUT)
    after = calibrate()
    rec = {"label": step.label, "kind": step.kind, "rc": rc, "wall": wall,
           "calib": 0.5 * (calib + after), "rss_mb": rss, "ok": False}
    if rc == 0:
        try:
            report = json.loads(
                (pass_dir / f"{step.label}.stdout").read_bytes())
            rec.update(step.check(report, pass_dir))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            rec["error"] = f"{type(e).__name__}: {e}"
    return rec, after


def run_steps(steps, pass_dir, calib):
    recs = []
    for s in steps:
        rec, calib = run_step(s, pass_dir, calib)
        recs.append(rec)
    return recs, calib


def closed_loop(wl, pass_dir, seconds, calib):
    """Passes of the step sequence until the next would overrun `seconds`;
    at least two, so every step has a median of two or more."""
    passes = []
    t0 = time.perf_counter()
    while True:
        recs, calib = run_steps(wl.steps, pass_dir, calib)
        passes.append(recs)
        elapsed = time.perf_counter() - t0
        if len(passes) >= 2 and elapsed * (1.0 + 1.0 / len(passes)) > seconds:
            return passes


def machine(nproc):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
            commit = r.stdout.strip() or None
        except OSError:
            pass
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "env_pins": PINS, "git_commit": commit,
            "platform": platform.platform()}


def summarize(recs):
    """Per-kind throughput, accuracy and solver audit of untraced steps."""
    work, wall = defaultdict(float), defaultdict(float)
    errs = {}
    for r in recs:
        if "work" in r:
            work[r["kind"]] += r["work"]
            wall[r["kind"]] += r["wall"]
        for k, v in r.get("errors", {}).items():
            errs[k] = max(errs.get(k, 0.0), v)
    names = {"solve": "solve_node_steps_per_s", "mc": "mc_path_steps_per_s",
             "verify": "verify_nodes_per_s"}
    out = {names[k]: work[k] / wall[k] for k in work if wall[k] > 0}
    if errs:
        out["max_rel_err"] = max(errs.values())
    out["errors"] = errs
    audits = [(r["boundary_max_ratio"], len(r["warnings"])) for r in recs
              if "boundary_max_ratio" in r]
    if audits:
        out["boundary_max_ratio"] = max(a for a, _ in audits)
        out["solver_warnings"] = sum(w for _, w in audits)
    return out


# -- per-layer metrics from spans --------------------------------------------


def _covered(intervals):
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(doc):
    """Self time (span minus the part its same-thread children cover),
    inclusive time, calls and counts per span name."""
    spans = [dict(zip(("sid", "name", "t0", "t1", "parent", "step", "tid",
                       "counts"), s)) for s in doc["spans"]]
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    agg = defaultdict(lambda: defaultdict(float))
    gaps = []
    for s in spans:
        s["self"] = (s["t1"] - s["t0"]) - _covered(
            [(c["t0"], c["t1"]) for c in kids[s["sid"]]
             if c["tid"] == s["tid"]])
        a = agg[s["name"]]
        a["calls"] += 1
        a["self_s"] += s["self"]
        a["incl_s"] += s["t1"] - s["t0"]
        for k, v in (s["counts"] or {}).items():
            if k in ("values_bytes", "boundary_max_ratio"):
                a[k] = max(a[k], v)
            else:
                a[k] += v
    for root in (s for s in spans if s["name"] == "step"):
        lane, todo = 0.0, [root]
        while todo:
            s = todo.pop()
            lane += s["self"]
            todo.extend(c for c in kids[s["sid"]] if c["tid"] == root["tid"])
        gaps.append(abs(lane - (root["t1"] - root["t0"]))
                    / (root["t1"] - root["t0"]))
    return agg, max(gaps, default=0.0)


def per_layer(doc, errors):
    agg, gap = layer_metrics(doc)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    # <span name>.<stat>: a call count, self time or work count of the span
    m = {name: agg[name.rsplit(".", 1)[0]][name.rsplit(".", 1)[1]]
         for name, _, _ in PER_LAYER}
    m["cli.import_s"] = doc["import_s"]
    w = agg["cli.write_csv"]
    m["cli.write_csv.mb_per_s"] = ratio(w["bytes"] / 1e6, w["self_s"])
    # inclusive time per unit of work
    for name, per, scale, unit in (
            ("group.hom_norm", "calls", 1e6, "us_per_call"),
            ("kernel.gamma_K_lambda", "calls", 1e6, "us_per_call"),
            ("kernel.gamma_many", "points", 1e9, "ns_per_point"),
            ("pde.solve_cauchy", "node_steps", 1e9, "ns_per_node_step"),
            ("mc.simulate", "path_steps", 1e9, "ns_per_path_step")):
        m[f"{name}.{unit}"] = ratio(agg[name]["incl_s"], agg[name][per],
                                    scale)
    for f in FIELDS:
        a = agg[f"coefficients.{f}.many"]
        m[f"coefficients.{f}.many.ns_per_point"] = ratio(a["incl_s"],
                                                         a["points"], 1e9)
    cov = agg["kernel.cov"]["calls"]
    m["kernel.cov.hit_ratio"] = (
        1.0 - agg["kernel.covariance"]["calls"] / cov if cov else 0.0)
    m["pde.solve_cauchy.values_mb"] = (
        agg["pde.solve_cauchy"]["values_bytes"] / 1e6)
    single = [r for r in doc["steps"] if "single_s" in r]
    if single:
        one = sum(r["single_s"] for r in single)
        many = sum(r["threaded_s"] for r in single)
        m["mc.thread_speedup"] = one / many
        m["mc.thread_speedup.single_s"] = one
        m["mc.thread_speedup.threaded_s"] = many
    m["verify.nodes"] = sum(agg[f"verify.{v}"]["nodes"] for v in VERIFY)
    plain = sum(r["plain_s"] for r in doc["steps"])
    traced = sum(r["traced_s"] for r in doc["steps"])
    m["trace.overhead_frac"] = traced / plain - 1.0
    m["trace.self_sum_gap"] = gap
    m.update(errors)
    return m


# -- the two kinds of run ----------------------------------------------------


def untraced_run(wl, pass_dir, seconds):
    # set-up: cold starts of `kolmo structure`, each a fresh process.  Input
    # generation has already imported kolmo in this process, so byte-code
    # is compiled and the files are in the page cache, as for a user's
    # repeated runs.
    setup, calib = run_steps([wl.setup] * COLD_STARTS, pass_dir,
                             calibrate())
    passes = closed_loop(wl, pass_dir, seconds, calib)
    steps = [r for p in passes for r in p]
    recs = setup + steps
    # a step's median over passes, so one disturbed pass does not move it
    med = [statistics.median(p[i]["wall"] / p[i]["calib"] for p in passes)
           for i in range(len(wl.steps))]
    ok = sum(r["ok"] for r in recs)
    metrics = {
        "wall_s": CALIB_REF_S * sum(med),
        "setup_s": CALIB_REF_S * statistics.median(
            r["wall"] / r["calib"] for r in setup),
        "peak_rss_mb": max(r["rss_mb"] for r in recs),
        "ok_rate": ok / len(recs)}
    info = {"passes": len(passes),
            "wall_raw_s": sum(statistics.median(p[i]["wall"] for p in passes)
                              for i in range(len(wl.steps))),
            "setup_raw_s": statistics.median(r["wall"] for r in setup),
            "calib_s": statistics.median(r["calib"] for r in recs)}
    return recs, metrics, {**info, **summarize(steps)}


def _same_bytes(a, b):
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def traced_run(wl, run_dir, pass_dir):
    # the set-up command is traced too: it is the structure layer's caller
    steps = [wl.setup] + wl.steps
    recs, _ = run_steps(steps, pass_dir, calibrate())
    dirs = {k: str(run_dir / k) for k in ("plain", "single", "traced")}
    plan = {"workload": wl.name, "dirs": dirs,
            "out": str(run_dir / "spans.json"),
            "steps": [{"label": s.label, "program": s.program,
                       "args": s.args} for s in steps]}
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    rc, _, _ = run_child([sys.executable, str(HERE / "tracer.py"),
                          str(plan_path)], run_dir, run_dir / "tracer",
                         TRACE_TIMEOUT)
    summary = summarize(recs)
    if rc != 0:
        print(f"perfbench: tracer exited {rc}; see {run_dir}/tracer.stderr",
              file=sys.stderr)
        traced = [{"label": s.label, "kind": "traced", "ok": False}
                  for s in steps]
        metrics = {name: 0.0 for name, _, _ in PER_LAYER}
        return recs + traced, metrics, summary
    doc = json.loads((run_dir / "spans.json").read_text(encoding="utf-8"))
    traced = []
    for s, r in zip(steps, doc["steps"]):
        files = [f"{s.label}.stdout", *s.outs]
        same = [_same_bytes(pass_dir / f, Path(dirs["traced"]) / f)
                for f in files]
        traced.append({"label": s.label, "kind": "traced",
                       "ok": r["rc_traced"] == 0 and all(same),
                       "identical": all(same)})
    metrics = per_layer(doc, summary["errors"])
    return recs + traced, metrics, summary


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kolmo" / "cli.py").is_file():
        print(f"perfbench: no kolmo source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    run_dir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    pass_dir = run_dir / "pass"
    pass_dir.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, run_dir / "inputs", nproc)
    if args.trace:
        recs, metrics, summary = traced_run(wl, run_dir, pass_dir)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        recs, metrics, summary = untraced_run(wl, pass_dir, args.seconds)
        units = {n: u for n, u, _, _ in END_TO_END}
    failed = sum(not r["ok"] for r in recs)
    out = {"correct": failed == 0, "attempted": len(recs), "failed": failed,
           "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                       for k in units}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(nproc), "summary": summary,
              "steps": recs, **out}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")

    by_label = defaultdict(list)
    for r in recs:
        by_label[r["label"]].append(r)
    for label, rs in by_label.items():
        walls = [r["wall"] for r in rs if "wall" in r]
        wall = f" median {statistics.median(walls):.3f} s" if walls else ""
        print(f"step {label}: {len(rs)} run(s),{wall} "
              f"{sum(not r['ok'] for r in rs)} failed")
    for k, v in summary.items():
        if k != "errors":
            print(f"info {k}: {v}")
    print(f"info fail_rate: {failed / len(recs)}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
