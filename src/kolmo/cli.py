"""Command-line surface.

Exit codes (EXITS): 0 ok, 2 spec parse or argument error (a mollified field
read outside its raw field's time window among them), 3 structure rejection,
4 NotSPD, 5 solver error, 6 Monte Carlo error, 7 verification error.
All CSV artifacts: comma separated, header row, 17-significant-digit floats.
All JSON reports: UTF-8, stable key order.

Every command's options are declared once, in COMMANDS.  A process builds
only the parsers on its command's path (the top one, the first word's and
the command's own); the others are known by name only, so usage, help and
error texts list them all.  `structure` runs here.  Every other first
word's commands live in kolmo.cli_<first word>, imported when one of them
is dispatched.  Beyond what `structure` loads, `kernel` loads the kernel
(kolmo.kernel), `solve` the kernel and the solver (kolmo.pde), `mc` the
Monte Carlo (kolmo.mc), `check` the kernel and the verifier (kolmo.verify,
and the solver for `check bounds` without --self-test) and `mollify` the
mollifier (kolmo.regularity), which a spec with a mollified field loads
too.

Every report goes one way, through main: it settles the mode of `check
bounds` and `check harnack`, checks --out, loads the spec, runs the
command, a function of (args, spec) that returns its report's body, and
writes {"command", "config", **body} to stdout.  tests/test_tooling.py
keeps it so.  Every number option, list or points file refuses a value
that is not finite (exit 2).
"""

import argparse
import importlib
import math
import os
import sys

from . import specfile
from .errors import (ArgumentError, BoxTooSmall, ConeUnresolved,
                     CylinderUnresolved, KolmoError, NoAdmissibleFit,
                     NonFinite, NotCanonical, NotNonnegative, NotSPD,
                     RankDeficient, SupportExceedsGrid, Unstable,
                     WindowUnderflow)
from .specfile import SpecError
# perfbench/tracer.py wraps the CSV writer under this name
from .specfile import write_csv  # noqa: F401

EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_NOTSPD = 4
EXIT_SOLVER = 5
EXIT_MC = 6
EXIT_VERIFY = 7

# The one map from library errors to exit codes: (code, stderr label, error
# classes).  main re-raises any other KolmoError (InternalInconsistency).
EXITS = ((EXIT_PARSE, "error", (SpecError, ArgumentError, WindowUnderflow)),
         (EXIT_STRUCTURE, "structure error", (NotCanonical, RankDeficient)),
         (EXIT_NOTSPD, "not SPD", (NotSPD,)),
         (EXIT_SOLVER, "solver error",
          (Unstable, BoxTooSmall, SupportExceedsGrid)),
         (EXIT_MC, "mc error", (NonFinite,)),
         (EXIT_VERIFY, "verify error", (NoAdmissibleFit, CylinderUnresolved,
                                        ConeUnresolved, NotNonnegative)))
# pde.DIFFUSION_STEPS and pde.COURANT, written out so that building the
# parser does not import the solver
DT_HELP = ("time step; default 4 h^2 / (2 Lambda m0) "
           "(h the finest x^(0) spacing, Lambda the largest eigenvalue A0 "
           "takes), within the caps: 0.9 h / |b|_1 where b is present "
           "(|b|_1 the largest b takes) and h^2 / (2 Lambda m0) where A0 "
           "takes off-diagonal entries; a --dt above a cap exits 5")

# the point options' default, set by point_defaults once the spec is read
ORIGIN = "N comma-separated numbers; default the origin of R^N"


def _ranged(conv, ok, what):
    """An argparse type: conv(s), refused (exit 2) unless ok(value)."""
    def parse(s):
        v = conv(s)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"needs {what}, got {s!r}")
        return v
    parse.__name__ = conv.__name__     # argparse's "invalid int value"
    return parse


_positive_int = _ranged(int, lambda n: n >= 1, "an integer >= 1")
_count = _ranged(int, lambda n: n >= 0, "an integer >= 0")
_number = _ranged(float, math.isfinite, "a finite number")
_positive_float = _ranged(float, lambda x: 0.0 < x < math.inf,
                          "a finite number > 0")


# -- the commands' options ---------------------------------------------------


def _opt(*flags, **kwargs):
    """One option: the arguments of its add_argument call."""
    return flags, kwargs


def _dest(flags, kwargs):
    """The attribute argparse stores the option under."""
    return kwargs.get("dest", flags[0].lstrip("-").replace("-", "_"))


_SPEC = _opt("spec", help="OperatorSpec JSON path")
_LAMBDA = _opt("--lambda", dest="lam", type=_number, default=2.0)
_SEED = _opt("--seed", type=_count, default=0)
_T0 = _opt("--t0", type=_number, default=0.0)
_T1 = _opt("--t1", type=_number, required=True)
_X0 = _opt("--x0", help=ORIGIN)
_DT = _opt("--dt", type=_positive_float, help=DT_HELP)
_NX = _opt("--nx", required=True)
_CENTER = _opt("--center", help=ORIGIN)
_CENTER_T = _opt("--center-t", dest="center_t", type=_number, default=0.5)
_POLE = _opt("--pole", help=ORIGIN)
_POLE_T0 = _opt("--pole-t0", dest="pole_t0", type=_number, default=-2.0)
# The options each mode of `check bounds` and `check harnack` reads.  They
# are declared without their defaults: main refuses one of the other mode
# rather than echo and ignore it, and fills in the mode's own.
_BOUNDS_SELF_TEST = [_opt("--samples", type=_positive_int, default=500),
                     _SEED]
_BOUNDS_FIT = [
    _opt("--lambda-plus", dest="lam_plus", type=_number, default=4.5),
    _opt("--lambda-minus", dest="lam_minus", type=_number, default=1.8),
    _opt("--err-budget", dest="err_budget", type=_number, default=0.05),
    _opt("--box", default="-4,4;-2,2"), _opt("--nx", default="81,121"),
    _opt("--width", type=_positive_float, default=0.2)]
_HARNACK_SWEEP = [_SEED, _opt("--out", default="harnack_sweep.csv")]
_HARNACK_SINGLE = [_CENTER, _CENTER_T]
# words -> (the mode's switch, the options read with it on, those read
# with it off)
MODES = {("check", "bounds"): ("--self-test", _BOUNDS_SELF_TEST, _BOUNDS_FIT),
         ("check", "harnack"): ("--sweep", _HARNACK_SWEEP, _HARNACK_SINGLE)}
_MC = [_SPEC, _opt("--paths", type=int, default=100000),
       _opt("--dt", type=_positive_float, help="Euler step, default 1e-3 "
            "(mc.DT); exits 2 if every coefficient is a constant, whose end "
            "states are drawn from the exact law"), _SEED, _X0, _T0,
       _opt("--t1", type=_number, default=0.5), _LAMBDA]

# words -> options, in help order; the first words and each group's
# commands are listed in this order too
COMMANDS = {
    ("structure",): [_SPEC],
    ("kernel", "eval"): [
        _SPEC, _opt("--pole", required=True), _T0, _opt("--points"),
        _opt("--grid"), _LAMBDA,
        _opt("--check-homogeneity", action="store_true"),
        _opt("--out", default="kernel_eval.csv")],
    ("kernel", "reproduce"): [
        _SPEC, _opt("--configs", type=_positive_int, default=100), _SEED,
        _LAMBDA],
    ("solve", "cauchy"): [
        _SPEC, _opt("--box", required=True, help="lo,hi;lo,hi;..."), _NX,
        _T0, _T1, _DT, _X0, _opt("--datum", default="gaussian:0.1"),
        _LAMBDA, _opt("--out", default="cauchy.csv")],
    ("solve", "fundamental"): [
        _SPEC, _opt("--box", required=True), _NX, _X0, _T0, _T1, _DT,
        _opt("--widths", default="0.3,0.25,0.2"), _LAMBDA,
        _opt("--out", default="fundamental.csv")],
    ("mc", "simulate"): _MC + [_opt("--out", default="ensemble.csv")],
    ("mc", "density"): _MC + [
        _opt("--box", required=True), _opt("--bins", required=True),
        _opt("--out", default="density.csv")],
    ("mc", "mass"): _MC + [
        _opt("--y", help=ORIGIN),
        _opt("--radius", type=_positive_float, default=1.0)],
    ("mollify",): [
        _SPEC, _opt("--field", default="A0"),
        _opt("--eps", default="0.2,0.1,0.05"),
        _opt("--samples", type=_positive_int, default=2000)],
    ("check", "bounds"): [
        _SPEC, _opt("--self-test", action="store_true"), _X0, _T0, _LAMBDA,
        *_BOUNDS_SELF_TEST, *_BOUNDS_FIT],
    ("check", "harnack"): [
        _SPEC, *_HARNACK_SINGLE,
        _opt("--radius", type=_positive_float, default=0.4),
        _opt("--omega", default=0.5, type=_ranged(
            float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")),
        _opt("--n-space", dest="n_space", type=_positive_int, default=3),
        _opt("--n-time", dest="n_time", type=_positive_int, default=3),
        _POLE, _POLE_T0, _LAMBDA, _opt("--sweep", default=0, type=_count),
        *_HARNACK_SWEEP],
    ("check", "cone"): [
        _SPEC, _CENTER, _CENTER_T,
        _opt("--beta", type=_positive_float, default=1.0),
        _opt("--radius", type=_positive_float, default=0.5),
        _opt("--R", type=_positive_float, default=0.5), _POLE, _POLE_T0,
        _LAMBDA],
    ("check", "global"): [
        _SPEC, _opt("--pairs", type=_positive_int, default=50), _SEED,
        _POLE, _POLE_T0, _LAMBDA],
}


# -- argument parsing --------------------------------------------------------


class _Commands(argparse._SubParsersAction):
    """The commands under one parser.  Every name is a choice from the
    start, but a command's parser is built only when argv selects it."""

    def __init__(self, *args, words, **kwargs):
        super().__init__(*args, **kwargs)
        self._words = words
        self._name_parser_map.update(dict.fromkeys(
            w[len(words)] for w in COMMANDS if w[:len(words)] == words))

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if self._name_parser_map[name] is None:
            self._name_parser_map[name] = _declare(
                self._parser_class(prog=f"{self._prog_prefix} {name}"),
                self._words + (name,))
        super().__call__(parser, namespace, values, option_string)


def _declare(parser, words):
    """Give `parser` the options of the command `words`, or, for a first
    word with commands under it, those commands."""
    if words in COMMANDS:
        moded = [o for opts in MODES.get(words, ())[1:] for o in opts]
        for flags, kwargs in COMMANDS[words]:
            if (flags, kwargs) in moded:
                kwargs = {k: v for k, v in kwargs.items() if k != "default"}
            parser.add_argument(*flags, **kwargs)
    else:
        parser.add_subparsers(dest="subcommand" if words else "command",
                              required=True, action=_Commands, words=words)
    return parser


def build_parser():
    p = argparse.ArgumentParser(prog="kolmo")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes that step a stepped mc "
                        "ensemble's chunks, 1 to mc.MAX_THREADS (an exact "
                        "draw runs in the calling process); only mc reads it")
    return _declare(p, ())


def _command(words):
    """The function that runs the command `words`."""
    if words == ("structure",):
        return cmd_structure
    module = importlib.import_module(f"kolmo.cli_{words[0]}")
    return getattr(module, "cmd_" + "_".join(words))


# -- the report pipeline -----------------------------------------------------


def settle_mode(args, words):
    """For a command with modes: raise SpecError if an option of the mode
    not chosen was given, else drop it from args, so that neither the point
    defaults nor the report's echo sees it; fill in the defaults of the
    chosen mode's options."""
    if words not in MODES:
        return
    flag, on_opts, off_opts = MODES[words]
    on = bool(getattr(args, _dest((flag,), {})))
    reads, other = (on_opts, off_opts) if on else (off_opts, on_opts)
    for flags, kwargs in other:
        dest = _dest(flags, kwargs)
        if getattr(args, dest) is not None:
            raise SpecError(f"{flags[0]} is not read "
                            f"{'with' if on else 'without'} {flag}")
        delattr(args, dest)
    for flags, kwargs in reads:
        dest = _dest(flags, kwargs)
        if getattr(args, dest) is None:
            setattr(args, dest, kwargs.get("default"))


def check_out(args):
    """Refuse, before any work, an --out that names no file in an existing
    directory."""
    out = getattr(args, "out", None)
    if out is not None and (not out or os.path.isdir(out) or not
                            os.path.isdir(os.path.dirname(out) or ".")):
        raise SpecError(f"--out {out!r} is not a file in an existing "
                        f"directory")


def point_defaults(args, N):
    """Each point option left unset becomes the origin of R^N, "0,...,0"."""
    for name in ("x0", "y", "pole", "center"):
        if name in args and getattr(args, name) is None:
            setattr(args, name, ",".join(["0"] * N))


def resolved(args):
    """The options a report echoes: every one that has a value."""
    return {k: v for k, v in sorted(vars(args).items()) if v is not None}


def emit(report):
    sys.stdout.write(specfile.dumps_stable(report) + "\n")


# -- commands ----------------------------------------------------------------


def cmd_structure(args, spec):
    return {"N": spec.structure.N, "Q": spec.structure.Q,
            "alpha": list(spec.structure.alpha),
            "blocks": list(spec.structure.blocks),
            "report": spec.hypo_report()._asdict()}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    words = (args.command,) + ((args.subcommand,) if "subcommand" in args
                               else ())
    try:
        settle_mode(args, words)
        check_out(args)
        spec = specfile.load(args.spec)
        point_defaults(args, spec.structure.N)
        body = _command(words)(args, spec)
        emit({"command": " ".join(words), "config": resolved(args), **body})
        return 0
    except KolmoError as e:
        for code, label, errors in EXITS:
            if isinstance(e, errors):
                print(f"{label}: {e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
