"""Command-line surface.

Exit codes: 0 ok, 2 spec parse or argument error (a mollified field read
outside its raw field's time window among them), 3 structure rejection,
4 NotSPD, 5 solver error, 6 Monte Carlo error, 7 verification error.
All CSV artifacts: comma separated, header row, 17-significant-digit floats.
All JSON reports: UTF-8, stable key order.

Every command's options are declared once, in COMMANDS.  A process builds
only the parsers on its command's path (the top one, the first word's and
the command's own); the others are known by name only, so usage, help and
error texts list them all.  `structure` runs here.  Every other first
word's commands live in kolmo.cli_<first word>, imported when one of them
is dispatched.  Beyond what `structure` loads, `solve` loads the solver
(kolmo.pde), `mc` the Monte Carlo (kolmo.mc, with its thread pool) and
`check` the verifier (kolmo.verify, and the solver for `check bounds`
without --self-test); `kernel` and `mollify` load nothing more.
"""

import argparse
import importlib
import math
import sys

from . import specfile
from .cliargs import check_out, emit, resolved
from .errors import (ArgumentError, BoxTooSmall, ConeUnresolved,
                     CylinderUnresolved, NoAdmissibleFit, NonFinite,
                     NotCanonical, NotNonnegative, NotSPD, RankDeficient,
                     SupportExceedsGrid, Unstable, WindowUnderflow)
from .specfile import SpecError
# perfbench/tracer.py wraps the CSV writer under this name
from .specfile import write_csv  # noqa: F401

EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_NOTSPD = 4
EXIT_SOLVER = 5
EXIT_MC = 6
EXIT_VERIFY = 7

_SOLVER_ERRORS = (Unstable, BoxTooSmall, SupportExceedsGrid)
_MC_ERRORS = (NonFinite,)
_VERIFY_ERRORS = (NoAdmissibleFit, CylinderUnresolved, ConeUnresolved,
                  NotNonnegative)
# pde.DIFFUSION_STEPS and pde.COURANT, written out so that building the
# parser does not import the solver
DT_HELP = ("time step; default 4 h^2 / (2 Lambda m0) "
           "(h the finest x^(0) spacing, Lambda the larger of the spec's "
           "ellipticity bound and a probe of A0), within the caps: "
           "0.9 h / |b|_1 where b is present and h^2 / "
           "(2 Lambda m0) where A0 has off-diagonal entries; a --dt above "
           "a cap exits 5")

# the point options' default, set by cliargs.load once the spec is read
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


def _unset(option):
    """`option` without its default, for a mode that fills in its own."""
    flags, kwargs = option
    return flags, {k: v for k, v in kwargs.items() if k != "default"}


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
_MC = [_SPEC, _opt("--paths", type=int, default=100000),
       _opt("--dt", type=_positive_float, default=1e-3), _SEED, _X0, _T0,
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
        # read with --self-test only
        _opt("--samples", type=_positive_int), _unset(_SEED),
        # read without --self-test only
        _opt("--lambda-plus", dest="lam_plus", type=_number),
        _opt("--lambda-minus", dest="lam_minus", type=_number),
        _opt("--err-budget", dest="err_budget", type=_number),
        _opt("--box"), _opt("--nx"), _opt("--widths")],
    ("check", "harnack"): [
        # --center and --center-t are read without --sweep only
        _SPEC, _CENTER, _unset(_CENTER_T),
        _opt("--radius", type=_positive_float, default=0.4),
        _opt("--omega", default=0.5, type=_ranged(
            float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")),
        _opt("--n-space", dest="n_space", type=_positive_int, default=3),
        _opt("--n-time", dest="n_time", type=_positive_int, default=3),
        _POLE, _POLE_T0, _LAMBDA, _opt("--sweep", default=0, type=_count),
        # read with --sweep only
        _unset(_SEED), _opt("--out")],
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
        for flags, kwargs in COMMANDS[words]:
            parser.add_argument(*flags, **kwargs)
    else:
        parser.add_subparsers(dest="subcommand" if words else "command",
                              required=True, action=_Commands, words=words)
    return parser


def build_parser():
    p = argparse.ArgumentParser(prog="kolmo")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker threads, at least 1; only the mc commands "
                        "read it")
    return _declare(p, ())


def _command(args):
    """The function that runs args's command."""
    if args.command == "structure":
        return cmd_structure
    words = [args.command] + ([args.subcommand] if "subcommand" in args
                              else [])
    module = importlib.import_module(f"kolmo.cli_{args.command}")
    return getattr(module, "cmd_" + "_".join(words))


# -- commands ----------------------------------------------------------------


def cmd_structure(args):
    spec = specfile.load(args.spec)
    rep = spec.hypo_report()
    emit({"command": "structure", "config": resolved(args),
          "N": spec.structure.N, "Q": spec.structure.Q,
          "alpha": list(spec.structure.alpha),
          "blocks": list(spec.structure.blocks),
          "report": rep.to_dict()})
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        check_out(args)
        return _command(args)(args)
    except (SpecError, ArgumentError, WindowUnderflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (NotCanonical, RankDeficient) as e:
        print(f"structure error: {e}", file=sys.stderr)
        return EXIT_STRUCTURE
    except NotSPD as e:
        print(f"not SPD: {e}", file=sys.stderr)
        return EXIT_NOTSPD
    except _SOLVER_ERRORS as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except _MC_ERRORS as e:
        print(f"mc error: {e}", file=sys.stderr)
        return EXIT_MC
    except _VERIFY_ERRORS as e:
        print(f"verify error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
