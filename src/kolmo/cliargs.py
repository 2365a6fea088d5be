"""What every command module shares: the spec with the point options'
defaults, the JSON report on stdout, the echo of the resolved options, the
check of --out, and the parsing of list-valued options.

A malformed value raises SpecError, which the CLI maps to exit 2.
"""

import math
import os
import sys

import numpy as np

from . import specfile
from .specfile import SpecError


def load(args):
    """The spec args.spec names; each point option left unset becomes the
    origin of its R^N, "0,...,0"."""
    spec = specfile.load(args.spec)
    for name in ("x0", "y", "pole", "center"):
        if name in args and getattr(args, name) is None:
            setattr(args, name, ",".join(["0"] * spec.structure.N))
    return spec


def emit(report):
    sys.stdout.write(specfile.dumps_stable(report) + "\n")


def resolved(args, **extra):
    """The options a report echoes: every one that has a value."""
    cfg = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    cfg.update(extra)
    return cfg


def check_out(args):
    """Refuse, before any work, an --out that names no file in an existing
    directory."""
    out = getattr(args, "out", None)
    if out is not None and (not out or os.path.isdir(out) or not
                            os.path.isdir(os.path.dirname(out) or ".")):
        raise SpecError(f"--out {out!r} is not a file in an existing "
                        f"directory")


def finite(s):
    """float(s); a ValueError unless it is finite."""
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"{s!r} is not a finite number")
    return v


def floats(s):
    try:
        return np.array([finite(v) for v in s.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"{s!r}: {exc}") from exc


def vector(args, name, N):
    """The point option --name: N comma-separated numbers."""
    v = floats(getattr(args, name))
    if len(v) != N:
        raise SpecError(f"--{name} needs {N} components, "
                        f"got {getattr(args, name)!r}")
    return v


def box(args, N):
    """--box: N intervals lo,hi with lo < hi, separated by ';'."""
    b = [floats(p) for p in args.box.split(";")]
    if len(b) != N or any(len(iv) != 2 or not iv[0] < iv[1] for iv in b):
        raise SpecError(f"--box needs {N} intervals lo,hi with lo < hi, "
                        f"got {args.box!r}")
    return np.array(b)


def counts(args, name, N, least):
    """The count option --name: N integers, each at least `least`."""
    s = getattr(args, name)
    try:
        v = [int(x) for x in s.split(",")]
    except ValueError as exc:
        raise SpecError(f"--{name} {s!r}: {exc}") from exc
    if len(v) != N or min(v) < least:
        raise SpecError(f"--{name} needs {N} counts of at least {least}, "
                        f"got {s!r}")
    return v
