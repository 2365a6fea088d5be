"""The parsing of the command modules' list-valued options: points,
boxes, counts and comma-separated numbers.

A malformed value raises SpecError, which the CLI maps to exit 2.
"""

import math

import numpy as np

from .specfile import SpecError


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
