"""Coefficient fields: representation, rough synthetic generators and the
set of values a field takes.  The mollifier and the moduli of continuity
are in kolmo.regularity.

A Field is evaluable at any (x, t) inside its window and returns a scalar,
an m0-vector or a symmetric m0 x m0 matrix.  Fields are immutable and pure.
A checkerboard reads a batch through a CellLookup, which floors the whole
batch in one pass.  The reads of the checkerboards of one cell side share
that cell pass and one gather: a TableStack stacks their value tables, and
the lookup hashes the cells for every board's seed at once and takes all
their scalar components into one (k, n) array.  CheckerboardField.many is
the one-board case.  A lookup moved from step to step keeps the values it
gathered over the box of cells while the box and the stack hold.
"""

import math

import numpy as np

from .errors import ArgumentError
from .group import grid

# The operator's coefficients by name, with the tensor rank of each value:
# A0 an m0 x m0 matrix, b an m0-vector, c a scalar.
RANK = {"A0": 2, "b": 1, "c": 0}


class Field:
    """Base class: callable at (x, t); shape is the codomain shape.  reads
    is the number of plain reads one value costs: 1, but a mollified
    field's is its quadrature's node count times its inner field's."""

    reads = 1

    def __init__(self, dim, shape, window=(-np.inf, np.inf)):
        self.dim = dim
        self.shape = tuple(shape)
        self.window = tuple(window)

    def __call__(self, x, t):
        raise NotImplementedError

    def many(self, X, ts):
        """Batch evaluation; subclasses override when they can vectorize."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (X.shape[0],))
        return np.array([self(x, t) for x, t in zip(X, ts)])


class ConstantField(Field):
    def __init__(self, value, dim):
        value = np.asarray(value, dtype=float)
        super().__init__(dim, value.shape)
        self.value = value

    def __call__(self, x, t):
        return self.value

    def many(self, X, ts):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.broadcast_to(self.value, (X.shape[0],) + self.shape).copy()


class ExprField(Field):
    """Field defined by a python callable fn(x, t)."""

    def __init__(self, fn, dim, shape):
        super().__init__(dim, shape)
        self.fn = fn

    def __call__(self, x, t):
        return np.asarray(self.fn(np.asarray(x, dtype=float), float(t)))


class GridField(Field):
    """Tensor-grid samples with multilinear interpolation.

    axes: strictly increasing spatial axes; taxis: time axis; values indexed
    as values[i1, ..., iN, it, *shape].  Each query coordinate, in space and
    in time, is clipped to its axis first, so a point outside the axes reads
    the nearest edge sample and every value lies in the samples' range.
    """

    def __init__(self, axes, taxis, values):
        from scipy.interpolate import RegularGridInterpolator

        axes = [np.asarray(a, dtype=float) for a in axes]
        taxis = np.asarray(taxis, dtype=float)
        values = np.asarray(values, dtype=float)
        for a in axes + [taxis]:
            if np.any(np.diff(a) <= 0):
                raise ValueError("axes must be strictly increasing")
        dim = len(axes)
        shape = values.shape[dim + 1:]
        super().__init__(dim, shape, (taxis[0], taxis[-1]))
        self.axes = axes
        self.taxis = taxis
        self.values = values
        self._lo = np.array([a[0] for a in axes + [taxis]])
        self._hi = np.array([a[-1] for a in axes + [taxis]])
        self._interp = RegularGridInterpolator(
            tuple(axes) + (taxis,), values, method="linear",
            bounds_error=False, fill_value=None)

    def __call__(self, x, t):
        return self.many(np.atleast_1d(x)[None, :], t)[0]

    def many(self, X, ts):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (X.shape[0],))
        pts = np.clip(np.column_stack([X, ts]), self._lo, self._hi)
        return np.asarray(self._interp(pts))


_HASH_MULT, _HASH_SHIFT = np.uint64(0xBF58476D1CE4E5B9), np.uint64(31)


def _hash_start(seed):
    return (seed + 0x9E3779B97F4A7C15) % 2 ** 64


class TableStack:
    """The value tables of the checkerboards of one cell side, stacked so
    that a CellLookup reads them all with one gather.

    tables[j] holds the values of the board hashed with seeds[j], one per
    draw.  The stack's k components are the scalar components of a value,
    in C order, of tables[0], then of tables[1], and so on; bounds[j] is
    the slice of the components of tables[j].  Component r of draw i sits
    at values[offset[r] + i].
    """

    def __init__(self, seeds, tables):
        tables = [np.reshape(t, (len(t), -1)) for t in tables]
        widths = [t.shape[1] for t in tables]
        edges = np.cumsum([0] + widths).tolist()
        self.k = edges[-1]
        self.bounds = [slice(a, b) for a, b in zip(edges, edges[1:])]
        self.starts = np.array([_hash_start(int(s)) for s in seeds],
                               dtype=np.uint64)
        # each component's board, draw count and offset
        self.board = np.repeat(np.arange(len(tables)), widths)
        counts = np.repeat([len(t) for t in tables], widths)
        self.counts = counts.astype(np.uint64)[:, None]
        self.offset = (np.cumsum(counts) - counts).astype(np.uint64)[:, None]
        self.values = np.concatenate([t.T.ravel() for t in tables])


class CellLookup:
    """The space-time cells of side h of a batch of rows X at times ts (a
    scalar or one per row): the integer columns floor(x_1/h), ...,
    floor(x_N/h), floor(t/h), worked out with one pass over X.  read hashes
    the cells for the seed of every checkerboard of a TableStack at once
    and gathers all their components with one take.

    The hash is splitmix-style, mixing the columns in that order, one loop
    over the cell columns it is given.  When the bounding box of the
    batch's cells holds fewer cells than the batch has rows, those are the
    box's cell columns (built with group.grid once per box), and each row
    reads through its flat index in the box.  Otherwise (a sparse batch, or
    rows whose cells are non-finite or outside int64, which cast to
    INT64_MIN) they are the rows' own.  Both give bitwise the same values.

    move points the lookup at another batch of the same shape and reuses
    its buffers: the Monte Carlo keeps one lookup per chunk and cell side.
    The box's key is every axis's lo and span, the time cell's included.
    While it holds, a moved lookup keeps the box's cell columns and
    strides, and the (k, box cells) value table that read gathered for its
    last stack (held, and compared with `is`); a new key or stack builds
    them afresh, and the per-row path drops them.
    """

    def __init__(self, X, ts, h):
        self.h = h
        self._floor = None
        self.key = None
        self.move(X, ts)

    def move(self, X, ts):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        if self._floor is None or self._floor.shape != X.shape:
            # column-major, so that the reductions over rows and the
            # broadcasts along them run on contiguous columns
            self._floor = np.empty_like(X, order="F")
            self._fflat = np.empty(n)
            self.flat = np.empty(n, dtype=np.intp)
        F = self._floor
        np.divide(X, self.h, out=F)
        np.floor(F, out=F)
        T = np.floor(np.asarray(ts, dtype=float) / self.h)
        if n:
            lo = F.min(axis=0)
            los = lo.tolist() + [float(T.min())]
            his = F.max(axis=0).tolist() + [float(T.max())]
            # NaN and +-inf fail the range test too
            if all(-2.0 ** 63 <= a and b < 2.0 ** 63
                   for a, b in zip(los, his)):
                los = [int(a) for a in los]
                spans = [int(b) - a + 1 for a, b in zip(los, his)]
                if math.prod(spans) < n:
                    self._box(F, T, lo, los, spans)
                    return
        self.box = self.key = self._stack = self._table = None
        self.cols = [*F.astype(np.int64).T, T.astype(np.int64)]

    def _box(self, F, T, lo, los, spans):
        """Keep only each row's flat index in the box of the cells.  The
        float arithmetic is exact: every term is an integer below the box
        size, which is below the row count."""
        key = (*los, *spans)
        if key != self.key:
            self.key = key
            self._stack = self._table = None
            axes = [np.arange(a, a + s, dtype=np.int64)
                    for a, s in zip(los, spans)]
            self.box = self.cols = list(grid(axes).T)
            # time is the last axis, with stride 1
            self._strides = np.array(
                [math.prod(spans[i + 1:]) for i in range(len(spans) - 1)],
                dtype=float)
        F -= lo
        np.matmul(F, self._strides, out=self._fflat)
        if spans[-1] > 1:
            self._fflat += T - los[-1]
        np.copyto(self.flat, self._fflat, casting="unsafe")

    def _hash(self, starts):
        """The hash seeded at each of the starts over the cells of
        self.cols, the box's (in the order of self.flat) or the rows': one
        row per start."""
        acc = np.repeat(starts[:, None], len(self.cols[0]), axis=1)
        tmp = np.empty_like(acc)
        for col in self.cols:
            acc ^= col.view(np.uint64)
            acc *= _HASH_MULT
            np.right_shift(acc, _HASH_SHIFT, out=tmp)
            acc ^= tmp
        return acc

    def read(self, stack, out=None):
        """The values of the boards of stack at the rows: a (k, n) array,
        row r component r of the stack; written to out if given."""
        # mode "clip": in the default mode, take copies through a buffer
        # when given out
        if self.box is not None and stack is self._stack:
            return np.take(self._table, self.flat, axis=1, out=out,
                           mode="clip")
        where = self._hash(stack.starts)[stack.board]
        where %= stack.counts
        where += stack.offset
        if self.box is None:
            return np.take(stack.values, where, out=out, mode="clip")
        self._stack, self._table = stack, np.take(stack.values, where)
        return np.take(self._table, self.flat, axis=1, out=out, mode="clip")


class CheckerboardField(Field):
    """Seeded piecewise-constant checkerboard: measurable, discontinuous.

    Each space-time cell of side h draws one of the supplied values with a
    hash-based rule, so evaluation is pure and reproducible.
    """

    def __init__(self, values, h, dim, seed=0):
        values = [np.asarray(v, dtype=float) for v in values]
        super().__init__(dim, values[0].shape)
        self.values = np.stack(values)
        self.h = float(h)
        self.seed = int(seed)
        self._stack = TableStack([self.seed], [self.values])

    def __call__(self, x, t):
        return self.many(np.atleast_1d(x)[None, :], t)[0]

    def many(self, X, ts):
        got = CellLookup(X, ts, self.h).read(self._stack)
        return np.ascontiguousarray(got.T).reshape((-1,) + self.shape)


def checkerboard_spd(lam, Lam, m0, dim, h=0.25, seed=0):
    """Rough synthetic m0 x m0 matrix field on R^dim x R drawing space-time
    cells from {lam*I, Lam*I}."""
    return CheckerboardField([lam * np.eye(m0), Lam * np.eye(m0)], h, dim,
                             seed=seed)


def value_set(f: Field):
    """Values whose convex hull holds every value of f, shaped (k,) +
    f.shape: a constant's value, a checkerboard's draws, a grid field's
    samples (its multilinear interpolation mixes them convexly) and a
    mollified field's raw set (its quadrature mixes them convexly).  Any
    other field is an ArgumentError."""
    if isinstance(f, ConstantField):
        return f.value[None]
    if isinstance(f, (CheckerboardField, GridField)):
        return np.reshape(f.values, (-1,) + f.shape)
    from .regularity import MollifiedField
    if isinstance(f, MollifiedField):
        return value_set(f.f)
    raise ArgumentError(f"a {type(f).__name__} has no known value set")


def __getattr__(name):
    """The public names of the mollifier and the moduli, which live in
    kolmo.regularity, read from there (PEP 562): perfbench reads them from
    this module."""
    if name in ("MollifiedField", "mollify", "MOLLIFY_NODES",
                "MOLLIFY_CHUNK", "modulus_of_continuity", "holder_seminorm",
                "HOLDER_RADII"):
        from . import regularity
        return getattr(regularity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
