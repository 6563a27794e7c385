"""Sampled extended-real functions and the discrete Legendre-Fenchel transform.

Values may be +inf (outside the effective domain) but never -inf; every
sampled function must be finite somewhere.  The conjugate at a slope s is
the exact maximum of ``s*x_i - f(x_i)`` over finite nodes — no interpolation.
``brute_conjugate`` scans every node and is the oracle.  The other routes
(``fast_conjugate``, the grid residual and the Fenchel-Young check) share
one core: the merge step of Lucet's linear-time Legendre transform over the
lower convex hull.  Each ``SampledFn`` builds its hull, the hull's table
(abscissae, values, edge slopes), its finite mask and its spacing once, on
first use.  The core must agree with the oracle bit for bit; both return
+0.0 for a zero maximum.  It visits the slopes ``_CHUNK`` at a time, in an
order its caller states: ``fast_conjugate``'s slopes are a strictly
increasing grid and the grid residual builds ascending ones, so both pass
none; the Fenchel-Young check passes an ``argsort``.  The searches then
walk the hull forward, the temporaries stay chunk-sized, and each value
goes to its slope's position.  ``biconjugate``
interpolates over the same table; it returns ``f`` itself when every node
between the first and the last finite one is a hull vertex.

A ``SampledFn`` owns read-only arrays: a writeable input is copied, an
array that is already read-only is shared.  ``sample`` evaluates a
``SignFlipSolution`` in one array pass and calls any other callable once
per node, with a Python ``float``.

Accuracy caveats: the discrete conjugate understates the true conjugate at
slopes outside the range achievable on the grid, so verification grids are
chosen wide enough that every queried slope is interior.  The bitwise
agreement also needs ``lower_hull`` to keep every node that can attain the
maximum, and it does: its vertex set is exact.  Its orientation predicate
keeps the floating-point sign where Shewchuk's error bound certifies it,
settles the rest exactly by error-free transformations (TwoSum differences,
Dekker products) when the differences are exact, and decides what remains
with ``fractions.Fraction``.  Data convex only by about one rounding error
keeps all of its vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import AllInfinite, DimMismatch, OutOfRange, Singular
from .quadratic import TransformParams
from .reports import ResidualReport, report_from_residuals

INF = np.inf


def check_grid(points) -> np.ndarray:
    """``points`` as a 1-D float grid, nonempty, finite and strictly increasing."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DimMismatch("grid must be 1-D with at least 1 point")
    if not np.isfinite(p).all():
        raise ValueError("grid points must be finite")
    if p.size > 1 and not (np.diff(p) > 0.0).all():
        raise ValueError("grid points must be strictly increasing")
    return p


def _check_values(values, size: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (size,):
        raise DimMismatch("values and grid sizes differ")
    if np.isneginf(v).any() or np.isnan(v).any():
        raise ValueError("values must be finite or +inf")
    if not np.isfinite(v).any():
        raise AllInfinite("sampled function has no finite value")
    return v


def _owned(a: np.ndarray, given) -> np.ndarray:
    """``a`` read-only; a copy first when it is the caller's writeable array."""
    if a is given and a.flags.writeable:
        a = a.copy()
    a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampledFn:
    """Extended-real values on a strictly increasing 1-D grid.

    The arrays are read-only and owned: a writeable input is copied, so
    later writes by the caller cannot change the function or its hull.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._set(_owned(check_grid(self.points), self.points), self.values)

    @classmethod
    def _on_grid(cls, points: np.ndarray, values) -> "SampledFn":
        """A function on ``points``, a read-only array that ``check_grid``
        has already passed, so the grid is not checked a second time."""
        f = object.__new__(cls)
        f._set(points, values)
        return f

    def _set(self, points: np.ndarray, values) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", _owned(_check_values(values, points.size), values))

    @cached_property
    def finite_mask(self) -> np.ndarray:
        return _frozen(np.isfinite(self.values))

    @cached_property
    def hull(self) -> np.ndarray:
        """Indices into ``points`` of the lower convex hull vertices of the
        finite nodes, computed once per function."""
        fin = np.flatnonzero(self.finite_mask)
        return _frozen(fin[lower_hull(self.points[fin], self.values[fin])])

    @cached_property
    def _table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The hull's abscissae, values and edge slopes, read-only; an edge
        slope that overflows (nodes a subnormal apart) is infinite."""
        hx = self.points[self.hull]
        hv = self.values[self.hull]
        edges = np.diff(hv)
        with np.errstate(over="ignore"):
            edges /= np.diff(hx)
        return _frozen(hx), _frozen(hv), _frozen(edges)

    @cached_property
    def _spacing(self) -> float:
        return float(np.diff(self.points).max()) if self.points.size > 1 else 0.0

    def spacing(self) -> float:
        return self._spacing


def sample(fn: Callable[[float], float], points) -> SampledFn:
    """Sample a scalar function on a grid (it may return +inf).

    A ``SignFlipSolution`` is evaluated in one array pass through its
    ``values``; any other callable is called once per node with the node as
    a Python ``float``, whose arithmetic is faster than numpy scalars'.
    """
    p = check_grid(points)
    if isinstance(fn, SignFlipSolution):
        values = fn.values(p)
    else:
        values = np.array([float(fn(x)) for x in p.tolist()])
    return SampledFn._on_grid(_owned(p, points), _frozen(values))


def uniform_grid(lo: float, hi: float, h: float) -> np.ndarray:
    """Uniform grid covering [lo, hi] with spacing h, endpoints included."""
    n = int(round((hi - lo) / h))
    return lo + h * np.arange(n + 1)


def brute_conjugate(f: SampledFn, slopes) -> SampledFn:
    """Oracle conjugate: for each slope the max of s*x_i - f(x_i) over all
    finite nodes, evaluated exactly on the grid; a zero maximum is +0.0."""
    s = check_grid(slopes)
    mask = f.finite_mask
    xs = f.points[mask]
    vs = f.values[mask]
    out = np.empty(s.size)
    block = 512
    for i in range(0, s.size, block):
        sb = s[i : i + block]
        out[i : i + block] = np.max(sb[:, None] * xs[None, :] - vs[None, :], axis=1)
    out += 0.0
    return SampledFn._on_grid(_owned(s, slopes), _frozen(out))


# ---------------------------------------------------------------------------
# The exact orientation predicate and the lower hull

_EPS = 2.0**-53  # unit roundoff
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS  # Shewchuk's orient2d error bound
_TINY = 2.0**-900  # products below this may have lost bits to underflow
_HUGE = 2.0**995  # Dekker's split of anything larger can overflow
_SPLITTER = 2.0**27 + 1.0
_CHUNK = 1 << 15  # predicate elements or conjugate slopes per pass over the arrays
_PROBES = 1024  # predicate elements per search step, shared by its rows


def _two_sum(a, b):
    """a + b = s + e exactly (Knuth's TwoSum)."""
    s = a + b
    bv = s - a
    av = s - bv
    return s, (a - av) + (b - bv)


def _product_tail(a, b, p):
    """a * b - p exactly, for p = fl(a * b) (Dekker's split)."""
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    return alo * blo - (((p - ahi * bhi) - alo * bhi) - ahi * blo)


def _on_or_above_exact(xj, vj, xm, vm, xk, vk) -> np.ndarray:
    """The predicate of ``_on_or_above`` in rational arithmetic."""
    from fractions import Fraction

    out = np.empty(len(xj), dtype=bool)
    rows = zip(xj.tolist(), vj.tolist(), xm.tolist(), vm.tolist(), xk.tolist(), vk.tolist())
    for i, row in enumerate(rows):
        a, b, c, d, e, f = map(Fraction, row)
        out[i] = (c - a) * (f - b) <= (e - a) * (d - b)
    return out


def _on_or_above_chunk(xj, vj, xm, vm, xk, vk) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        dxm = xm - xj
        dxk = xk - xj
        dvm = vm - vj
        dvk = vk - vj
        left = dxm * dvk
        right = dxk * dvm
        det = left - right
        out = det <= 0.0
        al = np.abs(left)
        ar = np.abs(right)
        sure = np.abs(det) > _CCW_BOUND * (al + ar)
        sure &= np.minimum(al, ar) >= _TINY
        if sure.all():
            return out
        u = np.flatnonzero(~sure)
        # rows dxm, dxk, dvk, dvm: left = dxm dvk and right = dxk dvm
        d, tail = _two_sum(
            np.stack((xm[u], xk[u], vk[u], vm[u])), -np.stack((xj[u], xj[u], vj[u], vj[u]))
        )
        a, b = d[:2], d[2:]
        p = a * b
        # a zero difference is exact and makes its product exactly zero
        zero = (a == 0.0) | (b == 0.0)
        ap = np.abs(p)
        split = (tail[:2] == 0.0) & (tail[2:] == 0.0) & (np.maximum(np.abs(a), np.abs(b)) < _HUGE)
        split &= (ap >= _TINY) & (ap < _HUGE)
        hi = np.where(zero, 0.0, p)
        lo = np.where(split, _product_tail(a, b, p), 0.0)
        # (hi0 + lo0) - (hi1 + lo1) as a nonoverlapping expansion x3, x2, x1,
        # x0 (Shewchuk's Two_Two_Diff); its sign is that of its largest nonzero term
        i, x0 = _two_sum(lo[0], -lo[1])
        j, x = _two_sum(hi[0], i)
        i, x1 = _two_sum(x, -hi[1])
        x3, x2 = _two_sum(j, i)
        lead = np.where(x1 != 0.0, x1, x0)
        lead = np.where(x2 != 0.0, x2, lead)
        sub = np.where(x3 != 0.0, x3, lead) <= 0.0
        rest = np.flatnonzero(~(zero | split).all(axis=0))
        if rest.size:
            r = u[rest]
            sub[rest] = _on_or_above_exact(xj[r], vj[r], xm[r], vm[r], xk[r], vk[r])
        out[u] = sub
    return out


def _on_or_above(xj, vj, xm, vm, xk, vk) -> np.ndarray:
    """Whether each point (xm, vm) lies on or above the chord from (xj, vj)
    to (xk, vk), for xj < xm < xk, decided exactly.

    The float sign of ``(xm-xj)(vk-vj) - (xk-xj)(vm-vj)`` is kept where
    Shewchuk's bound ``(3 + 16 eps) eps (|left| + |right|)`` certifies it and
    no product is small enough to have underflowed.  The rest are exact when
    the four differences are (their TwoSum tails vanish, as for integer and
    most nearby data): each product is then a rounded value plus its Dekker
    tail, and the sign of that four-term sum is exact.  What remains —
    inexact differences, overflow, possible underflow — is decided with
    ``fractions.Fraction``.  Works through the arrays in ``_CHUNK`` slices.
    """
    out = np.empty(xj.size, dtype=bool)
    for s in range(0, xj.size, _CHUNK):
        e = s + _CHUNK
        out[s:e] = _on_or_above_chunk(xj[s:e], vj[s:e], xm[s:e], vm[s:e], xk[s:e], vk[s:e])
    return out


def _tangent(cx, cv, lo, hi, q, left: bool) -> np.ndarray:
    """Tangent points from the nodes ``q`` to convex runs of the chain
    (cx, cv), one per row, by a search batched over the rows.

    The tangent point is the run's node joined to q on the lower hull of the
    run and q.  ``left``: the run [lo, hi + 1] lies left of q; return the
    first p in [lo, hi] whose successor is on or above the chord p-q, or hi.
    Otherwise the run [lo - 1, hi] lies right of q; return the first r in
    [lo, hi] strictly below the chord from q to its successor, or hi.  Nodes
    collinear with the tangent are thus passed over.  Each step spreads up
    to ``_PROBES`` probes over the rows in one predicate call; a row
    narrower than its share of probes is settled in that step.
    """
    lo = lo.copy()
    hi = hi.copy()
    act = np.flatnonzero(lo < hi)
    while act.size:
        a = lo[act]
        b = hi[act]
        w = b - a
        k = int(min(w.max(), max(1, _PROBES // act.size)))
        probe = a[:, None] + (w[:, None] * np.arange(1, k + 1)) // (k + 1)  # in [a, b - 1]
        p = probe.ravel()
        p1 = p + 1
        qq = np.repeat(q[act], k)
        if left:
            hit = _on_or_above(cx[p], cv[p], cx[p1], cv[p1], cx[qq], cv[qq])
        else:
            hit = ~_on_or_above(cx[qq], cv[qq], cx[p], cv[p], cx[p1], cv[p1])
        # the answer lies after the probes that miss and at or before the rest
        below = k - np.count_nonzero(hit.reshape(-1, k), axis=1)
        bounds = np.concatenate((a[:, None] - 1, probe, b[:, None]), axis=1)
        rows = np.arange(act.size)
        lo[act] = bounds[rows, below] + 1
        hi[act] = bounds[rows, below + 1]
        act = act[lo[act] < hi[act]]
    return lo


def _bridges(cx, cv, start, end, prev, nxt):
    """Lower common tangents (l, r) across every run of junctions
    [start, end]: l on the convex chain [prev, start], r on [end, nxt].

    Alternates tangent searches from each side until the bridge stops
    moving; l only moves left and r only right, which bounds each search.
    """
    r = end + 1
    l = _tangent(cx, cv, prev, start - 1, r, True)
    act = np.arange(start.size)
    left = False
    while act.size:
        if left:
            new = _tangent(cx, cv, prev[act], l[act], r[act], True)
            moved = new != l[act]
            l[act] = new
        else:
            new = _tangent(cx, cv, r[act], nxt[act], l[act], False)
            moved = new != r[act]
            r[act] = new
        act = act[moved]
        left = not left
    return l, r


def lower_hull(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull vertices of the points (xs, vs).

    xs must be strictly increasing.  Collinear interior points are dropped,
    which keeps the vertex choice — and so the conjugate — deterministic.
    Every orientation test is exact (``_on_or_above``), so the result is
    the unique set of strict vertices.

    Works in rounds over a chain that starts as all nodes.  A junction is a
    node on or above its neighbours' chord; the first round tests every
    node, later rounds only the nodes whose neighbours changed.  Each run of
    adjacent junctions is bridged by the lower common tangent of the convex
    chains on either side, all runs at once, and every node strictly between
    a bridge's ends is removed.  Such a node lies on or above a chord of two
    other nodes, so it is never a vertex; when no junction is left, the
    chain is strictly convex and is the hull.
    """
    chain = np.arange(xs.size)
    cand = None
    while chain.size > 2:
        n = chain.size
        cx = xs[chain]
        cv = vs[chain]
        if cand is None:
            hit = _on_or_above(cx[:-2], cv[:-2], cx[1:-1], cv[1:-1], cx[2:], cv[2:])
            junctions = np.flatnonzero(hit) + 1
        else:
            a, b = cand - 1, cand + 1
            hit = _on_or_above(cx[a], cv[a], cx[cand], cv[cand], cx[b], cv[b])
            junctions = cand[hit]
        if junctions.size == 0:
            break
        gap = np.diff(junctions) > 1
        start = junctions[np.concatenate(([True], gap))]
        end = junctions[np.concatenate((gap, [True]))]
        prev = np.concatenate(([0], end[:-1]))
        l, r = _bridges(cx, cv, start, end, prev, np.concatenate((start[1:], [n - 1])))
        keep = np.cumsum(np.bincount(l + 1, minlength=n) - np.bincount(r, minlength=n)) == 0
        seam = keep[1:-1] & ~(keep[:-2] & keep[2:])
        cand = np.cumsum(keep)[1:-1][seam] - 1
        chain = chain[keep]
    return chain


def _conjugate_at(f: SampledFn, s: np.ndarray, order: Optional[np.ndarray] = None) -> np.ndarray:
    """max of s*x - f(x) over the hull vertices, for finite slopes (repeats
    allowed).

    The merge step of Lucet's linear-time Legendre transform: the maximizer
    for slope s is the hull vertex whose two edge slopes bracket s, found by
    ``searchsorted`` in the table ``f._table``.  Rounded edge slopes can
    misplace it by one, so the max is taken exactly over that vertex and
    its two neighbours, with the oracle's expression.  An infinite edge
    slope only moves the search by one.  Equal maxima are equal bits,
    except zeros, which are made +0.0 on both routes.

    The slopes are visited ``_CHUNK`` at a time, in the order ``order``
    (a permutation of their positions) or, when it is None, as given, and
    each value goes to its slope's position.  Visiting them in ascending
    order lets the searches walk the edge slopes forward; the caller whose
    slopes already ascend passes no order, the others an ``argsort``.  A
    value depends only on its slope, so the order changes no bit.
    """
    if not np.isfinite(s).all():
        raise ValueError("slopes must be finite")
    hx, hv, edges = f._table
    top = hx.size - 1
    out = np.empty(s.size)
    for i in range(0, s.size, _CHUNK):
        at = slice(i, i + _CHUNK) if order is None else order[i : i + _CHUNK]
        sc = s[at]
        j = np.searchsorted(edges, sc)
        v = sc * hx[j] - hv[j]
        k = np.maximum(j - 1, 0)
        np.maximum(v, sc * hx[k] - hv[k], out=v)
        np.minimum(j + 1, top, out=j)
        np.maximum(v, sc * hx[j] - hv[j], out=v)
        v += 0.0
        out[at] = v
    return out


def fast_conjugate(f: SampledFn, slopes) -> SampledFn:
    """Linear-time conjugate via the lower convex hull.

    The hull comes from ``f.hull`` (built once per function) and each slope
    costs one search over its edge slopes, in ascending order, plus an
    exact three-vertex max.  Values come from the same expression the
    oracle uses and a zero maximum is +0.0 on both routes, so the two are
    bitwise equal.
    """
    s = check_grid(slopes)
    values = _frozen(_conjugate_at(f, s))
    return SampledFn._on_grid(_owned(s, slopes), values)


def biconjugate(f: SampledFn) -> SampledFn:
    """Discrete biconjugate: the lower convex hull of the samples.

    Nodes outside the span of the finite values stay +inf; hull vertices
    keep their exact value; interior nodes take the chord value, clamped
    to never exceed the original sample (the clamp only absorbs roundoff).
    When every node of that span is a hull vertex, the result is ``f``
    itself: the rule above gives back its values bit for bit.
    """
    if f.hull.size == f.hull[-1] - f.hull[0] + 1:
        return f
    hx, hv, _ = f._table
    x = f.points
    # each node's segment: the count of hull vertices at or left of it, less one
    seg = np.zeros(x.size, dtype=np.intp)
    seg[f.hull] = 1
    np.cumsum(seg, out=seg)
    seg -= 1
    np.clip(seg, 0, max(hx.size - 2, 0), out=seg)
    nxt = seg + 1
    np.minimum(nxt, hx.size - 1, out=nxt)
    with np.errstate(invalid="ignore", divide="ignore"):  # one vertex: no chord
        t = x - hx[seg]
        t /= hx[nxt] - hx[seg]
        out = hv[nxt] - hv[seg]
        out *= t
        out += hv[seg]
    np.copyto(out, f.values, where=f.values < out)
    out[: f.hull[0]] = INF
    out[f.hull[-1] + 1 :] = INF
    out[f.hull] = hv
    return SampledFn._on_grid(f.points, _frozen(out))


# ---------------------------------------------------------------------------
# The one-dimensional solution family of the sign-flip equation f(x) = f*(-x)


@dataclass(frozen=True)
class SignFlipSolution:
    """A known 1-D solution of f(x) = f*(-x), optionally reflected.

    kinds: ``half_square`` (x^2/2), ``neg_log`` (-1/2 - log x on x > 0,
    +inf elsewhere), ``ray_indicator`` (0 on x >= 0, +inf elsewhere) and
    ``split_quadratic`` (lam x^2/2 on x <= 0, x^2/(2 lam) on x >= 0,
    lam > 0).  If f solves the equation then so does x -> f(-x).
    """

    kind: str
    lam: Optional[float] = None
    reflected: bool = False

    _KINDS = ("half_square", "neg_log", "ray_indicator", "split_quadratic")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "split_quadratic":
            if self.lam is None or not self.lam > 0.0:
                raise ValueError("split_quadratic needs lam > 0")
            object.__setattr__(self, "lam", float(self.lam))
        elif self.lam is not None:
            raise ValueError(f"{self.kind} takes no lam parameter")

    def __call__(self, x) -> float:
        """The value at one point (a float or a size-1 array), bit for bit
        the value ``values`` gives at it.

        The same IEEE operations in Python float arithmetic, which also
        overflows to +inf; ``neg_log`` takes ``np.log`` of a ``np.float64``
        because ``math.log`` can differ from it in the last bit.
        """
        t = float(x) if isinstance(x, float) else float(np.asarray(x, dtype=float).reshape(1)[0])
        if self.reflected:
            t = -t
        if self.kind == "half_square":
            return 0.5 * t * t
        if self.kind == "neg_log":
            return -0.5 - float(np.log(np.float64(t))) if t > 0.0 else INF
        if self.kind == "ray_indicator":
            return 0.0 if t >= 0.0 else INF
        lam = self.lam
        return 0.5 * lam * t * t if t <= 0.0 else t * t / (2.0 * lam)

    def values(self, xs) -> np.ndarray:
        """Values at the nodes of a 1-D array, in one array pass.

        A square that overflows is +inf, as in Python float arithmetic.
        """
        t = np.asarray(xs, dtype=float)
        if t.ndim != 1:
            raise DimMismatch("SignFlipSolution.values takes a 1-D array")
        if self.reflected:
            t = -t
        with np.errstate(over="ignore"):
            if self.kind == "half_square":
                return 0.5 * t * t
            if self.kind == "neg_log":
                out = np.full(t.shape, INF)
                pos = t > 0.0
                out[pos] = -0.5 - np.log(t[pos])
                return out
            if self.kind == "ray_indicator":
                return np.where(t >= 0.0, 0.0, INF)
            lam = self.lam
            return np.where(t <= 0.0, 0.5 * lam * t * t, t * t / (2.0 * lam))

    def sample(self, points) -> SampledFn:
        return sample(self, points)


# ---------------------------------------------------------------------------
# Grid-level residuals


def grid_fixed_point_residual(
    p: TransformParams,
    f: SampledFn,
    window: Optional[Tuple[float, float]] = None,
    boundary_exclusion: float = 0.0,
) -> ResidualReport:
    """Residual of f(x) = tau f*(e x + c) + w x + beta on a 1-D grid.

    e must be a nonzero scalar; the discrete conjugate is queried at the
    exact slopes ``e x_i + c``.  The max runs over finite nodes, restricted
    to ``window`` when given and skipping nodes within ``boundary_exclusion``
    of the effective domain's endpoints, where the conjugate's maximizer
    falls off the grid and the discrete value necessarily understates.  The
    grid spacing is reported for tolerance scaling.  A slope, a conjugate
    value or its product with tau that overflows the float range raises
    ``OutOfRange``, with no warning.
    """
    if p.dim != 1:
        raise DimMismatch("grid residuals need scalar transform parameters")
    e = float(p.E[0, 0])
    if e == 0.0:
        raise Singular("e must be nonzero")
    c = float(p.c[0])
    w = float(p.w[0])

    mask = f.finite_mask.copy()
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        mask &= (f.points >= lo) & (f.points <= hi)
    if boundary_exclusion > 0.0:
        fin = f.points[f.finite_mask]
        mask &= (f.points - fin[0] >= boundary_exclusion) & (
            fin[-1] - f.points >= boundary_exclusion
        )
    if not mask.any():
        raise AllInfinite("no finite nodes to check in the requested window")

    # f(x) - tau f*(e x + c) - w x - beta with the same roundings, but in
    # place, and with the nodes gathered again after the conjugate so that
    # it runs beside one node-sized array, its slopes.  The slopes ascend:
    # for e < 0 they come from the nodes reversed, and so do their values.
    s = f.points[mask]
    if e < 0.0:
        s = s[::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness tests catch it
        s *= e
        s += c
        try:
            star = _conjugate_at(f, s)
        except ValueError:
            raise OutOfRange(
                f"slopes e x + c overflow the float range (e = {e:g}, c = {c:g})"
            ) from None
        del s
        star *= p.tau
    if not np.isfinite(star).all():
        raise OutOfRange(f"the input overflows the float range: tau f*(e x + c), tau = {p.tau:g}")
    if e < 0.0:
        star = star[::-1]
    xs = f.points[mask]
    residuals = f.values[mask]
    residuals -= star
    np.multiply(w, xs, out=star)
    residuals -= star
    residuals -= p.beta
    return report_from_residuals(residuals, xs, grid_h=f.spacing())


def fenchel_young_check(f: SampledFn, pairs: Sequence[Tuple[float, float]]) -> ResidualReport:
    """Most negative value of f*(s) + f(x) - s x over (x, s) pairs.

    Each x must be a finite grid node (snapped within 1e-9 of spacing).
    The discrete conjugate only ever understates f*, so the gap can only
    overestimate violations; anything below -1e-12 is a real failure.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise DimMismatch("pairs must be a nonempty sequence of (x, slope)")
    xs = arr[:, 0]
    ss = arr[:, 1]
    snap = 1e-9 * max(1.0, f.spacing())
    # the nearest node to each x (the right one on a tie) and its distance;
    # the pair-sized arrays are reused and freed before the conjugate
    node = np.searchsorted(f.points, xs)
    np.clip(node, 0, f.points.size - 1, out=node)
    left = np.maximum(node - 1, 0)
    dist = f.points[node]
    dist -= xs
    np.abs(dist, out=dist)
    dist_left = f.points[left]
    dist_left -= xs
    np.abs(dist_left, out=dist_left)
    np.copyto(node, left, where=dist_left < dist)
    np.minimum(dist, dist_left, out=dist)
    if not (dist <= snap).all():  # a NaN abscissa fails too
        raise ValueError("pair abscissae must be grid nodes")
    del left, dist, dist_left
    fx = f.values[node]
    del node
    if not np.isfinite(fx).all():
        raise ValueError("pair abscissae must be in the effective domain")

    # f*(s) + f(x) - s x, with the same roundings, in place
    gaps = _conjugate_at(f, ss, np.argsort(ss))
    gaps += fx
    np.multiply(ss, xs, out=fx)
    gaps -= fx
    k = int(np.argmin(gaps))
    violations = np.negative(gaps)
    np.clip(violations, 0.0, None, out=violations)
    return ResidualReport(
        max_abs=float(violations.max()),
        mean_abs=float(violations.mean()),
        sample_points=int(gaps.size),
        worst_point=np.array([xs[k], ss[k]]),
        min_gap=float(gaps[k]),
    )
