"""Sampled extended-real functions and the discrete Legendre-Fenchel transform.

Values may be +inf (outside the effective domain) but never -inf; every
sampled function must be finite somewhere.  The conjugate at a slope s is
the exact maximum of ``s*x_i - f(x_i)`` over finite nodes — no interpolation.
``brute_conjugate`` scans every node and is the oracle.  The other routes
(``fast_conjugate``, the grid residual and the Fenchel-Young check) share
one core: the merge step of Lucet's linear-time Legendre transform over the
lower convex hull.  Each ``SampledFn`` builds its hull, the hull's table
(abscissae, values, edge slopes), its finite mask and its spacing once, on
first use.  The core is meant to agree with the oracle bit for bit, and
does on the tested data; both return +0.0 for a zero maximum.  On dense,
nearly straight data the rounding in the edge slopes can put the
oracle's maximizer two or three vertices from the ranked one, and the
two then differ in the last bits.  The core visits the slopes ``_CHUNK`` at a
time, in an order its caller states: ``fast_conjugate``'s slopes are a
strictly increasing grid and the grid residual builds ascending ones, so
both pass none; the Fenchel-Young check passes an ``argsort``.  Each
chunk's ranks among the edge slopes then come from ``_ranks``: a merge of
the two ascending runs when the chunk has at least ``_MERGE`` slopes, the
edge slopes ascend (checked once per function) and the stretch of them the
chunk spans is at most twice its length; one binary search per slope
otherwise.  The temporaries stay chunk-sized, and each value goes to its
slope's position.  The Fenchel-Young check finds each pair's nearest node
through ``_ranks`` too.  ``biconjugate`` interpolates over the same table;
it returns ``f`` itself when every node between the first and the last
finite one is a hull vertex.

Memory rule: every step holds its output, the arrays it cannot do without,
and chunk-sized scratch, never a copy of the grid.  A run of finite nodes
or of hull vertices is read through slices, and only functions with holes
or with nodes off the hull gather.  Traced peaks at 4e5 nodes, in arrays
of 8 bytes a node: the hull 2.2 on a convex function (its indices) and 2.4
on a double well; the table 1.1 (its edge slopes); the grid residual 2.4
(the slopes and the conjugate); the Fenchel-Young check 3.7 (f(x), the
conjugate and its ``argsort``, pair-sized); ``biconjugate`` 1.6 on a
double well (its output).  The ``_CHUNK``-sized scratch, a merge's among
it, is up to about one such array of these at 4e5 nodes, and a smaller
share of larger grids.

A ``SampledFn`` keeps read-only arrays under ``linalg.readonly``'s rule: a
caller's array is always copied, the library's own are frozen in place and
shared.  ``sample`` evaluates a ``SignFlipSolution`` in one array pass and
calls any other callable once per node, with a Python ``float``.

Accuracy caveats: the discrete conjugate understates the true conjugate at
slopes outside the range achievable on the grid, so verification grids are
chosen wide enough that every queried slope is interior.  The bitwise
agreement also needs ``lower_hull`` to keep every node that can attain the
maximum, and it does: its vertex set is exact.  Its orientation predicate
keeps the floating-point sign where Shewchuk's error bound certifies it,
takes it from a value difference's sign where the other is exactly zero,
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
from .linalg import readonly
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


def _block(mask: np.ndarray) -> Optional[slice]:
    """The slice of ``mask``'s True entries when they are one nonempty run,
    else None."""
    lo = int(mask.argmax())
    hi = mask.size - int(mask[::-1].argmax())
    return slice(lo, hi) if mask[lo] and np.count_nonzero(mask) == hi - lo else None


def _block_of(idx: np.ndarray) -> Optional[slice]:
    """The slice of the increasing indices ``idx`` (at least one) when
    they are consecutive, else None."""
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    return slice(lo, hi) if idx.size == hi - lo else None


@dataclass(frozen=True)
class SampledFn:
    """Extended-real values on a strictly increasing 1-D grid.

    The arrays are read-only (``linalg.readonly``), so later writes by
    the caller cannot change the function or its hull.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._set(readonly(check_grid(self.points), self.points), self.values, self.values)

    @classmethod
    def _on_grid(cls, points: np.ndarray, values: np.ndarray) -> "SampledFn":
        """A function on ``points``, read-only and passed by ``check_grid``
        (not checked again), with ``values`` the library made."""
        f = object.__new__(cls)
        f._set(points, values)
        return f

    def _set(self, points: np.ndarray, values, given=None) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", readonly(_check_values(values, points.size), given))

    @cached_property
    def finite_mask(self) -> np.ndarray:
        return readonly(np.isfinite(self.values))

    @cached_property
    def hull(self) -> np.ndarray:
        """Indices into ``points`` of the lower convex hull vertices of the
        finite nodes, computed once per function.  When the finite nodes
        are one run, ``lower_hull`` reads slices of the arrays; otherwise
        it reads the finite nodes gathered."""
        run = _block(self.finite_mask)
        if run is None:
            fin = np.flatnonzero(self.finite_mask)
            return readonly(fin[lower_hull(self.points[fin], self.values[fin])])
        h = lower_hull(self.points[run], self.values[run])
        h += run.start
        return readonly(h)

    @cached_property
    def _table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The hull's abscissae, values and edge slopes, read-only; an edge
        slope that overflows (nodes a subnormal apart) is infinite.  When
        the hull is a run of nodes, as it is for strictly convex data, the
        abscissae and values are slices of ``points`` and ``values``."""
        run = _block_of(self.hull)
        if run is None:
            hx = readonly(self.points[self.hull])
            hv = readonly(self.values[self.hull])
        else:
            hx, hv = self.points[run], self.values[run]
        edges = np.diff(hv)
        with np.errstate(over="ignore"):
            for i in range(0, edges.size, _CHUNK):
                edges[i : i + _CHUNK] /= np.diff(hx[i : i + _CHUNK + 1])
        return hx, hv, readonly(edges)

    @cached_property
    def _edges_ascend(self) -> bool:
        """Whether the table's edge slopes ascend, so that ``_ranks`` may
        merge slopes into them; checked once, ``_CHUNK`` edges at a time.
        Rounding can make the edge slopes of a nearly straight hull dip."""
        edges = self._table[2]
        for i in range(0, edges.size - 1, _CHUNK):
            e = edges[i : i + _CHUNK + 1]
            if not (e[1:] >= e[:-1]).all():  # a NaN fails too
                return False
        return True

    @cached_property
    def spacing(self) -> float:
        return float(np.diff(self.points).max()) if self.points.size > 1 else 0.0


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
        values = np.fromiter(map(float, map(fn, p.tolist())), dtype=float, count=p.size)
    return SampledFn._on_grid(readonly(p, points), values)


def uniform_grid(lo: float, hi: float, h: float) -> np.ndarray:
    """The nodes lo + k h for k = 0, ..., round((hi - lo) / h), for finite
    lo < hi and finite h > 0: the last node is within h/2 of hi, and is hi
    only when (hi - lo) / h is whole."""
    if not (-INF < lo < hi < INF and 0.0 < h < INF):
        raise ValueError("a uniform grid needs finite lo < hi and a finite spacing h > 0")
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
    return SampledFn._on_grid(readonly(s, slopes), out)


# ---------------------------------------------------------------------------
# The exact orientation predicate and the lower hull

_EPS = 2.0**-53  # unit roundoff
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS  # Shewchuk's orient2d error bound
_TINY = 2.0**-900  # products below this may have lost bits to underflow
_HUGE = 2.0**995  # Dekker's split of anything larger can overflow
_SPLITTER = 2.0**27 + 1.0
_CHUNK = 1 << 15  # predicate elements or conjugate slopes per pass over the arrays
_PROBES = 1024  # predicate elements per search step, shared by its rows
_MERGE = 1 << 12  # fewest queries that ``_ranks`` merges rather than bisects


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
        # A zero value difference is exact (vk - vj is 0 only when vk == vj),
        # so its product is exactly 0 and det has the sign of -right or of
        # left.  The x-differences are positive, so that is the sign of the
        # other value difference.  det is not read: an x-difference that
        # overflows to inf times a zero is NaN.
        dk = dvk[u]
        dm = dvm[u]
        flat = (dk == 0.0) | (dm == 0.0)
        if flat.any():
            out[u[flat]] = np.where(dk == 0.0, dm >= 0.0, dk <= 0.0)[flat]
            u = u[~flat]
            if u.size == 0:
                return out
        # rows dxm, dxk, dvk, dvm: left = dxm dvk and right = dxk dvm, none zero
        d, tail = _two_sum(
            np.stack((xm[u], xk[u], vk[u], vm[u])), -np.stack((xj[u], xj[u], vj[u], vj[u]))
        )
        a, b = d[:2], d[2:]
        p = a * b
        ap = np.abs(p)
        split = (tail[:2] == 0.0) & (tail[2:] == 0.0) & (np.maximum(np.abs(a), np.abs(b)) < _HUGE)
        split &= (ap >= _TINY) & (ap < _HUGE)
        lo = np.where(split, _product_tail(a, b, p), 0.0)
        # (p0 + lo0) - (p1 + lo1) as a nonoverlapping expansion x3, x2, x1,
        # x0 (Shewchuk's Two_Two_Diff); its sign is that of its largest nonzero term
        i, x0 = _two_sum(lo[0], -lo[1])
        j, x = _two_sum(p[0], i)
        i, x1 = _two_sum(x, -p[1])
        x3, x2 = _two_sum(j, i)
        lead = np.where(x1 != 0.0, x1, x0)
        lead = np.where(x2 != 0.0, x2, lead)
        sub = np.where(x3 != 0.0, x3, lead) <= 0.0
        rest = np.flatnonzero(~split.all(axis=0))
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
    no product is small enough to have underflowed.  A row with a value
    difference of exactly zero, as on a flat run, takes the sign of the
    other value difference, since the x-differences are positive.  The
    rest are exact when the four differences are (their TwoSum tails
    vanish, as for integer and most nearby data): each product is then a
    rounded value plus its Dekker tail, and the sign of that four-term sum
    is exact.  What remains —
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
    node, reading the input arrays themselves, and later rounds only the
    nodes whose neighbours changed.  Each run of adjacent junctions is
    bridged by the lower common tangent of the convex chains on either
    side, all runs at once, and every node strictly between a bridge's ends
    is removed.  Such a node lies on or above a chord of two other nodes,
    so it is never a vertex; when no junction is left, the chain is
    strictly convex and is the hull.  Besides the chain, a round's
    node-sized scratch is a few masks and, from the second round on, the
    chain's coordinates when it has junctions to bridge.
    """
    chain = np.arange(xs.size)
    cand = None
    while chain.size > 2:
        n = chain.size
        if cand is None:
            cx, cv = xs, vs
            hit = _on_or_above(cx[:-2], cv[:-2], cx[1:-1], cv[1:-1], cx[2:], cv[2:])
            junctions = np.flatnonzero(hit) + 1
        else:
            a, m, b = chain[cand - 1], chain[cand], chain[cand + 1]
            hit = _on_or_above(xs[a], vs[a], xs[m], vs[m], xs[b], vs[b])
            junctions = cand[hit]
            if junctions.size:
                cx, cv = xs[chain], vs[chain]
        if junctions.size == 0:
            break
        gap = np.diff(junctions) > 1
        start = junctions[np.concatenate(([True], gap))]
        end = junctions[np.concatenate((gap, [True]))]
        prev = np.concatenate(([0], end[:-1]))
        l, r = _bridges(cx, cv, start, end, prev, np.concatenate((start[1:], [n - 1])))
        del cx, cv
        # +1 after each bridge's left end, -1 at its right end: the running
        # sum is nonzero exactly strictly inside a bridge (two bridges can
        # overlap, so it is at most 2)
        inside = np.zeros(n, dtype=np.int8)
        inside[l + 1] = 1
        inside[r] -= 1
        keep = np.cumsum(inside, dtype=np.int8, out=inside) == 0
        del inside
        seam = np.zeros(n, dtype=bool)
        seam[1:-1] = keep[1:-1] & ~(keep[:-2] & keep[2:])
        cand = np.flatnonzero(seam[keep])
        chain = chain[keep]
    return chain


def _ranks(a: np.ndarray, q: np.ndarray, ascends: bool = True) -> np.ndarray:
    """``np.searchsorted(a, q)``, for ``a`` in ascending order (NaN last,
    as numpy sorts) or, when ``ascends`` is False, in any order.

    When ``a`` ascends and so do at least ``_MERGE`` queries, the ranks come
    from a merge, as in Lucet's linear-time transform, rather than one
    binary search per query: two scalar searches find the stretch
    ``a[lo:hi]`` the queries span, and one stable sort of the two ascending
    runs ``q`` and ``a[lo:hi]`` puts each query after the stretch's smaller
    values and before its equal ones, the ``left`` side.  A query's place
    there, less the queries before it, plus ``lo``, is its rank.  A stretch
    longer than ``2 * q.size`` is bisected instead, so the scratch stays
    within about three times the queries.
    """
    m = q.size
    if ascends and m >= _MERGE and (q[1:] >= q[:-1]).all():  # a NaN fails too
        lo, hi = np.searchsorted(a, q[[0, -1]]).tolist()
        if hi - lo <= 2 * m:
            order = np.argsort(np.concatenate((q, a[lo:hi])), kind="stable")
            ranks = np.flatnonzero(order < m)
            ranks -= np.arange(-lo, m - lo)
            return ranks
    return np.searchsorted(a, q)


def _conjugate_at(f: SampledFn, s: np.ndarray, order: Optional[np.ndarray] = None) -> np.ndarray:
    """max of s*x - f(x) over the hull vertices, for finite slopes (repeats
    allowed).

    The merge step of Lucet's linear-time Legendre transform: the maximizer
    for slope s is the hull vertex whose two edge slopes bracket s, at its
    rank among the edge slopes of the table ``f._table``.  Rounded edge
    slopes can misplace it by one, so the max is taken exactly over that
    vertex and its two neighbours, with the oracle's expression.  An
    infinite edge slope only moves the rank by one.  Equal maxima are equal
    bits, except zeros, which are made +0.0 on both routes.

    The slopes are visited ``_CHUNK`` at a time, in the order ``order``
    (a permutation of their positions) or, when it is None, as given, and
    each value goes to its slope's position.  The caller whose slopes
    already ascend passes no order, the others an ``argsort``.  An
    ascending chunk of at least ``_MERGE`` slopes is then merged into the
    edge slopes when they ascend too (``f._edges_ascend``), in time linear
    in the chunk and the stretch of edge slopes it spans; any other chunk
    is ranked by binary search (``_ranks``).  Both give ``searchsorted``'s
    ranks, and a value depends only on its slope, so neither the order nor
    the route changes a bit.
    """
    if not np.isfinite(s).all():
        raise ValueError("slopes must be finite")
    hx, hv, edges = f._table
    top = hx.size - 1
    out = np.empty(s.size)
    for i in range(0, s.size, _CHUNK):
        at = slice(i, i + _CHUNK) if order is None else order[i : i + _CHUNK]
        sc = s[at]
        j = _ranks(edges, sc, f._edges_ascend)
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

    The hull comes from ``f.hull`` (built once per function).  The slopes
    ascend, so each chunk of at least ``_MERGE`` of them is ranked among the
    hull's edge slopes by one merge when those ascend too, and by binary
    search otherwise; each slope then costs an exact three-vertex max.
    Values come from the same expression the oracle uses and a zero maximum
    is +0.0 on both routes, so the two are bitwise equal on the tested
    data.  Dense, nearly straight data can break that by a few ulps (see
    the module docstring).
    """
    s = check_grid(slopes)
    return SampledFn._on_grid(readonly(s, slopes), _conjugate_at(f, s))


def biconjugate(f: SampledFn) -> SampledFn:
    """Discrete biconjugate: the lower convex hull of the samples.

    Nodes outside the span of the finite values stay +inf; hull vertices
    keep their exact value; interior nodes take the chord value, clamped
    to never exceed the original sample (the clamp only absorbs roundoff).
    When every node of that span is a hull vertex, the result is ``f``
    itself: the rule above gives back its values bit for bit.  Otherwise
    the chords are evaluated ``_CHUNK`` nodes at a time, into the output.
    """
    h = f.hull
    if _block_of(h) is not None:
        return f
    hx, hv, _ = f._table
    x = f.points
    top = max(hx.size - 2, 0)
    vertex = np.zeros(x.size, dtype=bool)
    vertex[h] = True
    out = np.empty(x.size)
    with np.errstate(invalid="ignore", divide="ignore"):  # one vertex: no chord
        for i in range(0, x.size, _CHUNK):
            # each node's segment: the count of hull vertices at or left of it, less one
            seg = np.cumsum(vertex[i : i + _CHUNK])
            seg += np.searchsorted(h, i) - 1
            np.clip(seg, 0, top, out=seg)
            nxt = seg + 1
            np.minimum(nxt, hx.size - 1, out=nxt)
            t = x[i : i + _CHUNK] - hx[seg]
            t /= hx[nxt] - hx[seg]
            v = out[i : i + _CHUNK]
            np.subtract(hv[nxt], hv[seg], out=v)
            v *= t
            v += hv[seg]
            fv = f.values[i : i + _CHUNK]
            np.copyto(v, fv, where=fv < v)
    out[: h[0]] = INF
    out[h[-1] + 1 :] = INF
    out[h] = hv
    return SampledFn._on_grid(f.points, out)


# ---------------------------------------------------------------------------
# The one-dimensional solution family of the sign-flip equation f(x) = f*(-x)


@dataclass(frozen=True)
class SignFlipSolution:
    """A known 1-D solution of f(x) = f*(-x), optionally reflected.

    kinds: ``half_square`` (x^2/2), ``neg_log`` (-1/2 - log x on x > 0,
    +inf elsewhere), ``ray_indicator`` (0 on x >= 0, +inf elsewhere) and
    ``split_quadratic`` (lam x^2/2 on x <= 0, x^2/(2 lam) on x >= 0,
    0 < lam < inf).  If f solves the equation then so does x -> f(-x).
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
            if not self.lam < INF:
                raise ValueError("split_quadratic needs a finite lam")
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

    x = f.points
    mask = f.finite_mask.copy()
    if boundary_exclusion > 0.0:
        first = x[f.finite_mask.argmax()]
        last = x[x.size - 1 - f.finite_mask[::-1].argmax()]
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
    if window is not None or boundary_exclusion > 0.0:
        for i in range(0, x.size, _CHUNK):
            xc = x[i : i + _CHUNK]
            mc = mask[i : i + _CHUNK]
            if window is not None:
                mc &= (xc >= lo) & (xc <= hi)
            if boundary_exclusion > 0.0:
                mc &= (xc - first >= boundary_exclusion) & (last - xc >= boundary_exclusion)
    if not mask.any():
        raise AllInfinite("no finite nodes to check in the requested window")
    # the checked nodes: a slice when they are one run, else a gather
    run = _block(mask)
    at = mask if run is None else run
    del mask

    # f(x) - tau f*(e x + c) - w x - beta with the same roundings, in place
    # in the conjugate's output.  The slopes ascend: for e < 0 they come
    # from the nodes reversed, and so do their values.
    s = x[at]
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness tests catch it
        s = (s[::-1] if e < 0.0 else s) * e
        s += c
        try:
            r = _conjugate_at(f, s)
        except ValueError:
            raise OutOfRange(
                f"slopes e x + c overflow the float range (e = {e:g}, c = {c:g})"
            ) from None
        del s
        r *= p.tau
    if not np.isfinite(r).all():
        raise OutOfRange(f"the input overflows the float range: tau f*(e x + c), tau = {p.tau:g}")
    if e < 0.0:
        r = r[::-1]
    np.subtract(f.values[at], r, out=r)
    xs = x[at]
    for i in range(0, r.size, _CHUNK):
        r[i : i + _CHUNK] -= w * xs[i : i + _CHUNK]
    r -= p.beta
    return report_from_residuals(r, xs, grid_h=f.spacing)


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
    snap = 1e-9 * max(1.0, f.spacing)
    # the nearest node to each x (the right one on a tie), _CHUNK pairs at a
    # time; every x must be a node before any f(x) is tested
    x = f.points
    fx = np.empty(xs.size)
    for i in range(0, xs.size, _CHUNK):
        xc = xs[i : i + _CHUNK]
        node = _ranks(x, xc)
        np.clip(node, 0, x.size - 1, out=node)
        left = np.maximum(node - 1, 0)
        dist = x[node]
        dist -= xc
        np.abs(dist, out=dist)
        dist_left = x[left]
        dist_left -= xc
        np.abs(dist_left, out=dist_left)
        np.copyto(node, left, where=dist_left < dist)
        np.minimum(dist, dist_left, out=dist)
        if not (dist <= snap).all():  # a NaN abscissa fails too
            raise ValueError("pair abscissae must be grid nodes")
        np.take(f.values, node, out=fx[i : i + _CHUNK])
    if not np.isfinite(fx).all():
        raise ValueError("pair abscissae must be in the effective domain")

    # f*(s) + f(x) - s x, with the same roundings, in place; then the
    # violations max(-gap, 0), in place too
    gaps = _conjugate_at(f, ss, np.argsort(ss))
    gaps += fx
    np.multiply(ss, xs, out=fx)
    gaps -= fx
    del fx
    k = int(np.argmin(gaps))
    min_gap = float(gaps[k])
    np.negative(gaps, out=gaps)
    np.clip(gaps, 0.0, None, out=gaps)
    return ResidualReport(
        max_abs=float(gaps.max()),
        mean_abs=float(gaps.mean()),
        sample_points=int(gaps.size),
        worst_point=np.array([xs[k], ss[k]]),
        min_gap=min_gap,
    )
