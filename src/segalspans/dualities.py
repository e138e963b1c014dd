"""Dualities between finite orders and their gap structures.

A linear order has inner gaps (between adjacent elements) and outer gaps
(those plus one below the bottom and one above the top).  Every gap is
named by the element on its lower side; the gap below the bottom is
named by the ``BOTTOM`` sentinel.  Order-preserving maps dualize
contravariantly onto gap orders, endpoint-preserving maps dualize back,
and the two constructions are inverse on positions.

Closing a linear order into a cycle commutes with these dualities up to
a canonical witness; that witness is what transports the gap duality to
cyclic orders, where the formula for maps is otherwise underdetermined.
``D_on_map`` computes that transported dual directly on positions, and
validates the map that its core ``dual_fibers`` reads off.  The
closure witnesses (``O_on_map``, ``interval_closure_map``,
``closure_square_witness``) are the reference construction in
``tests/reference_orders.py`` that the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labels import BASE, BOTTOM, label_key, trusted
from .orders import CycMap, CycOrd, LinMap, LinOrd


# --------------------------------------------------------------------------
# position-level dual formulas


def sk_outer_dual(images, a, b):
    """Dual of a monotone map [a] -> [b] on outer gaps: [b+1] -> [a+1].

    ``images`` is the position form; a = -1 encodes an empty source.
    Gap j of the target is sent to the least i whose padded image
    reaches j (the padded map sends a+1 to b+1).
    """
    out = []
    i = 0
    for j in range(b + 2):
        while i <= a and images[i] < j:
            i += 1
        out.append(i)
    return tuple(out)


def sk_segment_dual(images, i, j, k, l):
    """Dual on inner gaps of the segments [i..j] -> [k..l] of a bigger map.

    Requires images[i] <= k <= l <= images[j].  Gap t of [k..l]
    (0-based) goes to the last source gap whose lower vertex still lands
    at or below it.
    """
    out = []
    s = i
    for t in range(l - k):
        while s + 1 <= j - 1 and images[s + 1] <= k + t:
            s += 1
        out.append(s - i)
    return tuple(out)


# --------------------------------------------------------------------------
# closures into cyclic orders


def cyclic_closure(order):
    """Close a nonempty linear order into a cycle (top wraps to bottom)."""
    if len(order) == 0:
        raise ValueError("cannot close an empty order")
    return CycOrd(order.elements)


def cyclic_closure_map(f):
    """A monotone map between nonempty orders, read around the closures."""
    src_c = cyclic_closure(f.src)
    dst_c = cyclic_closure(f.dst)
    fibers = tuple((y, f.fiber(y)) for y in f.dst.elements)
    return CycMap(src_c, dst_c, fibers)


# --------------------------------------------------------------------------
# the cyclic gap duality


def dual_fibers(f, start):
    """The fibers of the cyclic dual of f, linearizing its target at ``start``.

    Linearize the target at ``start`` as t_0 < ... < t_m and read the
    source fibers along it as s_0 < ... < s_n, with the positions of
    their images.  Take the outer gap dual ``sk_outer_dual`` of those
    positions, [m+1] -> [n+1], and bucket the gaps j <= m by their
    value, keeping j ascending; gap 0, below the bottom, is relabelled to
    the top t_m, and gap j >= 1 to t_{j-1}, the element it follows.  The
    fiber over s_k for k < n is bucket k+1; the fiber over s_n is bucket
    n+1 followed by bucket 0, since gluing the outer gaps wraps the top
    bucket onto the bottom.  This is the position form of dualizing the
    induced monotone map on outer gaps, gluing endpoints and conjugating
    by the closure witnesses.

    Returns the (source element, fiber) pairs in the order s_0..s_n,
    unvalidated; ``D_on_map`` builds them into a map.
    """
    dst = f.dst
    i = dst.cycle.index(start)
    t = dst.cycle[i:] + dst.cycle[:i]
    if BOTTOM in f.src.carrier or BOTTOM in dst.carrier:
        raise ValueError("order already carries the outer gap sentinel")
    fib = dict(f.fibers)
    seq, images = [], []
    for k, y in enumerate(t):
        seq += fib[y]
        images += [k] * len(fib[y])
    n, m = len(seq) - 1, len(t) - 1
    dual = sk_outer_dual(images, n, m)
    buckets = [[] for _ in range(n + 2)]
    for j, gap in enumerate((t[m],) + t[:m]):
        buckets[dual[j]].append(gap)
    fibers = [(seq[k], tuple(buckets[k + 1])) for k in range(n)]
    fibers.append((seq[n], tuple(buckets[n + 1] + buckets[0])))
    return tuple(fibers)


def D_on_map(f, start=None):
    """Contravariant dual of a cyclic map on cyclic gap orders.

    The validated map on the fibers ``dual_fibers`` computes with the
    target linearized at ``start`` (default: canonical start).  The
    result is independent of ``start``.
    """
    if start is None:
        start = f.dst.cycle[0]
    return CycMap(f.dst, f.src, dual_fibers(f, start))


# --------------------------------------------------------------------------
# pointed sets and the cut construction


@dataclass(frozen=True)
class PointedSet:
    """A finite pointed set, stored by its non-basepoint part."""

    points: tuple

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=label_key))
        for x in pts:
            if x is BASE:
                raise ValueError("basepoint is implicit, not a point")
        if len(set(pts)) != len(pts):
            raise ValueError("repeated point")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        # counts non-basepoint elements
        return len(self.points)

    def __contains__(self, x):
        return x in self.points

    def __iter__(self):
        return iter(self.points)


def cut(n):
    """The pointed set of inner gaps of the rank-n order."""
    if n < 0:
        raise ValueError("cut needs rank >= 0")
    return PointedSet(tuple(range(n)))


# --------------------------------------------------------------------------
# decorated contexts and the segment dual


@dataclass(frozen=True)
class IntervalContext:
    """An ambient linear order with a marked sub-interval [lo, hi]."""

    ambient: LinOrd
    lo: object
    hi: object

    def __post_init__(self):
        if self.ambient.position(self.lo) > self.ambient.position(self.hi):
            raise ValueError("marked interval needs lo <= hi")


@dataclass(frozen=True)
class IntervalContextMap:
    """An ambient monotone map whose image interval spans the marked one.

    The condition is map(lo) <= lo' <= hi' <= map(hi); without it the
    segment dual below has no well-defined value.
    """

    src: IntervalContext
    dst: IntervalContext
    map: LinMap

    def __post_init__(self):
        if self.map.src != self.src.ambient or self.map.dst != self.dst.ambient:
            raise ValueError("ambient map does not match the contexts")
        amb = self.dst.ambient
        lo_img = amb.position(self.map(self.src.lo))
        hi_img = amb.position(self.map(self.src.hi))
        k, l = amb.position(self.dst.lo), amb.position(self.dst.hi)
        if not (lo_img <= k <= l <= hi_img):
            raise ValueError("not an interval-context morphism")


def res(m):
    """Dual of a context morphism on the inner gaps of the marked intervals.

    A gap is named by the element below it, so the inner gaps of a
    marked interval [lo, hi] are the slice of its ambient order from lo
    up to, not including, hi.  Degenerate marked intervals have no inner
    gaps, so the result may go into or out of the empty order.

    The two gap orders and the map are built with ``trusted``: slices
    of a valid order are valid, and ``sk_segment_dual`` never decreases,
    so the map is monotone.  The spanning condition it rests on is what
    ``IntervalContextMap`` validates.
    """
    samb, tamb = m.src.ambient, m.dst.ambient
    i, j = samb.position(m.src.lo), samb.position(m.src.hi)
    k, l = tamb.position(m.dst.lo), tamb.position(m.dst.hi)
    dual = sk_segment_dual(m.map.positions, i, j, k, l)
    gt = trusted(LinOrd, elements=tamb.elements[k:l])
    gs = trusted(LinOrd, elements=samb.elements[i:j])
    return trusted(LinMap, src=gt, dst=gs, images=tuple(gs.elements[v] for v in dual))
