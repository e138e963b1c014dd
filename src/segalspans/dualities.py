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
``D_on_map`` computes that transported dual directly on positions; the
closure witnesses (``O_on_map``, ``interval_closure_map``,
``closure_square_witness``) stay as the reference construction that the
tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labels import BASE, BOTTOM, label_key
from .orders import CycMap, CycOrd, IntervalMap, LinMap, LinOrd


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


def sk_inner_dual(images, p, q):
    """Dual of an endpoint-preserving [p] -> [q] on inner gaps: [q-1] -> [p-1]."""
    out = []
    j = 0
    for k in range(q):
        while j + 1 <= p and images[j + 1] <= k:
            j += 1
        out.append(j)
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
# gap orders


def inner_interstices(order):
    """The linear order of gaps between adjacent elements."""
    return LinOrd(order.elements[:-1])


def outer_interstices(order):
    """Inner gaps plus the unbounded gaps below and above."""
    if BOTTOM in order.elements:
        raise ValueError("order already carries the outer gap sentinel")
    return LinOrd((BOTTOM,) + order.elements)


def O_on_map(f):
    """Contravariant dual of an order-preserving map on outer gaps.

    Always endpoint-preserving: the unbounded gaps pull back to the
    unbounded gaps.
    """
    a, b = f.src.skeletal_rank, f.dst.skeletal_rank
    dual = sk_outer_dual(f.positions, a, b)
    gs = outer_interstices(f.src)
    gt = outer_interstices(f.dst)
    return IntervalMap(LinMap(gt, gs, tuple(gs.elements[i] for i in dual)))


def I_on_map(g):
    """Contravariant dual of an endpoint-preserving map on inner gaps.

    Inverse to O_on_map at the level of positions (gap carriers are
    renamed by the canonical relabelling).
    """
    f = g.underlying
    p, q = f.src.skeletal_rank, f.dst.skeletal_rank
    dual = sk_inner_dual(f.positions, p, q)
    gs = inner_interstices(f.src)
    gt = inner_interstices(f.dst)
    return LinMap(gt, gs, tuple(gs.elements[j] for j in dual))


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


def interval_closure(order):
    """Glue top to bottom, dropping the top's label; needs >= 2 elements."""
    if len(order) < 2:
        raise ValueError("interval closure needs at least two elements")
    return CycOrd(order.elements[:-1])


def interval_closure_map(g):
    """An endpoint-preserving map, carried through endpoint gluing.

    The merged element's fiber lists the preimages of the old top first,
    then those of the old bottom.
    """
    f = g.underlying
    src_c = interval_closure(f.src)
    dst_c = interval_closure(f.dst)
    top_s = f.src.top
    bot_d, top_d = f.dst.bottom, f.dst.top
    fibers = {y: [x for x in f.fiber(y) if x != top_s] for y in f.dst.elements[:-1]}
    fibers[bot_d] = [x for x in f.fiber(top_d) if x != top_s] + fibers[bot_d]
    return CycMap(src_c, dst_c, tuple((d, tuple(v)) for d, v in fibers.items()))


def closure_square_witness(order):
    """Iso from interval-closed outer gaps to the closed order itself.

    Sends the below-bottom gap to the top element and every other gap to
    its lower endpoint; this is the comparison along which the gap
    duality transports to cycles.
    """
    if len(order) == 0:
        raise ValueError("witness needs a nonempty order")
    src_c = interval_closure(outer_interstices(order))
    dst_c = cyclic_closure(order)
    fibers = [(order.top, (BOTTOM,))]
    fibers += [(x, (x,)) for x in order.elements[:-1]]
    return CycMap(src_c, dst_c, tuple(fibers))


# --------------------------------------------------------------------------
# the cyclic gap duality


def cyclic_dual(base):
    """The cyclic order of gaps of a cycle.

    Each gap is named by the element it follows, so the carrier and the
    successor structure are unchanged; the content of the duality sits
    in its action on maps.
    """
    return base


def D_on_map(f, start=None):
    """Contravariant dual of a cyclic map on cyclic gap orders.

    Linearize the target at ``start`` (default: canonical start) as
    t_0 < ... < t_m and read the source fibers along it as
    s_0 < ... < s_n, with the positions of their images.  Take the outer
    gap dual ``sk_outer_dual`` of those positions, [m+1] -> [n+1], and
    bucket the gaps j <= m by their value, keeping j ascending; gap 0,
    below the bottom, is relabelled to the top t_m, and gap j >= 1 to
    t_{j-1}, the element it follows.  The fiber over s_k for k < n is
    bucket k+1; the fiber over s_n is bucket n+1 followed by bucket 0,
    since gluing the outer gaps wraps the top bucket onto the bottom.
    This is the position form of dualizing the induced monotone map on
    outer gaps, gluing endpoints and conjugating by the closure
    witnesses.  The result is independent of ``start``.
    """
    dst = f.dst
    if start is None:
        start = dst.cycle[0]
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
    return CycMap(dst, f.src, tuple(fibers))


def double_dual_witness(base):
    """Rotation conjugating a map to its double dual.

    For every cyclic map f the square witness_dst . f = D(D(f)) . witness_src
    commutes; the witness steps each element one place backward.
    """
    from .orders import rotation_map

    return rotation_map(base, -1)


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


@dataclass(frozen=True)
class PointedMap:
    """A basepoint-preserving map; images listed per sorted source point."""

    src: PointedSet
    dst: PointedSet
    assignment: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != len(self.src.points):
            raise ValueError("one image per source point required")
        for y in self.assignment:
            if y is not BASE and y not in self.dst.points:
                raise ValueError(f"image {y!r} not in target")

    def __call__(self, x):
        if x is BASE:
            return BASE
        return self.assignment[self.src.points.index(x)]

    def compose(self, other):
        if other.dst != self.src:
            raise ValueError("middle objects disagree")
        return PointedMap(
            other.src, self.dst, tuple(self(y) for y in other.assignment)
        )

    def is_iso(self):
        return (
            len(self.src) == len(self.dst)
            and BASE not in self.assignment
            and len(set(self.assignment)) == len(self.assignment)
        )


def cut(n):
    """The pointed set of inner gaps of the rank-n order."""
    if n < 0:
        raise ValueError("cut needs rank >= 0")
    return PointedSet(tuple(range(n)))


def cut_on_map(f):
    """Contravariant pointed dual of a monotone map between nonempty orders.

    An inner gap of the target pulls back to the unique inner gap of the
    source spanning it, or to the basepoint when it falls outside the
    image's reach.  Computed from the outer gap dual by collapsing both
    unbounded gaps to the basepoint.
    """
    a, b = f.src.skeletal_rank, f.dst.skeletal_rank
    if a < 0 or b < 0:
        raise ValueError("cut needs nonempty orders")
    dual = sk_outer_dual(f.positions, a, b)
    imgs = []
    for k in range(b):
        i = dual[k + 1]
        imgs.append(i - 1 if 1 <= i <= a else BASE)
    return PointedMap(cut(b), cut(a), tuple(imgs))


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

    @property
    def sub_order(self):
        return self.ambient.between(self.lo, self.hi)


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

    def compose(self, other):
        if other.dst != self.src:
            raise ValueError("middle contexts disagree")
        return IntervalContextMap(other.src, self.dst, self.map.compose(other.map))


def identity_context_map(ctx):
    from .orders import identity_lin

    return IntervalContextMap(ctx, ctx, identity_lin(ctx.ambient))


def res(m):
    """Dual of a context morphism on the inner gaps of the marked intervals.

    Degenerate marked intervals have no inner gaps, so the result may go
    into or out of the empty order.
    """
    samb, tamb = m.src.ambient, m.dst.ambient
    i, j = samb.position(m.src.lo), samb.position(m.src.hi)
    k, l = tamb.position(m.dst.lo), tamb.position(m.dst.hi)
    dual = sk_segment_dual(m.map.positions, i, j, k, l)
    gt = inner_interstices(m.dst.sub_order)
    gs = inner_interstices(m.src.sub_order)
    return LinMap(gt, gs, tuple(gs.elements[v] for v in dual))


@dataclass(frozen=True)
class PointedSubsetContext:
    """A pointed set with a marked subset of its non-basepoint part."""

    base: PointedSet
    subset: tuple

    def __post_init__(self):
        sub = tuple(sorted(self.subset, key=label_key))
        if len(set(sub)) != len(sub):
            raise ValueError("repeated label in marked subset")
        for x in sub:
            if x not in self.base.points:
                raise ValueError("marked subset must avoid the basepoint")
        object.__setattr__(self, "subset", sub)
