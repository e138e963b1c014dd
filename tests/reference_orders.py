"""Reference order constructions that the tests compare live code against.

These are the paper's preliminary constructions on finite orders that no
checker calls: ordinal sums and imbrications, interval maps, the outer
and inner gap dualities on linear orders, and the closures into cycles
with their comparison witness.  ``dualities.D_on_map`` computes the
cyclic gap dual directly on positions; the tests check it against the
construction here, which dualizes on outer gaps, glues endpoints and
conjugates by ``closure_square_witness``.  ``dualities.res`` builds
its gap orders by construction; ``validated_res`` builds the same map
from the marked sub-orders through the validating constructors.  The
order fixtures ``all_lin_maps`` and ``tag_order`` live here too, with
the endpoint, sub-order, inverse and linearization helpers (``bottom``,
``top``, ``is_endpoint_preserving``, ``between``, ``cyc_inverse``,
``linear_from``) that only these constructions and the tests read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from segalspans.dualities import cyclic_closure, sk_outer_dual, sk_segment_dual
from segalspans.labels import BOTTOM, label_key
from segalspans.orders import CycMap, CycOrd, LinMap, LinOrd


# --------------------------------------------------------------------------
# order fixtures


def tag_order(prefix, order):
    """Relabel every element x to (prefix, x); used to disjointify carriers."""
    return LinOrd(tuple((prefix, x) for x in order.elements))


def all_lin_maps(src, dst):
    """Every order-preserving map src -> dst."""
    for pos in itertools.combinations_with_replacement(range(len(dst)), len(src)):
        yield LinMap(src, dst, tuple(dst.elements[p] for p in pos))


def bottom(order):
    """The least element of a nonempty linear order."""
    if not order.elements:
        raise ValueError("empty order has no bottom")
    return order.elements[0]


def top(order):
    """The greatest element of a nonempty linear order."""
    if not order.elements:
        raise ValueError("empty order has no top")
    return order.elements[-1]


def is_endpoint_preserving(f):
    """Whether a monotone map between nonempty orders fixes both ends."""
    return (
        len(f.src) > 0
        and len(f.dst) > 0
        and f.images[0] == bottom(f.dst)
        and f.images[-1] == top(f.dst)
    )


def between(order, lo, hi):
    """The closed sub-order of a linear order from lo to hi."""
    i, j = order.position(lo), order.position(hi)
    if i > j:
        raise ValueError("between() requires lo <= hi")
    return LinOrd(order.elements[i : j + 1])


def cyc_inverse(f):
    """The inverse of a cyclic iso."""
    if not f.is_iso():
        raise ValueError("map is not invertible")
    return CycMap(f.dst, f.src, tuple((fib[0], (d,)) for d, fib in f.fibers))


def linear_from(cycle, x):
    """The linear order compatible with a cyclic order that starts at x."""
    i = cycle.cycle.index(x)
    return LinOrd(cycle.cycle[i:] + cycle.cycle[:i])


# --------------------------------------------------------------------------
# interval maps


@dataclass(frozen=True)
class IntervalMap:
    """An order-preserving map that fixes both endpoints.

    Source and target must be nonempty; these are the maps along which
    inner gap structure can be pulled back.
    """

    underlying: LinMap

    def __post_init__(self):
        if not is_endpoint_preserving(self.underlying):
            raise ValueError("map does not preserve both endpoints")

    @property
    def src(self):
        return self.underlying.src

    @property
    def dst(self):
        return self.underlying.dst

    def __call__(self, x):
        return self.underlying(x)

    def compose(self, other):
        return IntervalMap(self.underlying.compose(other.underlying))


def all_interval_maps(src, dst):
    for f in all_lin_maps(src, dst):
        if is_endpoint_preserving(f):
            yield IntervalMap(f)


# --------------------------------------------------------------------------
# sums and joins


def ordinal_sum(s, t):
    """Concatenate two linear orders; every s-element below every t-element."""
    clash = set(s.elements) & set(t.elements)
    if clash:
        raise ValueError(f"label collision in ordinal sum: {sorted(clash, key=label_key)!r}")
    return LinOrd(s.elements + t.elements)


def ordinal_sum_many(parts):
    out = ()
    seen = set()
    for p in parts:
        if seen & set(p.elements):
            raise ValueError("label collision in ordinal sum")
        seen |= set(p.elements)
        out += p.elements
    return LinOrd(out)


def ordinal_sum_map(f, g):
    """The sum of two maps, acting blockwise on an ordinal sum."""
    src = ordinal_sum(f.src, g.src)
    dst = ordinal_sum(f.dst, g.dst)
    return LinMap(src, dst, f.images + g.images)


def imbrication(s, t):
    """Join two nonempty orders end to end, merging max(s) with min(t).

    The merged element keeps the label of max(s); min(t)'s label is
    dropped.  The two carriers must otherwise be disjoint, though t may
    already reuse the junction label for its minimum.
    """
    if len(s) == 0 or len(t) == 0:
        raise ValueError("imbrication requires interval objects")
    # min(t)'s label is discarded by the merge, so it may freely reuse a
    # label of s; only the surviving labels must stay distinct
    rest = t.elements[1:]
    clash = set(rest) & set(s.elements)
    if clash:
        raise ValueError(f"label collision in imbrication: {sorted(clash, key=label_key)!r}")
    return LinOrd(s.elements + rest)


def imbrication_map(f, g):
    """Join two endpoint-compatible interval maps along the junction.

    Requires f(max src f) and g(min src g) to be the tops/bottoms merged
    by the imbrications of the sources and targets.
    """
    src = imbrication(f.src, g.src)
    dst = imbrication(f.dst, g.dst)
    images = f.images + tuple(
        y if y != bottom(g.dst) else top(f.dst) for y in g.images[1:]
    )
    return LinMap(src, dst, images)


# --------------------------------------------------------------------------
# gap dualities on linear orders


def sk_inner_dual(images, p, q):
    """Dual of an endpoint-preserving [p] -> [q] on inner gaps: [q-1] -> [p-1]."""
    out = []
    j = 0
    for k in range(q):
        while j + 1 <= p and images[j + 1] <= k:
            j += 1
        out.append(j)
    return tuple(out)


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
    top_s = top(f.src)
    bot_d, top_d = bottom(f.dst), top(f.dst)
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
    fibers = [(top(order), (BOTTOM,))]
    fibers += [(x, (x,)) for x in order.elements[:-1]]
    return CycMap(src_c, dst_c, tuple(fibers))


# --------------------------------------------------------------------------
# interval contexts


def marked_order(ctx):
    """The marked sub-order [lo, hi] of an interval context."""
    return between(ctx.ambient, ctx.lo, ctx.hi)


def validated_res(m):
    """``dualities.res`` built through the validating constructors: the
    inner gaps of both marked sub-orders and the LinMap between them."""
    samb, tamb = m.src.ambient, m.dst.ambient
    i, j = samb.position(m.src.lo), samb.position(m.src.hi)
    k, l = tamb.position(m.dst.lo), tamb.position(m.dst.hi)
    dual = sk_segment_dual(m.map.positions, i, j, k, l)
    gt = inner_interstices(marked_order(m.dst))
    gs = inner_interstices(marked_order(m.src))
    return LinMap(gt, gs, tuple(gs.elements[v] for v in dual))
