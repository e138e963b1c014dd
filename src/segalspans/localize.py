"""Marked rows and the collapse functor onto tuple categories.

A marked row is a map with a distinguished window on its base: either a
monotone map with a marked subinterval of its source (interval flavor),
or an ordered-fiber map of pointed bases with a marked subset of base
points (round flavor; the base may also be the absorbing object, in
which case the whole cyclically ordered fiber is the window).

The collapse functor reads off the tuple of fiber ranks over the marked
window.  Morphisms of rows that shift the window rigidly form the class
E; collapsing sends them to identity-shaped data, the fibers over a
fixed tuple have explicit initial objects, and every tuple morphism out
of a collapsed row factors through an explicitly built row.  All of
this is re-verified by brute-force enumeration in verify_localization.

The sweep is written once and runs over both flavors, each given as
data: its rows, its tuples and its probe rows.  Pair claims run
exhaustively on the rows up to weight ``CORE_WEIGHT``, factorizations
also from probe rows against whole weak fibers, and a seeded sample
carries the composite checks across the full universe.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter, namedtuple
from dataclasses import dataclass, fields

from .labels import BASE, label_key, trusted
from .orders import CycMap, CycOrd, LinMap, identity_lin, rotation_map, standard_cycle, standard_order
from .dualities import D_on_map, IntervalContext, IntervalContextMap, PointedSet, cut, res
from .cycy import (
    AssMor,
    CycRankMor,
    CycToFamilyMor,
    DiamondMor,
    FamilyMor,
    FamilyObj,
    ID_DIAMOND,
    IdDiamond,
    all_ass_mors,
    all_diamond_mors,
    all_lambda_star_mors,
    ass_compose,
    ass_identity,
    CyclicRank,
    family_union_cycle,
    lambda_star_compose,
    lambda_star_identity,
)
from .spanalg import DeltaStarMor, DeltaStarObj, all_delta_star_mors, identity_star
from .report import Report


@dataclass(frozen=True)
class LocalizeBudget:
    """Enumeration bounds for the brute-force verification sweeps:
    ambient rank, tuple length, fiber size and dead points per row,
    each an int (not a bool) and at least 0.

    Hom sets grow so fast with these bounds that the sweep is tiered;
    verify_localization describes the tiers.
    """

    max_rank: int
    max_tuple: int
    max_fiber: int
    max_junk: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{f.name} {value!r} is not an int")
            if value < 0:
                raise ValueError(f"{f.name} {value} is negative")


# the tiering of verify_localization
CORE_WEIGHT = 3
SAMPLE_TRIPLES = 150
SAMPLE_CAP = 12


# --------------------------------------------------------------------------
# marked rows, interval flavor


@dataclass(frozen=True)
class OmegaObjDelta:
    """A monotone map with a non-degenerate marked source interval."""

    interval: IntervalContext
    base: LinMap

    def __post_init__(self):
        if self.base.src != self.interval.ambient:
            raise ValueError("base map must start at the marked ambient")
        if self.interval.lo == self.interval.hi:
            raise ValueError("marked interval must not be degenerate")

    @property
    def lo_pos(self):
        return self.interval.ambient.position(self.interval.lo)

    @property
    def hi_pos(self):
        return self.interval.ambient.position(self.interval.hi)


@dataclass(frozen=True)
class OmegaMorDelta:
    """A commuting square between interval-flavored rows.

    ``g`` moves the ambients forward, ``gbar`` moves the fiber sides
    backward, and the composite gbar . base' . g must reproduce the
    source row's base map.  The marked windows satisfy the spanning
    condition checked by IntervalContextMap.
    """

    src: OmegaObjDelta
    dst: OmegaObjDelta
    g: LinMap
    gbar: LinMap

    def __post_init__(self):
        # raises unless g(lo) <= lo' <= hi' <= g(hi)
        IntervalContextMap(self.src.interval, self.dst.interval, self.g)
        if self.gbar.src != self.dst.base.dst or self.gbar.dst != self.src.base.dst:
            raise ValueError("gbar must run against the arrow")
        if self.gbar.compose(self.dst.base.compose(self.g)) != self.src.base:
            raise ValueError("square does not commute")

    def compose(self, other):
        """self after other.

        The square law for a composite of two valid squares holds by
        associativity, so the constructor's re-validation is skipped.
        """
        if other.dst != self.src:
            raise ValueError("middle rows disagree")
        return trusted(
            OmegaMorDelta,
            src=other.src,
            dst=self.dst,
            g=self.g.compose(other.g),
            gbar=other.gbar.compose(self.gbar),
        )


# --------------------------------------------------------------------------
# marked rows, round flavor


@dataclass(frozen=True)
class OmegaObjLambda:
    """An ordered-fiber map with marked base points.

    For a pointed base the marked subset must be nonempty.  Over the
    absorbing base the cyclically ordered fiber itself is the window, so
    ``marked`` is None and the cycle must be nonempty.
    """

    base: object  # AssMor into a pointed base, or DiamondMor
    marked: object  # frozenset of base points, or None over the diamond

    def __post_init__(self):
        if isinstance(self.base, DiamondMor):
            if self.marked is not None:
                raise ValueError("rows over the diamond carry no marked subset")
            if self.base.cycle is None:
                raise ValueError("the diamond fiber must be nonempty")
            return
        if not isinstance(self.base, AssMor):
            raise ValueError("base must be an ordered-fiber map")
        marked = frozenset(self.marked)
        if not marked:
            raise ValueError("marked subset must be nonempty")
        for q in marked:
            if q not in self.base.dst.points:
                raise ValueError(f"marked point {q!r} not in the base")
        object.__setattr__(self, "marked", marked)

    @property
    def is_round(self):
        return isinstance(self.base, DiamondMor)

    @property
    def carrier(self):
        return self.base.src


@dataclass(frozen=True)
class OmegaMorLambda:
    """A commuting square between round-flavored rows.

    ``g`` moves the bases against the arrow and must send the target's
    marked points into the source's window; ``gbar`` moves the fibers
    forward.  The square condition is src.base = g . dst.base . gbar.
    """

    src: OmegaObjLambda
    dst: OmegaObjLambda
    g: object  # AssMor, DiamondMor, or IdDiamond, dst base -> src base
    gbar: AssMor

    def __post_init__(self):
        if not self.src.is_round and self.dst.is_round:
            raise ValueError("no squares from a pointed row to a round row")
        if self.gbar.src != self.src.carrier or self.gbar.dst != self.dst.carrier:
            raise ValueError("gbar must run along the fibers")
        if self.src.is_round and self.dst.is_round:
            if not isinstance(self.g, IdDiamond):
                raise ValueError("base map between absorbing rows must be the identity")
        elif self.src.is_round:
            # the base map collapses the target's pointed base onto a cycle
            if not isinstance(self.g, DiamondMor) or self.g.src != self.dst.base.dst:
                raise ValueError("base map must be a collapse of the target base")
            if not self.dst.marked <= self.g.subset:
                raise ValueError("marked points must land in the window")
        else:
            if not isinstance(self.g, AssMor):
                raise ValueError("base map must be an ordered-fiber map")
            if self.g.src != self.dst.base.dst or self.g.dst != self.src.base.dst:
                raise ValueError("base map must run against the arrow")
            for q in self.dst.marked:
                if self.g(q) not in self.src.marked:
                    raise ValueError("marked points must land in the window")
        if ass_compose(self.g, ass_compose(self.dst.base, self.gbar)) != self.src.base:
            raise ValueError("square does not commute")

    def compose(self, other):
        """self after other; validation is skipped as for the interval flavor."""
        if other.dst != self.src:
            raise ValueError("middle rows disagree")
        return trusted(
            OmegaMorLambda,
            src=other.src,
            dst=self.dst,
            g=ass_compose(other.g, self.g),
            gbar=ass_compose(self.gbar, other.gbar),
        )


def identity_omega(z):
    """The identity square on a marked row of either flavor."""
    if isinstance(z, OmegaObjDelta):
        return OmegaMorDelta(
            z, z, identity_lin(z.interval.ambient), identity_lin(z.base.dst)
        )
    if z.is_round:
        return OmegaMorLambda(z, z, ID_DIAMOND, ass_identity(z.carrier))
    return OmegaMorLambda(z, z, ass_identity(z.base.dst), ass_identity(z.carrier))


# --------------------------------------------------------------------------
# the collapse functor


def localize_object(z):
    """The tuple of fiber ranks over the marked window."""
    if isinstance(z, OmegaObjDelta):
        fpos = z.base.positions
        i, j = z.lo_pos, z.hi_pos
        return DeltaStarObj(tuple(fpos[s + 1] - fpos[s] for s in range(i, j)))
    if z.is_round:
        return CyclicRank(len(z.base.cycle) - 1)
    return FamilyObj(tuple((q, len(z.base.fiber(q))) for q in sorted(z.marked, key=label_key)))


def _localize_delta(mu):
    ctx = IntervalContextMap(mu.src.interval, mu.dst.interval, mu.g)
    i, ip = mu.src.lo_pos, mu.dst.lo_pos
    fpos = mu.src.base.positions
    f2pos = mu.dst.base.positions
    gbarpos = mu.gbar.positions
    # target slot u reads the fiber cells over its gap, counted from the
    # bottom of the source slot s its gap lands in
    blocks = []
    for u, s in enumerate(res(ctx).positions):
        cells = range(f2pos[ip + u], f2pos[ip + u + 1] + 1)
        blocks.append((s, tuple(gbarpos[y] - fpos[i + s] for y in cells)))
    return DeltaStarMor(localize_object(mu.src), localize_object(mu.dst), tuple(blocks))


def _localize_family(mu):
    src_t = localize_object(mu.src)
    f1, f2 = mu.src.base, mu.dst.base
    marked2 = mu.dst.marked
    orders = []
    blocks = []
    for p in src_t.index:
        # the fibers over g's fiber at p, glued in their order
        chain = mu.g.fiber(p)
        pos = {}
        start = {}
        for s2 in chain:
            start[s2] = len(pos)
            for u in f2.fiber(s2):
                pos[u] = len(pos)
        marked_chain = tuple(q for q in chain if q in marked2)
        orders.append((p, marked_chain))
        gpos = [pos[mu.gbar(t)] for t in f1.fiber(p)]
        if any(a > b for a, b in zip(gpos, gpos[1:])):
            raise AssertionError("square produced an unordered fiber chain")
        # vertex x of q counts the source fiber points that land before
        # the x-th point of q's fiber in the chain
        for q in marked_chain:
            cutoffs = range(start[q], start[q] + len(f2.fiber(q)) + 1)
            blocks.append((q, (p, tuple(sum(1 for v in gpos if v < c) for c in cutoffs))))
    return FamilyMor(src_t, localize_object(mu.dst), tuple(blocks), tuple(orders))


def _positional_iso(cyc):
    """The position-reading cyclic iso onto the standard cycle."""
    n = len(cyc.cycle) - 1
    return CycMap(
        cyc, standard_cycle(n), tuple((k, (x,)) for k, x in enumerate(cyc.cycle))
    )


def _dual_all_starts(w, location):
    """The cyclic dual of w, computed at every linearization start.

    The construction claims independence of the start; a disagreement is
    raised, naming the location and both duals, rather than silently
    resolved.
    """
    duals = [D_on_map(w, start=h) for h in w.dst.cycle]
    for other in duals[1:]:
        if other != duals[0]:
            raise ValueError(
                f"cyclic linearization choices disagree at {location}: "
                f"{duals[0]!r} vs {other!r}"
            )
    return duals[0]


def _round_fiber_map(mu):
    """The cyclic map of a square between diamond rows, read off gbar."""
    u2 = mu.dst.base.cycle
    return CycMap(mu.src.base.cycle, u2, tuple((u, mu.gbar.fiber(u)) for u in u2.cycle))


def _localize_round_round(mu):
    w = _round_fiber_map(mu)
    op = _positional_iso(w.src).compose(
        _dual_all_starts(w, "round-round").compose(_positional_iso(w.dst).inverse())
    )
    return CycRankMor(localize_object(mu.src), localize_object(mu.dst), op)


def _localize_round_family(mu):
    src_t = localize_object(mu.src)
    dst_t = localize_object(mu.dst)
    u1 = mu.src.base.cycle
    f2 = mu.dst.base
    window = mu.g.cycle
    marked_cycle = CycOrd(tuple(q for q in window.cycle if q in mu.dst.marked))
    chain = [u for w_pt in window.cycle for u in f2.fiber(w_pt)]
    if not chain:
        raise AssertionError("nonempty source cycle over an empty chain")
    chain_cyc = CycOrd(tuple(chain))
    w = CycMap(u1, chain_cyc, tuple((u, mu.gbar.fiber(u)) for u in chain))
    union = family_union_cycle(dst_t, marked_cycle)
    embed = _collapse_embedding(union, f2, window, marked_cycle, chain, chain_cyc)
    op = _positional_iso(u1).compose(
        _dual_all_starts(w, "round-family").compose(embed)
    )
    return CycToFamilyMor(src_t, dst_t, marked_cycle, op)


def _collapse_embedding(union, f2, window, marked_cycle, chain, chain_cyc):
    """Send each block cut of the glued family cycle to the fiber
    element it follows; bottom cuts fall back to the nearest nonempty
    block behind them."""
    assign = {}
    wseq = window.cycle
    for q in marked_cycle.cycle:
        fib = f2.fiber(q)
        for x in range(1, len(fib) + 1):
            assign[(q, x)] = fib[x - 1]
        start = wseq.index(q)
        prev = None
        for back in range(1, len(wseq) + 1):
            cand = f2.fiber(wseq[(start - back) % len(wseq)])
            if cand:
                prev = cand[-1]
                break
        if prev is None:
            raise AssertionError("no fiber element precedes the block")
        assign[(q, 0)] = prev
    members = {h: [] for h in chain}
    for v in union.cycle:
        members[assign[v]].append(v)
    fibers = []
    useq = union.cycle
    upos = {v: k for k, v in enumerate(useq)}
    for h in chain:
        mem = members[h]
        if not mem:
            fibers.append((h, ()))
            continue
        if len(mem) == len(useq):
            # whole-cycle fiber: start just above the element it follows,
            # or at the canonical rotation when h sits under no marked block
            top = next((v for v in mem if v[1] >= 1), None)
            start = upos[top] if top is not None else 0
        else:
            mset = set(mem)
            start = next(
                upos[v]
                for v in mem
                if useq[(upos[v] - 1) % len(useq)] not in mset
            )
        arc = [useq[(start + k) % len(useq)] for k in range(len(mem))]
        if set(arc) != set(mem):
            raise AssertionError("cut preimage is not an arc")
        fibers.append((h, tuple(arc)))
    return CycMap(union, chain_cyc, tuple(fibers))


def localize_morphism(mu):
    """The collapse of a marked-row square to a tuple morphism."""
    if isinstance(mu, OmegaMorDelta):
        return _localize_delta(mu)
    if mu.src.is_round and mu.dst.is_round:
        return _localize_round_round(mu)
    if mu.src.is_round:
        return _localize_round_family(mu)
    return _localize_family(mu)


# --------------------------------------------------------------------------
# the class E


def is_in_E(mu):
    """Does the square shift the marked window rigidly?"""
    if isinstance(mu, OmegaMorDelta):
        return _delta_in_E(mu)
    if mu.src.is_round and mu.dst.is_round:
        return _round_fiber_map(mu).is_iso()
    if mu.src.is_round:
        return False
    return _pointed_in_E(mu)


def _delta_in_E(mu):
    i, j = mu.src.lo_pos, mu.src.hi_pos
    ip, jp = mu.dst.lo_pos, mu.dst.hi_pos
    if j - i != jp - ip:
        return False
    gpos = mu.g.positions
    if any(gpos[i + t] != ip + t for t in range(j - i + 1)):
        return False
    fpos = mu.src.base.positions
    f2pos = mu.dst.base.positions
    gbarpos = mu.gbar.positions
    width = fpos[j] - fpos[i]
    if f2pos[jp] - f2pos[ip] != width:
        return False
    if any(gbarpos[f2pos[ip] + t] != fpos[i] + t for t in range(width + 1)):
        return False
    return True


def _pointed_in_E(mu):
    p1 = mu.src.marked
    q2 = mu.dst.marked
    images = [mu.g(q) for q in q2]
    if len(set(images)) != len(images) or set(images) != p1:
        return False
    for s in mu.dst.base.dst.points:
        if s not in q2 and mu.g(s) in p1:
            return False
    back = {mu.g(q): q for q in q2}
    for p in p1:
        q = back[p]
        src_fiber = mu.src.base.fiber(p)
        if tuple(mu.gbar(t) for t in src_fiber) != mu.dst.base.fiber(q):
            return False
    return True


def is_identity_like(m):
    """Is a tuple morphism invertible in the identity-shaped sense?

    Family and interval shapes demand an index bijection with identity
    gluing maps; cyclic shapes demand an invertible operator.
    """
    if isinstance(m, DeltaStarMor):
        return m.src == m.dst and m == identity_star(m.src)
    if isinstance(m, FamilyMor):
        reads = [p for _, (p, _) in m.blocks]
        if len(set(reads)) != len(reads) or set(reads) != set(m.src.index):
            return False
        src_ranks = m.src.ranks
        return all(verts == tuple(range(src_ranks[p] + 1)) for _, (p, verts) in m.blocks)
    if isinstance(m, CycRankMor):
        return m.src.rank == m.dst.rank and m.op.is_iso()
    return False


# --------------------------------------------------------------------------
# initial objects of the weak fibers


def weak_fiber_initial(m):
    """The explicitly built initial row collapsing to the given tuple."""
    if isinstance(m, DeltaStarObj):
        k = len(m.ranks)
        ps = tuple(itertools.accumulate(m.ranks, initial=0))
        amb = standard_order(k)
        base = LinMap(amb, standard_order(ps[-1]), ps)
        z = OmegaObjDelta(IntervalContext(amb, 0, k), base)
    elif isinstance(m, FamilyObj):
        if len(m) == 0:
            raise ValueError("no marked row collapses to the empty family")
        s = PointedSet(m.index)
        fibers = tuple(
            (q, tuple((q, x) for x in range(m.rank_of(q)))) for q in m.index
        )
        t = PointedSet(tuple(e for _, fib in fibers for e in fib))
        z = OmegaObjLambda(AssMor(t, s, fibers), frozenset(m.index))
    else:
        t = PointedSet(tuple(range(m.rank + 1)))
        z = OmegaObjLambda(DiamondMor(t, standard_cycle(m.rank)), None)
    if localize_object(z) != m:
        raise AssertionError("initial row does not collapse to its tuple")
    return z


# --------------------------------------------------------------------------
# universal factorizations


def universal_factorization(z, g):
    """The row X and square phi: z -> X realizing a tuple morphism g.

    g must leave the collapse of z; phi collapses to g on the nose and
    every other square realizing g factors through phi by a unique
    window-rigid square over the identity (verified by enumeration in
    verify_localization, asserted pointwise here).
    """
    if isinstance(g, DeltaStarMor):
        x, phi = _factor_delta(z, g)
    elif isinstance(g, FamilyMor):
        x, phi = _factor_family(z, g)
    elif isinstance(g, CycRankMor):
        x, phi = _factor_round(z, g)
    elif isinstance(g, CycToFamilyMor):
        x, phi = _factor_round_family(z, g)
    else:
        raise ValueError("unrecognized tuple morphism")
    if localize_object(x) != g.dst:
        raise AssertionError("factorization target collapses wrongly")
    if localize_morphism(phi) != g:
        raise AssertionError("factorization square does not cover g")
    return x, phi


def _factor_delta(z, g):
    if g.src != localize_object(z):
        raise ValueError("g must leave the collapse of z")
    amb = z.interval.ambient
    i, j = z.lo_pos, z.hi_pos
    n = len(amb) - 1
    fpos = z.base.positions
    m = len(z.base.dst) - 1
    k = j - i
    ranks_m = g.dst.ranks
    kp = len(ranks_m)
    ps_m = list(itertools.accumulate(ranks_m, initial=0))
    m_tot = ps_m[-1]

    # the glued fiber-side map gamma, read off block by block
    gamma = {}
    for u, (s, verts) in enumerate(g.blocks):
        for x, v in enumerate(verts):
            val = (fpos[i + s] - fpos[i]) + v
            prev = gamma.get(ps_m[u] + x)
            if prev is not None and prev != val:
                raise ValueError("g is not covering-compatible at a junction")
            gamma[ps_m[u] + x] = val

    # split z at the minimal interval spanned by the hit slots; the new
    # window is one fresh slot per target block, flanked by one buffer
    # slot on each side soaking up the fiber slack around the image
    hit0, hit_last = g.blocks[0][0], g.blocks[-1][0]
    p = i + hit0
    q = i + hit_last + 1
    lo, hi = fpos[i] + gamma[0], fpos[i] + gamma[m_tot]  # the image of the new window
    i_x = p + 1
    j_x = i_x + kp
    rb = j_x + 1
    n_x = rb + (n - q)
    t3 = lo + m_tot + (fpos[q] - hi)  # where the right buffer slot ends
    m_x = t3 + (m - fpos[q])

    # each image tuple is its slot ranges laid end to end; phibar is
    # gamma on the new window and carries the rest of the fiber unchanged
    fx_images = (
        tuple(fpos[: p + 1])
        + tuple(lo + c for c in ps_m)
        + tuple(t3 + (fpos[t] - fpos[q]) for t in range(q, n + 1))
    )
    below = [sum(1 for j, _ in g.blocks if j < s) for s in range(k)]
    phig_images = (
        tuple(range(p + 1))
        + tuple(i_x + below[s] for s in range(hit0 + 1, hit_last + 1))
        + tuple(range(rb, rb + (n - q) + 1))
    )
    phibar_images = (
        tuple(range(lo))
        + tuple(fpos[i] + gamma[v] for v in range(m_tot + 1))
        + tuple(range(hi + 1, m + 1))
    )

    amb_x = standard_order(n_x)
    fib_x = standard_order(m_x)
    x = OmegaObjDelta(IntervalContext(amb_x, i_x, j_x), LinMap(amb_x, fib_x, fx_images))
    fib_elems = z.base.dst.elements
    phi = OmegaMorDelta(
        z,
        x,
        LinMap(amb, amb_x, phig_images),
        LinMap(fib_x, z.base.dst, tuple(fib_elems[v] for v in phibar_images)),
    )
    return x, phi


def _region_runs(fiber, blocks):
    """Split an ordered fiber into fresh-block segments and leftovers.

    ``blocks`` lists (label, vertex list) along the fiber order; vertex
    x of a block cuts the fiber before its x-th point.  Returns
    per-block element lists keyed by (block label, cut index) plus
    leftover runs before, between, and after the blocks.
    """
    fresh = {}
    for q, verts in blocks:
        for x, (a, b) in enumerate(zip(verts, verts[1:])):
            fresh[(q, x)] = fiber[a:b]
    runs = {}
    if blocks:
        runs["min"] = fiber[: blocks[0][1][0]]
        for (q, verts), (_, following) in zip(blocks, blocks[1:]):
            runs[("after", q)] = fiber[verts[-1] : following[0]]
        runs["max"] = fiber[blocks[-1][1][-1] :]
    else:
        runs["min"] = fiber
    return fresh, runs


def _carry(key, run, fx_fibers, gbar_fibers):
    # a run of source fiber points, carried unchanged over the new base
    # point key of the built row
    fx_fibers.append((key, tuple(("t", t) for t in run)))
    gbar_fibers.extend((("t", t), (t,)) for t in run)


def _factor_family(z, g):
    if z.is_round or g.src != localize_object(z):
        raise ValueError("g must leave the collapse of z")
    m = g.dst
    f = z.base
    s_pts = f.dst.points
    marked = z.marked
    ranks = m.ranks
    blocks = dict(g.blocks)

    s_x_fibers = []  # base-map fibers of the built square, per source point
    fx_fibers = []
    gbar_fibers = []
    for p in sorted(marked, key=label_key):
        order = g.fiber_order(p)
        if not order:
            # a marked point no block lands on is carried like an
            # unmarked one, fiber and all
            s_x_fibers.append((p, (("u", p),)))
            _carry(("u", p), f.fiber(p), fx_fibers, gbar_fibers)
            continue
        fresh, runs = _region_runs(f.fiber(p), [(q, blocks[q][1]) for q in order])
        window = []
        if runs["min"]:
            window.append(("rmin", p))
            _carry(("rmin", p), runs["min"], fx_fibers, gbar_fibers)
        for b, q in enumerate(order):
            window.append(q)
            fx_fibers.append((q, tuple(("m", q, x) for x in range(ranks[q]))))
            for x in range(ranks[q]):
                gbar_fibers.append((("m", q, x), fresh[(q, x)]))
            run = runs.get(("after", q), ()) if b < len(order) - 1 else None
            if run:
                window.append(("r", q))
                _carry(("r", q), run, fx_fibers, gbar_fibers)
        if runs["max"]:
            window.append(("rmax", p))
            _carry(("rmax", p), runs["max"], fx_fibers, gbar_fibers)
        s_x_fibers.append((p, tuple(window)))
    for s in s_pts:
        if s in marked:
            continue
        s_x_fibers.append((s, (("u", s),)))
        _carry(("u", s), f.fiber(s), fx_fibers, gbar_fibers)
    junk = _junk(z)
    gbar_fibers.extend((("t", t), (t,)) for t in junk)

    s_x = PointedSet(tuple(e for _, win in s_x_fibers for e in win))
    t_x = PointedSet(
        tuple(e for _, fib in fx_fibers for e in fib) + tuple(("t", t) for t in junk)
    )
    x = OmegaObjLambda(AssMor(t_x, s_x, tuple(fx_fibers)), frozenset(m.index))
    phi = OmegaMorLambda(
        z,
        x,
        AssMor(s_x, f.dst, tuple(s_x_fibers)),
        AssMor(f.src, t_x, tuple(gbar_fibers)),
    )
    return x, phi


def _junk(z):
    """Carrier points of a row that lie over no base point."""
    if z.is_round:
        return tuple(t for t in z.carrier.points if t not in z.base.cycle.carrier)
    return tuple(t for t in z.carrier.points if z.base(t) is BASE)


def _factor_round(z, g):
    if not z.is_round or g.src != localize_object(z):
        raise ValueError("g must leave the collapse of z")
    u = z.base.cycle
    n = g.dst.rank
    iso = _positional_iso(u)
    d = iso.inverse().compose(g.op)
    # invert the duality through its double-dual rotation witnesses
    w = rotation_map(standard_cycle(n), 1).compose(
        _dual_all_starts(d, "factor-round").compose(rotation_map(u, -1))
    )
    if D_on_map(w) != d:
        raise AssertionError("dual inversion failed")
    junk = _junk(z)
    t_x = PointedSet(tuple(range(n + 1)) + tuple(("t", t) for t in junk))
    gbar_fibers = [(v, w.fiber(v)) for v in range(n + 1)]
    gbar_fibers.extend(((("t", t), (t,))) for t in junk)
    x = OmegaObjLambda(DiamondMor(t_x, standard_cycle(n)), None)
    phi = OmegaMorLambda(z, x, ID_DIAMOND, AssMor(z.carrier, t_x, tuple(gbar_fibers)))
    return x, phi


def _factor_round_family(z, g):
    if not z.is_round or g.src != localize_object(z):
        raise ValueError("g must leave the collapse of z")
    m = g.dst
    if len(m) == 0:
        raise ValueError("g is not covering-compatible: empty family target")
    u = z.base.cycle
    d = _positional_iso(u).inverse().compose(g.op)
    # the dual's fiber at a block cut is the source arc following that
    # cut, shifted one step forward; interior cuts feed fresh fiber
    # elements, top cuts feed the leftover points appended after their
    # block
    arcs = _dual_all_starts(d, "factor-round-family").compose(rotation_map(u, -1))
    window = []
    fx_fibers = []
    gbar_fibers = []
    for q in g.cycle.cycle:
        window.append(q)
        rank = m.rank_of(q)
        fx_fibers.append((q, tuple(("m", q, x) for x in range(rank))))
        for x in range(rank):
            gbar_fibers.append((("m", q, x), arcs.fiber((q, x))))
        run = arcs.fiber((q, rank))
        if run:
            window.append(("r", q))
            _carry(("r", q), run, fx_fibers, gbar_fibers)
    junk = _junk(z)
    gbar_fibers.extend((("t", t), (t,)) for t in junk)
    s_x = PointedSet(tuple(window))
    t_x = PointedSet(
        tuple(e for _, fib in fx_fibers for e in fib) + tuple(("t", t) for t in junk)
    )
    x = OmegaObjLambda(AssMor(t_x, s_x, tuple(fx_fibers)), frozenset(m.index))
    phi = OmegaMorLambda(
        z, x, DiamondMor(s_x, CycOrd(tuple(window))), AssMor(z.carrier, t_x, tuple(gbar_fibers))
    )
    return x, phi


# --------------------------------------------------------------------------
# enumeration universes


def all_omega_delta_objects(bud):
    for n in range(1, bud.max_rank + 1):
        amb = standard_order(n)
        for m in range(bud.max_fiber + 1):
            fib = standard_order(m)
            for images in itertools.combinations_with_replacement(range(m + 1), n + 1):
                base = LinMap(amb, fib, images)
                for i, j in itertools.combinations(range(n + 1), 2):
                    yield OmegaObjDelta(IntervalContext(amb, i, j), base)


def _gbar_fills(z1, z2, gpos, extra=()):
    """Position tuples of every fiber-side map closing the square over g.

    Anchors forced by the square condition (plus any extra pinned
    positions) are interpolated monotonically in all possible ways.
    """
    fpos = z1.base.positions
    f2pos = z2.base.positions
    m1 = len(z1.base.dst) - 1
    m2 = len(z2.base.dst) - 1
    anchors = {}
    for t, p in enumerate(gpos):
        pos = f2pos[p]
        if anchors.setdefault(pos, fpos[t]) != fpos[t]:
            return
    for pos, val in extra:
        if anchors.setdefault(pos, val) != val:
            return
    keys = sorted(anchors)
    segments = []
    prev_pos, prev_val = -1, 0
    for pos in keys:
        if pos - prev_pos > 1:
            segments.append((prev_pos + 1, pos - 1, prev_val, anchors[pos]))
        prev_pos, prev_val = pos, anchors[pos]
    if prev_pos < m2:
        segments.append((prev_pos + 1, m2, prev_val, m1))
    pools = [
        list(itertools.combinations_with_replacement(range(lo, hi + 1), b - a + 1))
        for a, b, lo, hi in segments
    ]
    for fills in itertools.product(*pools):
        vals = dict(anchors)
        for (a, _, _, _), fill in zip(segments, fills):
            for off, v in enumerate(fill):
                vals[a + off] = v
        yield tuple(vals[y] for y in range(m2 + 1))


def _delta_squares(z1, z2, gpositions, extra=()):
    """The squares z1 -> z2 over each ambient map in gpositions."""
    amb1 = z1.interval.ambient
    amb2 = z2.interval.ambient
    fib1 = z1.base.dst
    fib2 = z2.base.dst
    for gpos in gpositions:
        for vals in _gbar_fills(z1, z2, gpos, extra):
            yield OmegaMorDelta(
                z1,
                z2,
                LinMap(amb1, amb2, tuple(amb2.elements[p] for p in gpos)),
                LinMap(fib2, fib1, tuple(fib1.elements[v] for v in vals)),
            )


def all_omega_delta_mors(z1, z2):
    n1 = len(z1.interval.ambient) - 1
    n2 = len(z2.interval.ambient) - 1
    i1, j1 = z1.lo_pos, z1.hi_pos
    i2, j2 = z2.lo_pos, z2.hi_pos
    gpositions = itertools.combinations_with_replacement(range(n2 + 1), n1 + 1)
    yield from _delta_squares(
        z1, z2, (gp for gp in gpositions if gp[i1] <= i2 and j2 <= gp[j1])
    )


def _e_mors_delta(z1, z2):
    """Window-rigid squares between two interval rows, enumerated directly.

    Both window shifts are forced, so only the parts of the square
    outside the marked windows remain free.
    """
    i1, j1 = z1.lo_pos, z1.hi_pos
    i2, j2 = z2.lo_pos, z2.hi_pos
    k = j1 - i1
    if j2 - i2 != k:
        return
    fpos = z1.base.positions
    f2pos = z2.base.positions
    if any(
        fpos[i1 + t + 1] - fpos[i1 + t] != f2pos[i2 + t + 1] - f2pos[i2 + t]
        for t in range(k)
    ):
        return
    n1 = len(z1.interval.ambient) - 1
    n2 = len(z2.interval.ambient) - 1
    width = fpos[j1] - fpos[i1]
    extra = tuple((f2pos[i2] + t, fpos[i1] + t) for t in range(width + 1))
    window = tuple(range(i2, j2 + 1))
    heads = itertools.combinations_with_replacement(range(i2 + 1), i1)
    tails = itertools.combinations_with_replacement(range(j2, n2 + 1), n1 - j1)
    gpositions = (h + window + t for h, t in itertools.product(heads, tails))
    yield from _delta_squares(z1, z2, gpositions, extra)


def _fiber_size_profiles(n_points, total_cap, each_cap):
    rng = range(min(total_cap, each_cap) + 1)
    for sizes in itertools.product(rng, repeat=n_points):
        if sum(sizes) <= total_cap:
            yield sizes


def all_omega_lambda_objects(bud):
    pools = [("a",), ("a", "b")][: bud.max_tuple]
    for pool in pools:
        s = PointedSet(pool)
        for sizes in _fiber_size_profiles(len(pool), bud.max_rank, bud.max_fiber):
            elems = {
                pt: tuple((pt, k) for k in range(sz)) for pt, sz in zip(pool, sizes)
            }
            order_pools = [itertools.permutations(elems[pt]) for pt in pool]
            for orders in itertools.product(*order_pools):
                fibers = tuple(zip(pool, (tuple(o) for o in orders)))
                for nj in range(bud.max_junk + 1):
                    junk = tuple(("z", k) for k in range(nj))
                    t = PointedSet(tuple(e for f in elems.values() for e in f) + junk)
                    base = AssMor(t, s, fibers)
                    for r in range(1, len(pool) + 1):
                        for marked in itertools.combinations(pool, r):
                            yield OmegaObjLambda(base, frozenset(marked))
    for size in range(1, bud.max_rank + 2):
        first, rest = 0, tuple(range(1, size))
        for perm in itertools.permutations(rest):
            cyc = CycOrd((first,) + perm)
            for nj in range(bud.max_junk + 1):
                junk = tuple(("z", k) for k in range(nj))
                t = PointedSet(tuple(range(size)) + junk)
                yield OmegaObjLambda(DiamondMor(t, cyc), None)


def _run_splits(seq, parts):
    """Every cut of an ordered sequence into consecutive runs, one per
    part in order, as a dict from part to run; the run lengths ascend
    lexicographically, first part first."""
    if not parts:
        if not seq:
            yield {}
        return
    for cuts in itertools.combinations_with_replacement(range(len(seq) + 1), len(parts) - 1):
        bounds = (0,) + cuts + (len(seq),)
        yield {u: tuple(seq[a:b]) for u, a, b in zip(parts, bounds, bounds[1:])}


def _junk_placements(junk, dead):
    if not junk:
        yield {}
        return
    options = [None] + list(dead)
    for choice in itertools.product(options, repeat=len(junk)):
        groups = {}
        for t, u in zip(junk, choice):
            if u is not None:
                groups.setdefault(u, []).append(t)
        pools = [itertools.permutations(v) for v in groups.values()]
        keys = list(groups)
        for orders in itertools.product(*pools):
            yield dict(zip(keys, map(tuple, orders)))


def _fiber_maps(src, dst, split, junk, dead):
    """Every ordered-fiber map src -> dst with the fibers given by split,
    the junk points spread in every order over the dead points of dst,
    and every other fiber empty."""
    for placement in _junk_placements(junk, dead):
        fibers = tuple((u, split.get(u, placement.get(u, ()))) for u in dst.points)
        yield AssMor(src, dst, fibers)


def _pointed_splits(z1, z2, h, rigid=frozenset()):
    """gbar candidates for a fixed base map, via run-splitting.

    The fiber over each base point is cut into runs along the parts h
    sends to it; over a point of ``rigid`` it is carried across one
    element per part instead.
    """
    f1 = z1.base
    pools = []  # consumed only once every point is known to be coverable
    hit = set()
    for s in f1.dst.points:
        fiber = f1.fiber(s)
        parts = h.fiber(s)
        hit.update(parts)
        if s in rigid:
            pools.append([{u: (x,) for u, x in zip(parts, fiber)}])
        elif parts or not fiber:
            pools.append(_run_splits(fiber, parts))
        else:
            return
    dead = [u for u in z2.carrier.points if u not in hit]
    junk = _junk(z1)
    for combo in itertools.product(*pools):
        merged = {}
        for d in combo:
            merged.update(d)
        yield from _fiber_maps(f1.src, z2.carrier, merged, junk, dead)


def _cyclic_splits(useq, parts):
    seen = set()
    for rot in range(len(useq)):
        for split in _run_splits(useq[rot:] + useq[:rot], parts):
            key = tuple(sorted(split.items(), key=lambda kv: label_key(kv[0])))
            if key not in seen:
                seen.add(key)
                yield split


def _round_source_mors(z1, z2, g, chain_mor):
    """Squares out of a diamond row along a fixed base map."""
    if chain_mor.cycle is None:
        return
    t2 = z2.carrier
    dead = [u for u in t2.points if u not in chain_mor.subset]
    junk = _junk(z1)
    for split in _cyclic_splits(z1.base.cycle.cycle, chain_mor.cycle.cycle):
        for gbar in _fiber_maps(z1.carrier, t2, split, junk, dead):
            yield OmegaMorLambda(z1, z2, g, gbar)


def all_omega_lambda_mors(z1, z2):
    if z1.is_round and z2.is_round:
        yield from _round_source_mors(z1, z2, ID_DIAMOND, z2.base)
        return
    if z1.is_round:
        for g in all_diamond_mors(z2.base.dst):
            if not z2.marked <= g.subset:
                continue
            chain = ass_compose(g, z2.base)
            yield from _round_source_mors(z1, z2, g, chain)
        return
    if z2.is_round:
        return
    for g in all_ass_mors(z2.base.dst, z1.base.dst):
        if any(g(q) not in z1.marked for q in z2.marked):
            continue
        h = ass_compose(g, z2.base)
        for gbar in _pointed_splits(z1, z2, h):
            yield OmegaMorLambda(z1, z2, g, gbar)


def all_omega_mors(z1, z2):
    if isinstance(z1, OmegaObjDelta) != isinstance(z2, OmegaObjDelta):
        return iter(())
    if isinstance(z1, OmegaObjDelta):
        return all_omega_delta_mors(z1, z2)
    return all_omega_lambda_mors(z1, z2)


def _e_round_round(z1, z2):
    u1 = z1.base.cycle
    u2 = z2.base.cycle
    if len(u1.cycle) != len(u2.cycle):
        return
    useq = u1.cycle
    junk, dead = _junk(z1), _junk(z2)
    for rot in range(len(useq)):
        split = dict(zip(u2.cycle, ((x,) for x in useq[rot:] + useq[:rot])))
        for gbar in _fiber_maps(z1.carrier, z2.carrier, split, junk, dead):
            yield OmegaMorLambda(z1, z2, ID_DIAMOND, gbar)


def _e_pointed(z1, z2):
    """Window-rigid squares between pointed rows: base maps g that send
    the target's marked points bijectively onto the source's, over
    fibers of equal length, and nothing else into the window."""
    f1, f2 = z1.base, z2.base
    p1 = z1.marked
    q2 = z2.marked
    if len(p1) != len(q2):
        return
    s1, s2 = f1.dst, f2.dst
    q2s = sorted(q2, key=label_key)
    cands = [
        [p for p in p1 if len(f1.fiber(p)) == len(f2.fiber(q))] for q in q2s
    ]
    unmarked2 = tuple(s for s in s2.points if s not in q2)
    unmarked1 = [s for s in s1.points if s not in p1]
    for images in itertools.product(*cands):
        if len(set(images)) != len(images):
            continue
        back = {p: (q,) for q, p in zip(q2s, images)}
        for g in _fiber_maps(s2, s1, back, unmarked2, unmarked1):
            h = ass_compose(g, f2)
            for gbar in _pointed_splits(z1, z2, h, rigid=p1):
                yield OmegaMorLambda(z1, z2, g, gbar)


def all_e_mors(z1, z2):
    """Direct enumeration of the window-rigid squares between two rows.

    Agrees with filtering all_omega_mors through is_in_E; the agreement
    is itself re-checked on the exhaustive tier of verify_localization.
    """
    if isinstance(z1, OmegaObjDelta) != isinstance(z2, OmegaObjDelta):
        return
    if isinstance(z1, OmegaObjDelta):
        yield from _e_mors_delta(z1, z2)
        return
    if z1.is_round and z2.is_round:
        yield from _e_round_round(z1, z2)
        return
    if z1.is_round or z2.is_round:
        return
    yield from _e_pointed(z1, z2)


def delta_star_targets(bud):
    for k in range(1, bud.max_tuple + 1):
        for ranks in itertools.product(range(bud.max_fiber + 1), repeat=k):
            yield DeltaStarObj(ranks)


def lambda_star_targets(bud):
    pool = ("a", "b")[: bud.max_tuple]
    for r in range(1, len(pool) + 1):
        for idx in itertools.combinations(pool, r):
            for ranks in itertools.product(range(bud.max_fiber + 1), repeat=r):
                yield FamilyObj(tuple(zip(idx, ranks)))
    for n in range(bud.max_rank + 1):
        yield CyclicRank(n)


# --------------------------------------------------------------------------
# the interval-to-round comparison


def delta_row_to_lambda(z):
    """Re-read an interval-flavored row as a pointed round row.

    Base points become the inner gaps of the ambient, fibers become the
    gap spans on the fiber side, and the marked window becomes the set
    of gaps it contains.
    """
    n = len(z.interval.ambient) - 1
    m = len(z.base.dst) - 1
    fpos = z.base.positions
    s = cut(n)
    t = cut(m)
    fibers = tuple(
        (p, tuple(range(fpos[p], fpos[p + 1]))) for p in range(n)
    )
    marked = frozenset(range(z.lo_pos, z.hi_pos))
    return OmegaObjLambda(AssMor(t, s, fibers), marked)


def delta_mor_to_lambda(mu):
    """The round-flavored re-reading of an interval-flavored square."""
    src = delta_row_to_lambda(mu.src)
    dst = delta_row_to_lambda(mu.dst)
    n1 = len(mu.src.interval.ambient) - 1
    m2 = len(mu.dst.base.dst) - 1
    gpos = mu.g.positions
    gbarpos = mu.gbar.positions
    g_fibers = tuple(
        (p, tuple(pp for pp in range(len(dst.base.dst.points)) if gpos[p] <= pp < gpos[p + 1]))
        for p in range(n1)
    )
    gbar_fibers = tuple(
        (y2, tuple(y for y in range(gbarpos[y2], gbarpos[y2 + 1])))
        for y2 in range(m2)
    )
    return OmegaMorLambda(
        src,
        dst,
        AssMor(dst.base.dst, src.base.dst, g_fibers),
        AssMor(src.carrier, dst.carrier, gbar_fibers),
    )


def _tuples_agree(delta_obj, family):
    idx = family.index
    if len(idx) != len(delta_obj.ranks):
        return False
    if idx != tuple(range(idx[0], idx[0] + len(idx))):
        return False
    return all(
        family.rank_of(idx[0] + s) == r for s, r in enumerate(delta_obj.ranks)
    )


def _mor_tuples_agree(delta_mor, fam_mor, src_lo, dst_lo):
    # the same blocks, slots shifted to the gap labels, each fiber in
    # slot order
    shifted = tuple(
        (dst_lo + u, (src_lo + s, verts)) for u, (s, verts) in enumerate(delta_mor.blocks)
    )
    return fam_mor.blocks == shifted and all(
        list(order) == sorted(order) for _, order in fam_mor.fiber_orders
    )


# --------------------------------------------------------------------------
# the verification sweep


def _row_weight(z):
    """Ambient size plus fiber size; the exhaustive-tier cutoff."""
    if isinstance(z, OmegaObjDelta):
        return (len(z.interval.ambient) - 1) + (len(z.base.dst) - 1)
    if z.is_round:
        return len(z.carrier.points)
    return len(z.base.dst.points) + len(z.carrier.points)


def _delta_probes(m):
    """Deterministic factorization sources over an interval-flavor tuple:
    the built initial row and a variant padded by a slack base cell."""
    z0 = weak_fiber_initial(m)
    cum = tuple(itertools.accumulate(m.ranks, initial=0))
    k = len(m.ranks)
    amb = standard_order(k + 1)
    base = LinMap(amb, standard_order(cum[-1]), (0,) + cum)
    padded = OmegaObjDelta(IntervalContext(amb, 1, k + 1), base)
    return [z0, padded]


def _lambda_probes(m):
    """Deterministic factorization sources over a round-flavor tuple: the
    built initial row and a variant padded by a junk point (and over a
    family, an empty base point)."""
    z0 = weak_fiber_initial(m)
    t = PointedSet(z0.carrier.points + (("z", 0),))
    if isinstance(m, CyclicRank):
        return [z0, OmegaObjLambda(DiamondMor(t, z0.base.cycle), None)]
    s = PointedSet(z0.base.dst.points + ("pad",))
    padded = OmegaObjLambda(AssMor(t, s, z0.base.fibers + (("pad", ()),)), z0.marked)
    # the cyclic source exercises factorizations into family targets
    return [z0, padded, weak_fiber_initial(CyclicRank(1))]


# what the sweep needs of one flavor: its name, its rows and tuples under
# a budget, and the probe rows over a tuple
_Flavor = namedtuple("_Flavor", "tag rows targets probes")
_FLAVORS = (
    _Flavor("interval", all_omega_delta_objects, delta_star_targets, _delta_probes),
    _Flavor("round", all_omega_lambda_objects, lambda_star_targets, _lambda_probes),
)


def verify_localization(bud, deep=True):
    """Brute-force re-check of the collapse functor's localization story.

    Each check runs once per flavor, interval first.  Single-square
    claims (window-rigid squares collapse to identity-shaped data, the
    built fiber rows are initial) run over the whole universe the
    LocalizeBudget ``bud`` bounds.  Unless ``deep`` is false, the pair
    claims (functoriality of the collapse, closure of the rigid class
    under composition) and the factorization sweep follow.  Their pairs
    number in the billions well before bounds (3, 2, 3, 1), so they are
    tiered: exhaustive on the rows of weight (ambient size plus fiber
    size) at most ``CORE_WEIGHT``, factorizations out of each tuple's
    probe rows against its whole weak fiber, and a seeded sample of
    ``SAMPLE_TRIPLES`` full-universe triples per flavor, each hom set
    cut at its first ``SAMPLE_CAP`` squares.  The scope notes record
    exactly what was enumerated.

    A factorization nu = tau . phi counts only when tau collapses to the
    identity, so only those squares out of the built row are composed
    with phi; the others could never count.  Squares into a built row
    are collapsed once per source row and dropped with it, composites
    of the exhaustive tier are collapsed through its cache, and no memo
    outlives the call.
    """
    if not isinstance(bud, LocalizeBudget):
        raise ValueError(f"bud {bud!r} is not a LocalizeBudget")
    if not isinstance(deep, bool):
        raise ValueError(f"deep {deep!r} is not a bool")
    rep = Report("localization")
    rows = [list(fl.rows(bud)) for fl in _FLAVORS]
    rep.note_scope(
        "marked rows: "
        + ", ".join(f"{len(objs)} {fl.tag}-flavored" for fl, objs in zip(_FLAVORS, rows))
    )
    loc_obj = {z: localize_object(z) for objs in rows for z in objs}

    # identities collapse to identities and sit in the rigid class
    for z, m in loc_obj.items():
        ident = identity_omega(z)
        if not _is_fiber_identity(localize_morphism(ident), m):
            rep.fail("identity-collapse", ("object", str(z)), witness=str(z))
        if not is_in_E(ident):
            rep.fail("identity-in-E", ("object", str(z)), witness=str(z))

    ne = sum(_check_e_overlay(rep, objs, fl.tag) for fl, objs in zip(_FLAVORS, rows))
    rep.note_scope(
        f"window-rigid squares over the full universe: {ne} checked"
    )

    targets = [list(fl.targets(bud)) for fl in _FLAVORS]
    fibers = [_buckets(objs, loc_obj.__getitem__) for objs in rows]
    for ms, fiber in zip(targets, fibers):
        for m in ms:
            _check_initiality(rep, m, fiber.get(m, []))
    rep.note_scope(
        "initiality: "
        + " and ".join(f"{len(ms)} {fl.tag} tuples" for fl, ms in zip(_FLAVORS, targets))
        + ", over their whole weak fibers"
    )

    _check_flavor_agreement_objects(rep, rows[0], loc_obj)

    if not deep:
        rep.note_scope("shallow run: composite and factorization sweeps skipped")
        return rep

    _verify_core(rep, rows, targets)

    # probe rows stay out of the exhaustive tier's caches
    nf = sum(
        _check_universality(
            rep,
            ((z, m) for m in ms for z in fl.probes(m)),
            fiber,
            all_omega_mors,
            localize_morphism,
        )
        for fl, ms, fiber in zip(_FLAVORS, targets, fibers)
    )
    rep.note_scope(
        f"factorization instances against full weak fibers: {nf}, from the "
        "built initial row and a padded variant per tuple (plus a one-cell "
        "cyclic source for family targets)"
    )

    np_ = 0
    for fl, objs in zip(_FLAVORS, rows):
        rng = random.Random(1729)
        triples = (
            [rng.choice(objs) for _ in range(3)] for _ in range(SAMPLE_TRIPLES if objs else 0)
        )
        spans = (
            [itertools.islice(all_omega_mors(a, b), SAMPLE_CAP) for a, b in ((z1, z2), (z2, z3))]
            for z1, z2, z3 in triples
        )
        np_ += _check_composites(rep, fl.tag, spans, localize_morphism)
    rep.note_scope(f"seeded full-universe composite sample: {np_} pairs")
    return rep


def _verify_core(rep, rows, targets):
    """The exhaustive tier over the weight-bounded sub-universe."""
    core = [[z for z in objs if _row_weight(z) <= CORE_WEIGHT] for objs in rows]
    rep.note_scope(
        f"exhaustive tier at weight <= {CORE_WEIGHT}: "
        + ", ".join(f"{len(objs)} {fl.tag} rows" for fl, objs in zip(_FLAVORS, core))
    )
    hom = functools.cache(lambda z1, z2: list(all_omega_mors(z1, z2)))
    loc = functools.cache(localize_morphism)

    # the direct window-rigid enumeration agrees with filtering
    for fl, objs in zip(_FLAVORS, core):
        for z1 in objs:
            for z2 in objs:
                direct = set(all_e_mors(z1, z2))
                filtered = {mu for mu in hom(z1, z2) if is_in_E(mu)}
                if direct != filtered:
                    rep.fail(
                        "E-enumeration-agreement",
                        (fl.tag, str(z1), str(z2)),
                        witness=(len(direct), len(filtered)),
                    )

    # every composable pair, grouped by its middle row
    for fl, objs in zip(_FLAVORS, core):
        spans = (
            ((mu for z1 in objs for mu in hom(z1, z2)), (nu for z3 in objs for nu in hom(z2, z3)))
            for z2 in objs
        )
        pairs = _check_composites(rep, fl.tag, spans, loc)
        rep.note_scope(f"{fl.tag} composable pairs swept exhaustively: {pairs}")

    n = sum(
        _check_universality(
            rep,
            ((z, m) for z in objs for m in ms),
            _buckets(objs, localize_object),
            hom,
            loc,
        )
        for fl, objs, ms in zip(_FLAVORS, core, targets)
    )
    rep.note_scope(f"exhaustive tier factorization instances: {n}")

    _check_flavor_agreement_mors(rep, core[0], hom, loc)


def _check_e_overlay(rep, objs, tag):
    checked = 0
    for z1 in objs:
        for z2 in objs:
            for mu in all_e_mors(z1, z2):
                checked += 1
                if not is_in_E(mu):
                    rep.fail(
                        "E-enumeration-sound",
                        (tag, str(z1), str(z2)),
                        witness=str(mu),
                    )
                elif not is_identity_like(localize_morphism(mu)):
                    rep.fail(
                        "E-image-identity-like",
                        (tag, str(z1), str(z2)),
                        witness=str(mu),
                    )
    return checked


def _check_composites(rep, tag, spans, loc):
    """Collapse functoriality and closure of the rigid class over every
    composite of an incoming and an outgoing square, for each pair of
    square iterables in ``spans``; returns the number of composites."""
    want = functools.cache(_tuple_compose)
    pairs = 0
    for incoming, outgoing in spans:
        incoming = [(mu, loc(mu), is_in_E(mu)) for mu in incoming]
        outgoing = [(nu, loc(nu), is_in_E(nu)) for nu in outgoing]
        pairs += len(incoming) * len(outgoing)
        for mu, lmu, emu in incoming:
            for nu, lnu, enu in outgoing:
                comp = nu.compose(mu)
                if loc(comp) != want(lnu, lmu):
                    rep.fail(
                        "collapse-functoriality",
                        (tag, str(mu.src), str(mu.dst), str(nu.dst)),
                        witness=(str(mu), str(nu)),
                    )
                if emu and enu and not is_in_E(comp):
                    rep.fail(
                        "E-closure",
                        (tag, str(mu.src), str(nu.dst)),
                        witness=(str(mu), str(nu)),
                    )
    return pairs


def _tuple_compose(after, before):
    if isinstance(after, DeltaStarMor):
        return after.compose(before)
    return lambda_star_compose(after, before)


def _is_fiber_identity(lmu, m):
    want = identity_star(m) if isinstance(m, DeltaStarObj) else lambda_star_identity(m)
    return lmu == want


def _check_initiality(rep, m, fiber):
    z0 = weak_fiber_initial(m)
    out_detail = "expected exactly one window-rigid square over the identity"
    for w in [z0] + [w for w in fiber if w != z0]:
        for check, ends, detail in (
            ("weak-fiber-initial-out", (z0, w), out_detail),
            ("weak-fiber-initial-back", (w, z0), ""),
        ):
            n = sum(1 for mu in all_e_mors(*ends) if _is_fiber_identity(localize_morphism(mu), m))
            if n != 1:
                rep.fail(check, (str(m), str(w)), witness=n, detail=detail)


def _buckets(items, key):
    d = {}
    for item in items:
        d.setdefault(key(item), []).append(item)
    return d


# every square nu: z -> w over g must factor as nu = tau . phi through
# exactly one square tau: x -> w over the identity of m.  Only the
# identity-collapsing squares out of the built row x are composed with
# phi: any other tau is no route by definition, so leaving it out changes
# no count.  ``wanted`` lists each target row w with its squares over g,
# and ``identities(w)`` gives the identity-collapsing squares x -> w.
def _check_one_factorization(rep, z, m, g, phi, wanted, identities):
    for w, nus in wanted:
        if not nus:
            continue
        routes = Counter(tau.compose(phi) for tau in identities(w))
        for nu in nus:
            if routes[nu] != 1:
                rep.fail(
                    "factorization-universality",
                    (str(z), str(m), str(w)),
                    witness=(str(g), str(nu), routes[nu]),
                )


def _check_universality(rep, sources, fibers, hom, loc):
    """Factor every tuple morphism g out of each (row, tuple) source pair
    and check the factorization against the tuple's weak fiber.

    The hom sets into the pool rows are collapsed through ``loc`` once per
    source.  Every g of a source is factored first; then the hom set into
    each built row outside the pool is collapsed once, keeping only the
    squares over the gs that built that row.  Those built-row squares are
    held for one source only and stay out of the exhaustive tier's caches.
    Only the identity-collapsing squares x -> w are composed with each phi
    built on x, since a route must collapse to the identity; they are
    listed once per (x, w, m).  No memo outlives the call.
    """
    count = 0
    identity_squares = functools.cache(
        lambda x, m, w: [
            t for t in all_omega_mors(x, w) if _is_fiber_identity(localize_morphism(t), m)
        ]
    )
    for z, m in sources:
        # looked up per call, so that a wrapper installed on the module
        # (the benchmark's tracer installs one) sees every call
        mors = all_delta_star_mors if isinstance(m, DeltaStarObj) else all_lambda_star_mors
        gs = list(mors(localize_object(z), m))
        if not gs:
            continue
        pool = fibers.get(m, [])
        buckets = {w: _buckets(hom(z, w), loc) for w in pool}
        built = [universal_factorization(z, g) for g in gs]
        outside = {}
        for g, (x, _) in zip(gs, built):
            if x not in buckets:
                outside.setdefault(x, {})[g] = []
        for x, over in outside.items():
            for nu in all_omega_mors(z, x):
                lnu = localize_morphism(nu)
                if lnu in over:
                    over[lnu].append(nu)
        buckets.update(outside)
        for g, (x, phi) in zip(gs, built):
            count += 1
            rows = [x] + pool if x in outside else pool
            wanted = [(w, buckets[w].get(g, [])) for w in rows]
            _check_one_factorization(
                rep, z, m, g, phi, wanted, functools.partial(identity_squares, x, m)
            )
    return count


def _check_flavor_agreement_objects(rep, delta_objs, loc_obj):
    for z in delta_objs:
        row = delta_row_to_lambda(z)
        if not _tuples_agree(loc_obj[z], localize_object(row)):
            rep.fail("flavor-agreement-object", (str(z),), witness=str(row))
    rep.note_scope(
        f"flavor agreement checked on all {len(delta_objs)} interval rows"
    )


def _check_flavor_agreement_mors(rep, core_d, hom, loc):
    pairs = 0
    for z1 in core_d:
        for z2 in core_d:
            for mu in hom(z1, z2):
                pairs += 1
                lam = delta_mor_to_lambda(mu)
                if not _mor_tuples_agree(
                    loc(mu), localize_morphism(lam), z1.lo_pos, z2.lo_pos
                ):
                    rep.fail(
                        "flavor-agreement-morphism",
                        (str(z1), str(z2)),
                        witness=str(mu),
                    )
    rep.note_scope(f"flavor agreement checked on {pairs} interval squares")
