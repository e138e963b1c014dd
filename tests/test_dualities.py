import itertools

import pytest

from segalspans.labels import BASE, BOTTOM
from segalspans.dualities import (
    D_on_map,
    IntervalContext,
    IntervalContextMap,
    PointedSet,
    cut,
    cyclic_closure,
    cyclic_closure_map,
    res,
    sk_outer_dual,
)
from segalspans.orders import (
    CycOrd,
    LinMap,
    LinOrd,
    all_cyc_maps,
    identity_lin,
    rotation_map,
    standard_cycle,
    standard_order,
)

from reference_orders import (
    I_on_map,
    IntervalMap,
    O_on_map,
    all_lin_maps,
    closure_square_witness,
    cyc_inverse,
    imbrication,
    imbrication_map,
    inner_interstices,
    interval_closure,
    interval_closure_map,
    is_endpoint_preserving,
    linear_from,
    marked_order,
    ordinal_sum,
    ordinal_sum_map,
    outer_interstices,
    top,
)


def shifted_order(n, off=100):
    return LinOrd(tuple(range(off, off + n + 1)))


# ---------------------------------------------------------------- gap orders


def test_interstice_carriers():
    assert inner_interstices(standard_order(0)) == standard_order(-1)
    assert inner_interstices(standard_order(3)).elements == (0, 1, 2)
    out = outer_interstices(standard_order(-1))
    assert out.elements == (BOTTOM,)
    assert len(outer_interstices(standard_order(2))) == 4
    with pytest.raises(ValueError):
        outer_interstices(out)


def test_outer_dual_frozen_example():
    f = LinMap(standard_order(1), standard_order(2), (0, 2))
    g = O_on_map(f)
    assert g.underlying.positions == (0, 1, 1, 2)
    assert g.underlying.images == (BOTTOM, 0, 0, 1)


def test_outer_dual_empty_source():
    f = LinMap(standard_order(-1), standard_order(0), ())
    g = O_on_map(f)
    assert g.underlying.positions == (0, 0)
    assert g.underlying.images == (BOTTOM, BOTTOM)


def test_outer_dual_identity():
    for n in range(0, 4):
        g = O_on_map(identity_lin(standard_order(n)))
        assert g.underlying == identity_lin(outer_interstices(standard_order(n)))


def test_dual_round_trips_exact_on_positions():
    for a in range(-1, 5):
        for b in range(-1, 5):
            src, dst = standard_order(a), standard_order(b)
            for f in all_lin_maps(src, dst):
                g = O_on_map(f)
                assert is_endpoint_preserving(g.underlying)
                assert I_on_map(g).positions == f.positions
    # opposite round trip over endpoint-preserving maps
    for p in range(0, 5):
        for q in range(0, 5):
            src, dst = standard_order(p), standard_order(q)
            for f in all_lin_maps(src, dst):
                if not is_endpoint_preserving(f):
                    continue
                g = IntervalMap(f)
                back = O_on_map(I_on_map(g))
                assert back.underlying.positions == f.positions


def _check_outer_dual_contravariant(ranks):
    for a, b, c in itertools.product(ranks, repeat=3):
        sa, sb, sc = standard_order(a), standard_order(b), standard_order(c)
        for f in all_lin_maps(sa, sb):
            of = O_on_map(f)
            for g in all_lin_maps(sb, sc):
                lhs = O_on_map(g.compose(f))
                rhs = of.compose(O_on_map(g))
                assert lhs == rhs


def test_outer_dual_contravariant():
    _check_outer_dual_contravariant(range(-1, 3))


@pytest.mark.slow
def test_outer_dual_contravariant_through_rank_4():
    _check_outer_dual_contravariant(range(-1, 5))


def test_outer_dual_monoidal_on_objects():
    for p in range(-1, 5):
        for q in range(-1, 5):
            s, t = standard_order(p), shifted_order(q)
            assert outer_interstices(ordinal_sum(s, t)) == imbrication(
                outer_interstices(s), outer_interstices(t)
            )


def test_outer_dual_monoidal_on_maps_positional():
    # positional form of the comparison: glue the duals at the junction
    def maps(a, b):
        return list(
            itertools.combinations_with_replacement(range(b + 1), a + 1)
        ) if (a >= 0 and b >= 0) or a == -1 else []

    ranks = range(-1, 5)
    for a, a2 in itertools.product(ranks, repeat=2):
        for b, b2 in itertools.product(ranks, repeat=2):
            for pf in maps(a, a2):
                du_f = sk_outer_dual(pf, a, a2)
                for pg in maps(b, b2):
                    du_g = sk_outer_dual(pg, b, b2)
                    total = pf + tuple(v + a2 + 1 for v in pg)
                    lhs = sk_outer_dual(total, a + b + 1, a2 + b2 + 1)
                    rhs = du_f + tuple(v + a + 1 for v in du_g[1:])
                    assert lhs == rhs


def test_outer_dual_monoidal_on_maps_labeled():
    for a, a2, b, b2 in itertools.product(range(-1, 3), repeat=4):
        for f in all_lin_maps(standard_order(a), standard_order(a2)):
            for g in all_lin_maps(shifted_order(b), shifted_order(b2)):
                lhs = O_on_map(ordinal_sum_map(f, g)).underlying
                rhs = imbrication_map(
                    O_on_map(f).underlying, O_on_map(g).underlying
                )
                assert lhs == rhs


# ---------------------------------------------------------------- closures


def test_closures_on_objects():
    assert cyclic_closure(standard_order(2)) == standard_cycle(2)
    assert interval_closure(standard_order(2)) == standard_cycle(1)
    assert interval_closure(LinOrd(("a", "b"))).cycle == ("a",)
    with pytest.raises(ValueError):
        interval_closure(standard_order(0))
    with pytest.raises(ValueError):
        cyclic_closure(standard_order(-1))


def test_cyclic_closure_map_functorial():
    for a, b, c in itertools.product(range(0, 4), repeat=3):
        sa, sb, sc = standard_order(a), standard_order(b), standard_order(c)
        for f in all_lin_maps(sa, sb):
            kf = cyclic_closure_map(f)
            assert kf.fiber(top(f.dst)) == f.fiber(top(f.dst))
            for g in all_lin_maps(sb, sc):
                assert cyclic_closure_map(g.compose(f)) == cyclic_closure_map(
                    g
                ).compose(kf)


def test_interval_closure_map_wraps_top_fiber():
    g = IntervalMap(LinMap(standard_order(2), standard_order(1), (0, 0, 1)))
    m = interval_closure_map(g)
    assert m.fiber(0) == (0, 1)
    h = IntervalMap(LinMap(standard_order(1), standard_order(2), (0, 2)))
    m2 = interval_closure_map(h)
    assert m2.fiber(0) == (0,) and m2.fiber(1) == ()


def test_closure_square_witness_is_iso():
    for n in range(0, 6):
        s = standard_order(n)
        w = closure_square_witness(s)
        assert w.is_iso()
        assert w.src == interval_closure(outer_interstices(s))
        assert w.dst == cyclic_closure(s)
        assert w(BOTTOM) == top(s)


def test_closure_square_natural_in_the_map():
    for a in range(0, 6):
        for b in range(0, 6):
            sa, sb = standard_order(a), standard_order(b)
            wa, wb = closure_square_witness(sa), closure_square_witness(sb)
            for f in all_lin_maps(sa, sb):
                lhs = D_on_map(cyclic_closure_map(f)).compose(wb)
                rhs = wa.compose(interval_closure_map(O_on_map(f)))
                assert lhs == rhs


# ---------------------------------------------------------------- cyclic dual


def test_cyclic_dual_of_rotation_is_inverse_rotation():
    for n in range(0, 4):
        c = standard_cycle(n)
        t = rotation_map(c, 1)
        assert D_on_map(t) == cyc_inverse(t)
        assert D_on_map(identity_cyc_like(c)) == identity_cyc_like(c)


def identity_cyc_like(c):
    from segalspans.orders import identity_cyc

    return identity_cyc(c)


def _closure_witness_dual(f, start):
    # the documented construction: linearize the target at start, dualize
    # the induced monotone map on outer gaps, glue endpoints, and conjugate
    # by the closure witnesses
    lt = linear_from(f.dst, start)
    seq = tuple(itertools.chain.from_iterable(f.fiber(t) for t in lt.elements))
    ls = LinOrd(seq)
    f_lin = LinMap(ls, lt, tuple(t for t in lt.elements for _ in f.fiber(t)))
    return closure_square_witness(ls).compose(
        interval_closure_map(O_on_map(f_lin)).compose(
            cyc_inverse(closure_square_witness(lt))
        )
    )


def test_cyclic_dual_matches_closure_witness_construction():
    cycles = [standard_cycle(n) for n in range(4)]
    mixed = [CycOrd(("b", ("a", 1), "c")), CycOrd((("x",), "y", 3, ("z", (2,))))]
    pairs = list(itertools.product(cycles, repeat=2))
    pairs += list(itertools.product(mixed, repeat=2))
    checked = 0
    for src, dst in pairs:
        for f in all_cyc_maps(src, dst):
            for start in dst.cycle:
                got = D_on_map(f, start=start)
                want = _closure_witness_dual(f, start)
                assert got == want
                assert got.fibers == want.fibers
                checked += 1
    assert checked == 1301 + 1070


def test_cyclic_dual_lift_independent():
    for n, m in [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]:
        src, dst = standard_cycle(n), standard_cycle(m)
        for f in all_cyc_maps(src, dst):
            canonical = D_on_map(f)
            for start in dst.cycle:
                assert D_on_map(f, start=start) == canonical


def test_cyclic_dual_contravariant():
    c1, c2 = standard_cycle(1), standard_cycle(2)
    maps12 = list(all_cyc_maps(c1, c2))
    maps21 = list(all_cyc_maps(c2, c1))
    for f in maps12:
        for g in maps21:
            assert D_on_map(g.compose(f)) == D_on_map(f).compose(D_on_map(g))


def test_cyclic_dual_bijective_on_homsets():
    for n in range(0, 4):
        for m in range(0, 4):
            src, dst = standard_cycle(n), standard_cycle(m)
            forward = list(all_cyc_maps(src, dst))
            backward = list(all_cyc_maps(dst, src))
            image = {D_on_map(f) for f in forward}
            assert len(image) == len(forward) == len(backward)
            assert image == set(backward)


def test_double_dual_conjugate_by_witness():
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (0, 3), (3, 0)]:
        src, dst = standard_cycle(n), standard_cycle(m)
        # the witness steps each element one place backward
        ws, wd = rotation_map(src, -1), rotation_map(dst, -1)
        for f in all_cyc_maps(src, dst):
            assert D_on_map(D_on_map(f)).compose(ws) == wd.compose(f)


# ---------------------------------------------------------------- cut


def test_cut_objects():
    assert cut(1).points == (0,)
    assert cut(0).points == ()
    assert cut(3).points == (0, 1, 2)
    with pytest.raises(ValueError):
        cut(-1)


def test_pointed_set_basics():
    s = PointedSet((2, "a", 0))
    assert s.points == (0, 2, "a")
    assert len(s) == 3
    with pytest.raises(ValueError):
        PointedSet((1, 1))
    with pytest.raises(ValueError):
        PointedSet((BASE,))


# ---------------------------------------------------------------- res


def test_res_identity():
    ctx = IntervalContext(standard_order(3), 1, 3)
    r = res(IntervalContextMap(ctx, ctx, identity_lin(ctx.ambient)))
    assert r == identity_lin(inner_interstices(marked_order(ctx)))


def test_res_frozen_example():
    src = IntervalContext(standard_order(1), 0, 1)
    dst = IntervalContext(standard_order(2), 0, 2)
    m = IntervalContextMap(src, dst, LinMap(standard_order(1), standard_order(2), (0, 2)))
    r = res(m)
    assert r.src == inner_interstices(marked_order(dst))
    assert len(r.src) == 2 and len(r.dst) == 1
    assert r.images == (0, 0)


def test_res_degenerate_interval():
    src = IntervalContext(standard_order(2), 0, 2)
    dst = IntervalContext(standard_order(2), 1, 1)
    m = IntervalContextMap(src, dst, identity_lin(standard_order(2)))
    r = res(m)
    assert len(r.src) == 0 and len(r.dst) == 2


def test_context_map_condition_enforced():
    src = IntervalContext(standard_order(1), 0, 1)
    dst = IntervalContext(standard_order(2), 0, 2)
    with pytest.raises(ValueError):
        IntervalContextMap(src, dst, LinMap(standard_order(1), standard_order(2), (0, 1)))


def all_contexts(order):
    for i, lo in enumerate(order.elements):
        for hi in order.elements[i:]:
            yield IntervalContext(order, lo, hi)


def test_res_functorial_sampled(rng):
    ambients = [standard_order(n) for n in range(1, 5)]
    pool = []
    for sa, sb in itertools.product(ambients, repeat=2):
        for f in all_lin_maps(sa, sb):
            for cs in all_contexts(sa):
                for cd in all_contexts(sb):
                    try:
                        pool.append(IntervalContextMap(cs, cd, f))
                    except ValueError:
                        pass
    by_src = {}
    for m in pool:
        by_src.setdefault(m.src, []).append(m)
    checked = 0
    for _ in range(4000):
        m1 = rng.choice(pool)
        follow = by_src.get(m1.dst)
        if not follow:
            continue
        m2 = rng.choice(follow)
        m21 = IntervalContextMap(m1.src, m2.dst, m2.map.compose(m1.map))
        assert res(m21) == res(m1).compose(res(m2))
        checked += 1
    assert checked > 500
