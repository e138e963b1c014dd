import itertools
from math import comb

import pytest

from segalspans.dualities import D_on_map
from segalspans.labels import BOTTOM
from segalspans.orders import (
    CycMap,
    CycOrd,
    LinMap,
    LinOrd,
    all_cyc_maps,
    cyc_map_by,
    identity_cyc,
    rotation_map,
    standard_cycle,
    standard_order,
)

from reference_orders import (
    IntervalMap,
    all_interval_maps,
    all_lin_maps,
    between,
    bottom,
    cyc_inverse,
    imbrication,
    imbrication_map,
    ordinal_sum,
    ordinal_sum_many,
    linear_from,
    ordinal_sum_map,
    tag_order,
    top,
)


# ---------------------------------------------------------------- linear


def test_linord_basics():
    s = LinOrd((3, "a", (1, 2)))
    assert s.skeletal_rank == 2
    assert bottom(s) == 3 and top(s) == (1, 2)
    assert s.position("a") == 1
    assert list(s) == [3, "a", (1, 2)]


def test_empty_order_is_first_class():
    e = standard_order(-1)
    assert e.skeletal_rank == -1
    assert len(e) == 0
    with pytest.raises(ValueError):
        bottom(e)


def test_linord_rejects_duplicates_and_bools():
    with pytest.raises(ValueError):
        LinOrd((1, 1))
    with pytest.raises(TypeError):
        LinOrd((True, 2))


def test_between():
    s = standard_order(5)
    assert between(s, 1, 3).elements == (1, 2, 3)
    with pytest.raises(ValueError):
        between(s, 3, 1)


def test_linmap_validation_and_action():
    f = LinMap(standard_order(2), standard_order(2), (0, 0, 2))
    assert f(1) == 0
    assert f.fiber(0) == (0, 1)
    assert f.positions == (0, 0, 2)
    with pytest.raises(ValueError):
        LinMap(standard_order(1), standard_order(1), (1, 0))
    with pytest.raises(ValueError):
        LinMap(standard_order(1), standard_order(1), (0,))


def test_linmap_compose():
    f = LinMap(standard_order(1), standard_order(2), (0, 2))
    g = LinMap(standard_order(2), standard_order(1), (0, 1, 1))
    assert g.compose(f).images == (0, 1)


def test_all_lin_maps_count_matches_binomial():
    for a in range(-1, 4):
        for b in range(-1, 4):
            n = sum(1 for _ in all_lin_maps(standard_order(a), standard_order(b)))
            if a == -1:
                assert n == 1
            elif b == -1:
                assert n == 0
            else:
                assert n == comb(a + b + 1, a + 1)


def test_interval_map_requires_endpoints():
    f = LinMap(standard_order(1), standard_order(2), (0, 2))
    assert IntervalMap(f)(0) == 0
    with pytest.raises(ValueError):
        IntervalMap(LinMap(standard_order(1), standard_order(2), (0, 1)))
    n = sum(1 for _ in all_interval_maps(standard_order(2), standard_order(2)))
    # endpoint-preserving [2] -> [2]: middle goes anywhere
    assert n == 3


# ---------------------------------------------------------------- sums


def test_ordinal_sum_examples():
    assert ordinal_sum(standard_order(1), tag_order("t", standard_order(0))).skeletal_rank == 2
    assert ordinal_sum(standard_order(-1), standard_order(3)) == standard_order(3)
    s = ordinal_sum(LinOrd((0,)), LinOrd((1,)))
    assert s.elements == (0, 1)
    with pytest.raises(ValueError):
        ordinal_sum(standard_order(2), standard_order(0))


def test_imbrication_examples():
    a = LinOrd((0, 1))
    b = LinOrd((1, 2))
    assert imbrication(a, b).elements == (0, 1, 2)
    assert imbrication(LinOrd((0,)), LinOrd((0, 1, 2, 3))).skeletal_rank == 3
    assert imbrication(standard_order(2), LinOrd((2, 3))).skeletal_rank == 3
    with pytest.raises(ValueError):
        imbrication(standard_order(-1), a)
    with pytest.raises(ValueError):
        imbrication(LinOrd((0, 1)), LinOrd((5, 1)))


def test_imbrication_drops_min_label_of_second_factor():
    out = imbrication(LinOrd(("x", "y")), LinOrd(("z", "w")))
    assert out.elements == ("x", "y", "w")


def test_sum_and_join_associative_and_unital():
    for p, q, r in itertools.product(range(0, 7), repeat=3):
        s = tag_order("a", standard_order(p - 1))
        t = tag_order("b", standard_order(q - 1))
        u = tag_order("c", standard_order(r - 1))
        lhs = ordinal_sum(ordinal_sum(s, t), u)
        rhs = ordinal_sum(s, ordinal_sum(t, u))
        assert lhs == rhs == ordinal_sum_many([s, t, u])
        if p and q and r:
            assert imbrication(imbrication(s, t), u) == imbrication(s, imbrication(t, u))
            assert len(imbrication(s, t)) == p + q - 1
    e = standard_order(-1)
    x = tag_order("x", standard_order(2))
    assert ordinal_sum(e, x) == ordinal_sum(x, e) == x
    pt = LinOrd((bottom(x),))
    assert imbrication(pt, x) == x
    assert imbrication(x, LinOrd((top(x),))) == x


def test_ordinal_sum_map_and_imbrication_map():
    f = LinMap(standard_order(1), standard_order(1), (0, 0))
    g = LinMap(tag_order("t", standard_order(0)), tag_order("t", standard_order(1)), (("t", 1),))
    sf = ordinal_sum_map(f, g)
    assert sf.images == (0, 0, ("t", 1))
    a = LinMap(standard_order(1), standard_order(1), (0, 1))
    b = LinMap(LinOrd((1, 2)), LinOrd((1, 2)), (1, 2))
    j = imbrication_map(a, b)
    assert j.src.elements == (0, 1, 2)
    assert j.images == (0, 1, 2)


# ---------------------------------------------------------------- cyclic


def test_cycord_canonical_rotation():
    assert CycOrd((2, 0, 1)) == CycOrd((0, 1, 2)) == standard_cycle(2)
    assert CycOrd(("b", "a")).cycle == ("a", "b")
    with pytest.raises(ValueError):
        CycOrd(())
    with pytest.raises(ValueError):
        CycOrd((0, 0))


def test_cycord_linear_from():
    c = standard_cycle(3)
    assert linear_from(c, 2).elements == (2, 3, 0, 1)


def test_cycmap_validation():
    c2, c1 = standard_cycle(2), standard_cycle(1)
    m = CycMap(c2, c1, ((0, (0, 1)), (1, (2,))))
    assert m(1) == 0 and m.fiber(1) == (2,)
    # fiber orders reversed against the source cycle
    with pytest.raises(ValueError):
        CycMap(c2, c1, ((0, (1, 0)), (1, (2,))))
    # missing fiber key
    with pytest.raises(ValueError):
        CycMap(c2, c1, ((0, (0, 1, 2)),))
    # element listed twice
    with pytest.raises(ValueError):
        CycMap(c2, c1, ((0, (0, 1)), (1, (1,))))


def _c3_to_c2(fibers, src=(0, 1, 2), dst=(0, 1)):
    return CycMap(CycOrd(src), CycOrd(dst), fibers)


# (case, constructor call, exception type, exact message)
MALFORMED_CYCLIC = [
    ("empty cycle", lambda: CycOrd(()), ValueError, "cyclic orders are nonempty"),
    ("repeated label", lambda: CycOrd((0, 1, 0)), ValueError,
     "repeated label in cyclic order: (0, 1, 0)"),
    ("bool label", lambda: CycOrd((0, True)), TypeError, "bool labels are not supported"),
    ("nested bool label", lambda: CycOrd((0, (True,))), TypeError,
     "bool labels are not supported"),
    ("bool fiber key", lambda: _c3_to_c2(((0, (0,)), (True, (1, 2)))), TypeError,
     "bool labels are not supported"),
    ("nested bool fiber key",
     lambda: _c3_to_c2(((0, (0,)), ((True,), (1, 2))), dst=(0, (1,))), TypeError,
     "bool labels are not supported"),
    ("bool fiber element", lambda: _c3_to_c2(((0, (0, True)), (1, (2,)))), TypeError,
     "bool labels are not supported"),
    ("nested bool fiber element",
     lambda: _c3_to_c2(((0, (0, (True,))), (1, (2,))), src=(0, (1,), 2)), TypeError,
     "bool labels are not supported"),
    ("duplicate fiber key", lambda: _c3_to_c2(((0, (0,)), (0, (1,)), (1, (2,)))),
     ValueError, "duplicate fiber key"),
    ("missing target key", lambda: _c3_to_c2(((0, (0, 1, 2)),)), ValueError,
     "fibers must be indexed by the whole target"),
    ("source element missing", lambda: _c3_to_c2(((0, (0,)), (1, (1,)))), ValueError,
     "fibers do not partition the source"),
    ("source element duplicated", lambda: _c3_to_c2(((0, (0, 1)), (1, (1, 2)))),
     ValueError, "fibers do not partition the source"),
    ("extra element", lambda: _c3_to_c2(((0, (0, 1)), (1, (2, 3)))), ValueError,
     "fibers do not partition the source"),
    ("wrong rotation", lambda: _c3_to_c2(((0, (0, 2)), (1, (1,)))), ValueError,
     "fiber orders do not induce the source cycle"),
    ("dual of a cycle with BOTTOM", lambda: D_on_map(identity_cyc(CycOrd((BOTTOM, 0)))),
     ValueError, "order already carries the outer gap sentinel"),
    ("dual of a map out of a cycle with BOTTOM",
     lambda: D_on_map(CycMap(CycOrd((BOTTOM, 0)), standard_cycle(0), ((0, (BOTTOM, 0)),))),
     ValueError, "order already carries the outer gap sentinel"),
]


@pytest.mark.parametrize(
    "build, exc, message",
    [case[1:] for case in MALFORMED_CYCLIC],
    ids=[case[0] for case in MALFORMED_CYCLIC],
)
def test_cyclic_constructors_reject_malformed_input(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_cycmap_fibers_follow_target_label_order():
    src = CycOrd(("x", "y", 3, (1,), "z"))
    dst = CycOrd(("b", 2, (0, "a"), 1))
    assert src.cycle == (3, (1,), "z", "x", "y")
    assert dst.cycle == (1, "b", 2, (0, "a"))
    m = CycMap(src, dst, ((1, (3,)), ("b", ((1,), "z")), (2, ()), ((0, "a"), ("x", "y"))))
    assert m.fibers == ((1, (3,)), (2, ()), ("b", ((1,), "z")), ((0, "a"), ("x", "y")))


def test_cycord_caches_leave_equality_and_hash_alone():
    used = CycOrd(("b", 2, (0, "a"), 1))
    assert used.carrier == frozenset((1, "b", 2, (0, "a")))
    identity_cyc(used)
    fresh = CycOrd(("b", 2, (0, "a"), 1))
    assert used.__dict__["_by_key"] == (1, 2, "b", (0, "a"))
    assert "_by_key" not in fresh.__dict__
    assert used == fresh and hash(used) == hash(fresh)
    assert len({used, fresh}) == 1
    assert identity_cyc(used) == identity_cyc(fresh)


def test_cycmap_counts_match_cyclic_category():
    for n in range(0, 4):
        for m in range(0, 4):
            got = sum(1 for _ in all_cyc_maps(standard_cycle(n), standard_cycle(m)))
            assert got == (n + 1) * comb(n + m + 1, n + 1)


def _filtered_cyc_maps(src, dst):
    """Reference enumerator: try every assignment and every start, keep
    the valid maps as a set."""
    found = set()
    n = len(src)
    for values in itertools.product(dst.cycle, repeat=n):
        assign = dict(zip(src.cycle, values))
        for start in range(n):
            fibers = {d: [] for d in dst.cycle}
            for x in src.cycle[start:] + src.cycle[:start]:
                fibers[assign[x]].append(x)
            try:
                m = CycMap(src, dst, tuple((d, tuple(f)) for d, f in fibers.items()))
            except ValueError:
                continue
            found.add(m)
    return found


def test_all_cyc_maps_matches_filtered_reference():
    # a glued block cycle: a rank-1 block "a", then a rank-0 block "b"
    glued = CycOrd((("a", 0), ("a", 1), ("b", 0)))
    pairs = [
        (standard_cycle(n), standard_cycle(m)) for n in range(4) for m in range(4)
    ]
    pairs += [(glued, standard_cycle(2)), (standard_cycle(2), glued), (glued, glued)]
    for src, dst in pairs:
        got = list(all_cyc_maps(src, dst))
        assert len(set(got)) == len(got), (src, dst)
        assert set(got) == _filtered_cyc_maps(src, dst), (src, dst)


def test_cycmap_identity_and_rotations():
    c = standard_cycle(3)
    ident = identity_cyc(c)
    r = rotation_map(c, 1)
    assert r.compose(cyc_inverse(r)) == ident
    assert rotation_map(c, 4) == ident
    assert rotation_map(c, -1) == cyc_inverse(r)
    for n in range(0, 4):
        cc = standard_cycle(n)
        for f in all_cyc_maps(cc, standard_cycle(1)):
            assert f.compose(identity_cyc(cc)) == f
            assert identity_cyc(f.dst).compose(f) == f


def test_cycmap_composition_associative_small_ranks():
    cycles = [standard_cycle(n) for n in range(0, 3)]
    maps = {}
    for a in cycles:
        for b in cycles:
            maps[(a, b)] = list(all_cyc_maps(a, b))
    for a, b, c, d in itertools.product(cycles, repeat=4):
        for f in maps[(a, b)]:
            for g in maps[(b, c)]:
                gf = g.compose(f)
                for h in maps[(c, d)]:
                    assert h.compose(gf) == h.compose(g).compose(f)


def test_cycmap_composition_associative_sampled_rank3(rng):
    c3 = standard_cycle(3)
    pool = list(all_cyc_maps(c3, c3))
    for _ in range(200):
        f, g, h = (rng.choice(pool) for _ in range(3))
        assert h.compose(g.compose(f)) == h.compose(g).compose(f)


def test_cyc_map_by_recovers_fiber_orders():
    c3, c1 = standard_cycle(3), standard_cycle(1)
    m = cyc_map_by(c3, c1, lambda x: 0 if x in (1, 2) else 1)
    assert m.fiber(0) == (1, 2)
    assert m.fiber(1) == (3, 0)
    const = cyc_map_by(c3, c1, lambda x: 0, fiber_start=2)
    assert const.fiber(0) == (2, 3, 0, 1)
    with pytest.raises(ValueError):
        cyc_map_by(c3, c1, lambda x: 0)


def test_composites_equal_the_validating_constructor():
    # compose skips validation, so it must store exactly what the
    # validating constructor stores for the same map
    cycles = [standard_cycle(n) for n in range(4)]
    maps = {(a, b): list(all_cyc_maps(a, b)) for a in cycles for b in cycles}
    checked = 0
    for a, b, c in itertools.product(cycles, repeat=3):
        for f in maps[(a, b)]:
            for g in maps[(b, c)]:
                got = g.compose(f)
                # listed backwards, for the constructor to put in order
                fibers = tuple(
                    (d, tuple(x for m in g.fiber(d) for x in f.fiber(m)))
                    for d in reversed(c.cycle)
                )
                want = CycMap(a, c, fibers)
                assert got == want and got.fibers == want.fibers
                assert hash(got) == hash(want)
                checked += 1
    assert checked == 62901
    orders = [standard_order(n) for n in range(-1, 4)]
    for a, b, c in itertools.product(orders, repeat=3):
        for f in all_lin_maps(a, b):
            for g in all_lin_maps(b, c):
                got = g.compose(f)
                want = LinMap(a, c, tuple(g(f(x)) for x in a.elements))
                assert got == want and got.images == want.images
                assert type(got.images) is tuple
