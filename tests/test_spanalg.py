import itertools

import pytest

from segalspans.generators import (
    cyclic_group_table,
    flag_decomposition,
    min_monoid_table,
    nerve_of_monoid,
)
from segalspans.orders import LinMap, standard_order
from segalspans.segal import check_1segal, check_2segal
from segalspans.sobj import apply_delta_op
from segalspans.spanalg import (
    DeltaStarMor,
    DeltaStarObj,
    StarFunctor,
    all_delta_star_mors,
    assembly_mor,
    check_algebra_conditions,
    check_associativity,
    identity_star,
    multiplication_span,
    projection_mor,
    single_interval_mor,
    unit_span,
)

from test_segal import drop_top_simplex

Z2 = cyclic_group_table(2)


def test_obj_validation():
    assert len(DeltaStarObj((2, 1))) == 2
    with pytest.raises(ValueError):
        DeltaStarObj(())
    with pytest.raises(ValueError):
        DeltaStarObj((1, -1))


def test_identity_and_basic_mors():
    obj = DeltaStarObj((2, 1))
    ident = identity_star(obj)
    assert ident.compose(ident) == ident
    asm = assembly_mor(3, (2, 1))
    assert asm.blocks == ((0, (0, 1, 2)), (0, (2, 3)))
    proj = projection_mor(obj, 1)
    assert proj.blocks == ((1, (0, 1)),)


def test_mor_validation_rules():
    src = DeltaStarObj((2, 1, 2))
    dst = DeltaStarObj((1,))
    # skipping the middle slot of nonzero rank is forbidden when both
    # outer slots are hit
    with pytest.raises(ValueError):
        DeltaStarMor(
            DeltaStarObj((1, 2, 1)),
            DeltaStarObj((1, 1)),
            ((0, (0, 1)), (2, (0, 1))),
        )
    # fine when the skipped slot has rank zero
    DeltaStarMor(
        DeltaStarObj((1, 0, 1)),
        DeltaStarObj((1, 1)),
        ((0, (0, 1)), (2, (0, 1))),
    )
    # boundary-hitting: a later hit slot forces the earlier block to end
    # at the top of its interval
    with pytest.raises(ValueError):
        DeltaStarMor(
            DeltaStarObj((2, 1)),
            DeltaStarObj((1, 1)),
            ((0, (0, 1)), (1, (0, 1))),
        )
    DeltaStarMor(
        DeltaStarObj((2, 1)),
        DeltaStarObj((1, 1)),
        ((0, (0, 2)), (1, (0, 1))),
    )


D = DeltaStarObj

# one input per ValueError branch of the tuple constructors, with the
# exact message it must raise
MALFORMED_TUPLES = [
    ("uncovered target slot",
     lambda: DeltaStarMor(D((1,)), D((1, 1)), ((0, (0, 1)),)),
     "need one block per target slot"),
    ("source slot out of range",
     lambda: DeltaStarMor(D((1,)), D((1,)), ((1, (0, 1)),)),
     "block at 0 reads source slot 1, out of range"),
    ("index map not monotone",
     lambda: DeltaStarMor(D((1, 1)), D((1, 1)), ((1, (0, 1)), (0, (0, 1)))),
     "source slots must be monotone"),
    ("block of the wrong length",
     lambda: DeltaStarMor(D((2,)), D((1,)), ((0, (0, 1, 2)),)),
     "block at 0 has 3 vertices, not 2"),
    ("vertex out of range",
     lambda: DeltaStarMor(D((2,)), D((1,)), ((0, (0, 3)),)),
     "block at 0 leaves the interval [2]"),
    ("block not monotone",
     lambda: DeltaStarMor(D((2,)), D((1,)), ((0, (2, 1)),)),
     "block at 0 is not monotone"),
    ("junction mismatch",
     lambda: DeltaStarMor(D((2,)), D((1, 1)), ((0, (0, 1)), (0, (2, 2)))),
     "blocks at 0 and 1 must share their junction"),
    ("block short of the top before a later fiber",
     lambda: DeltaStarMor(D((2, 1)), D((1, 1)), ((0, (0, 1)), (1, (0, 1)))),
     "block at 0 must end at the top of slot 0"),
    ("block above the bottom after an earlier fiber",
     lambda: DeltaStarMor(D((2, 1)), D((1, 1)), ((0, (0, 2)), (1, (1, 1)))),
     "block at 1 must start at the bottom of slot 1"),
    ("skipped interior slot of positive rank",
     lambda: DeltaStarMor(D((1, 2, 1)), D((1, 1)), ((0, (0, 1)), (2, (0, 1)))),
     "skipped interior slot 1 must have rank 0"),
    ("float vertex",
     lambda: DeltaStarMor(D((2,)), D((1,)), ((0, (0.5, 1)),)),
     "block at 0 has vertex 0.5, not an int"),
    ("bool vertex",
     lambda: DeltaStarMor(D((1,)), D((1,)), ((0, (0, True)),)),
     "block at 0 has vertex True, not an int"),
    ("float source slot",
     lambda: DeltaStarMor(D((1,)), D((1,)), ((0.0, (0, 1)),)),
     "block at 0 names source slot 0.0, not an int"),
    ("bool source slot",
     lambda: DeltaStarMor(D((1, 1)), D((1,)), ((True, (0, 1)),)),
     "block at 0 names source slot True, not an int"),
    ("empty tuple", lambda: D(()), "tuple objects are nonempty"),
    ("negative rank", lambda: D((1, -1)), "rank -1 is negative"),
    ("float rank", lambda: D((1.7, True)), "rank 1.7 is not an int"),
    ("bool rank", lambda: D((1, True)), "rank True is not an int"),
    ("str rank", lambda: D(("2",)), "rank '2' is not an int"),
]


@pytest.mark.parametrize(
    "build, message", [c[1:] for c in MALFORMED_TUPLES], ids=[c[0] for c in MALFORMED_TUPLES]
)
def test_malformed_tuple_input_raises(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_valid_tuple_objects_print_as_before():
    assert repr(D((2, 0, 1))) == "DeltaStarObj(ranks=(2, 0, 1))"
    assert D([1, 2]) == D((1, 2))


def test_enumeration_counts():
    # single intervals: plain monotone map counts
    assert len(all_delta_star_mors(DeltaStarObj((2,)), DeltaStarObj((2,)))) == 10
    assert len(all_delta_star_mors(DeltaStarObj((2,)), DeltaStarObj((1, 1)))) == 10
    # either projection slot, then any dual map of the interval
    assert len(all_delta_star_mors(DeltaStarObj((1, 1)), DeltaStarObj((2,)))) == 8


_UNIVERSE = [DeltaStarObj((1,)), DeltaStarObj((2,)), DeltaStarObj((1, 1))]


def test_composition_associative_exhaustive_small():
    homs = {
        (i, j): all_delta_star_mors(a, b)
        for i, a in enumerate(_UNIVERSE)
        for j, b in enumerate(_UNIVERSE)
    }
    count = 0
    for i, j, k in itertools.product(range(len(_UNIVERSE)), repeat=3):
        for f in homs[(i, j)][:6]:
            for g in homs[(j, k)][:6]:
                for l in range(len(_UNIVERSE)):
                    for h in homs[(k, l)][:4]:
                        assert h.compose(g).compose(f) == h.compose(g.compose(f))
                        count += 1
    assert count > 2000


def test_functor_value_sizes():
    f = StarFunctor(nerve_of_monoid(Z2, 3))
    assert len(f.value(DeltaStarObj((2, 1, 2)))) == 32
    assert len(f.value(DeltaStarObj((3,)))) == 8
    with pytest.raises(ValueError):
        f.value(DeltaStarObj((4,)))


def glued_encoding(mor):
    """A tuple morphism in the glued encoding: the index map, and for
    each hit source slot the monotone map from the end-to-end gluing of
    the target intervals over it, consecutive blocks sharing their
    junction vertex.  Rebuilt here from the blocks as a reference."""
    phi = tuple(i for i, _ in mor.blocks)
    glued = {}
    for i, verts in mor.blocks:
        glued[i] = glued[i] + verts[1:] if i in glued else verts
    return phi, tuple(sorted(glued.items()))


def _glued_offset(phi, ranks, t):
    # where target slot t starts inside the gluing over its source slot
    return sum(ranks[u] for u in range(t) if phi[u] == phi[t])


def glued_compose(g, f, mid_ranks):
    """g after f on glued encodings, by the glued composition formula;
    mid_ranks are the ranks of the middle tuple."""
    (phi_g, comps_g), (phi_f, comps_f) = g, f
    comps_g, comps_f = dict(comps_g), dict(comps_f)
    phi = tuple(phi_f[j] for j in phi_g)
    comps = []
    for i in sorted(set(phi)):
        images = []
        for j in (j for j, p in enumerate(phi_f) if p == i and j in comps_g):
            block = [v + _glued_offset(phi_f, mid_ranks, j) for v in comps_g[j]]
            # consecutive blocks share their junction position
            images.extend(block[1:] if images else block)
        comps.append((i, tuple(comps_f[i][v] for v in images)))
    return phi, tuple(comps)


def _star_action_per_element(f, mor):
    """Reference action of a tuple morphism, one source tuple at a time.

    Target slot t reads source slot i through the glued map of slot i
    after the inclusion of t's block into the gluing.
    """
    phi, comps = glued_encoding(mor)
    comps = dict(comps)
    slot_maps = []
    for t, i in enumerate(phi):
        rank = mor.dst.ranks[t]
        glued_sum = standard_order(len(comps[i]) - 1)
        glued = LinMap(glued_sum, standard_order(mor.src.ranks[i]), comps[i])
        off = _glued_offset(phi, mor.dst.ranks, t)
        block = LinMap(standard_order(rank), glued_sum, tuple(range(off, off + rank + 1)))
        slot_maps.append((i, apply_delta_op(f.x, glued.compose(block))))
    return tuple(
        tuple(m(tup[i]) for i, m in slot_maps) for tup in f.value(mor.src)
    )


def test_block_composition_matches_glued_composition():
    """Composing blocks gives the morphism the glued formula gives, on
    every composable pair among small tuples."""
    objs = _UNIVERSE + [DeltaStarObj((2, 1)), DeltaStarObj((1, 0, 1))]
    homs = {(a, b): all_delta_star_mors(a, b) for a in objs for b in objs}
    pairs = 0
    for a, b, c in itertools.product(objs, repeat=3):
        for f in homs[(a, b)]:
            glued_f = glued_encoding(f)
            for g in homs[(b, c)]:
                want = glued_compose(glued_encoding(g), glued_f, b.ranks)
                assert glued_encoding(g.compose(f)) == want
                pairs += 1
    assert pairs == 22799


def test_functor_respects_composition_exhaustive():
    f = StarFunctor(nerve_of_monoid(Z2, 3))
    for a, b in itertools.product(_UNIVERSE, repeat=2):
        for mu in all_delta_star_mors(a, b):
            assert f.action(mu).assignment == _star_action_per_element(f, mu)
        for c in _UNIVERSE:
            for mu in all_delta_star_mors(a, b):
                for nu in all_delta_star_mors(b, c):
                    lhs = f.action(nu.compose(mu))
                    rhs = f.action(nu).compose(f.action(mu))
                    assert lhs.assignment == rhs.assignment


def test_functor_identity_action():
    f = StarFunctor(nerve_of_monoid(Z2, 3))
    obj = DeltaStarObj((2, 1))
    act = f.action(identity_star(obj))
    assert act.assignment == f.value(obj).elements


def test_single_interval_action_is_structure_map():
    x = nerve_of_monoid(Z2, 3)
    f = StarFunctor(x)
    mor = single_interval_mor(2, 1, (0, 2))
    act = f.action(mor)
    # the long edge of a 2-simplex is its inner face
    for (e,) in f.value(DeltaStarObj((2,))).elements:
        assert act((e,)) == (x.face(2, 1)(e),)


def test_algebra_conditions_on_corpus():
    for x in (
        nerve_of_monoid(Z2, 4),
        nerve_of_monoid(min_monoid_table(3), 4, unit=2),
        flag_decomposition(2, 4),
    ):
        assert check_algebra_conditions(x).ok


def test_algebra_conditions_match_2segal_verdict():
    good = nerve_of_monoid(Z2, 3)
    bad = drop_top_simplex(good, (1, 1, 1))
    for x in (good, bad):
        assert check_algebra_conditions(x).ok == check_2segal(x).ok
    rep = check_algebra_conditions(bad)
    assert any(f.check == "reduced-square" for f in rep.findings)


def test_multiplication_left_leg_vs_1segal():
    for x in (nerve_of_monoid(Z2, 3), flag_decomposition(2, 3)):
        mu = multiplication_span(x)
        spine_ok = check_1segal(x).ok
        assert mu.left_leg.is_bijection() == spine_ok


def test_unit_span_is_equivalence_iff_x0_matches_x1_units():
    x = nerve_of_monoid(Z2, 3)
    u = unit_span(x)
    assert len(u.apex) == 1
    assert u.right_leg((())) == (0,)


def test_associativity_and_units_on_corpus():
    for x in (
        nerve_of_monoid(Z2, 3),
        nerve_of_monoid(min_monoid_table(2), 3, unit=1),
        flag_decomposition(2, 3),
    ):
        assert check_associativity(x).ok


def test_associativity_fails_on_corrupted_object():
    bad = drop_top_simplex(nerve_of_monoid(Z2, 3), (1, 1, 1))
    rep = check_associativity(bad)
    assert not rep.ok
    assert {f.check for f in rep.findings} & {"assoc-left", "assoc-right"}


def test_three_way_equivalence_on_corpus():
    objs = [
        nerve_of_monoid(Z2, 3),
        flag_decomposition(2, 3),
        drop_top_simplex(nerve_of_monoid(Z2, 3), (1, 1, 1)),
    ]
    for x in objs:
        a = check_2segal(x).ok
        b = check_algebra_conditions(x).ok
        c = check_associativity(x).ok
        assert a == b == c
