import itertools
from collections import Counter

import pytest

from segalspans.finset import (
    FinDiagram,
    FinMap,
    FinSet,
    Span,
    big_product,
    compose_spans,
    constant_map,
    fin_map_by,
    gather_positions,
    identity_fin,
    identity_span,
    limit,
    product_carrier,
    product_label,
    product_strides,
    pullback,
    reverse_span,
    span_from_maps,
    spans_isomorphic,
    tensor_spans,
    terminal_map,
    terminal_set,
    tupled_values,
)
from segalspans.labels import label_key


def test_finset_canonical_order_and_dedup():
    s = FinSet((3, 1, 2))
    assert s.elements == (1, 2, 3)
    with pytest.raises(ValueError):
        FinSet((1, 1))


def test_finmap_validation_and_compose():
    a = FinSet(("x", "y"))
    b = FinSet((0, 1, 2))
    f = FinMap(a, b, (0, 2))
    assert f("x") == 0 and f("y") == 2
    g = fin_map_by(b, a, lambda n: "x" if n < 2 else "y")
    assert g.compose(f).assignment == ("x", "y")
    with pytest.raises(ValueError):
        FinMap(a, b, (0, 7))
    with pytest.raises(ValueError):
        FinMap(a, b, (0,))
    # the first bad image, in source order, is the one named
    with pytest.raises(ValueError, match="image 7 not in codomain"):
        FinMap(b, b, (7, 0, 9))


def test_pullback_elements_and_projections():
    a = FinSet((0, 1, 2, 3))
    b = FinSet(("u", "v"))
    c = FinSet(("p", "q"))
    f = fin_map_by(a, c, lambda n: "p" if n % 2 == 0 else "q")
    g = FinMap(b, c, ("p", "q"))
    p, p1, p2 = pullback(f, g)
    assert p.elements == ((0, "u"), (1, "v"), (2, "u"), (3, "v"))
    for ab in p:
        assert f(p1(ab)) == g(p2(ab))
    for q, q1, q2, src1, src2 in (
        (p, p1, p2, a, b),
        pullback(FinMap(FinSet(()), c, ()), g) + (FinSet(()), b),
    ):
        assert (q1.src, q1.dst, q2.src, q2.dst) == (q, src1, q, src2)
        assert q1.assignment == tuple(x for x, _ in q.elements)
        assert q2.assignment == tuple(y for _, y in q.elements)


def _cones_satisfying(f, g, size):
    """All cones (h1: Z -> src f, h2: Z -> src g) with f h1 == g h2, |Z| == size."""
    z = FinSet(tuple(range(size)))
    out = []
    for im1 in itertools.product(f.src.elements, repeat=size):
        for im2 in itertools.product(g.src.elements, repeat=size):
            if all(f(x) == g(y) for x, y in zip(im1, im2)):
                out.append((z, FinMap(z, f.src, im1), FinMap(z, g.src, im2)))
    return out


def test_pullback_universal_property_small():
    # every cone factors uniquely through the pullback
    a = FinSet((0, 1, 2))
    b = FinSet((0, 1))
    c = FinSet(("p", "q"))
    f = FinMap(a, c, ("p", "q", "p"))
    g = FinMap(b, c, ("p", "q"))
    p, p1, p2 = pullback(f, g)
    for size in (1, 2, 3):
        for z, h1, h2 in _cones_satisfying(f, g, size):
            factorings = [
                u
                for images in itertools.product(p.elements, repeat=size)
                for u in [FinMap(z, p, images)]
                if p1.compose(u).assignment == h1.assignment
                and p2.compose(u).assignment == h2.assignment
            ]
            assert len(factorings) == 1


def test_big_product_projections():
    a = FinSet((0, 1))
    b = FinSet(("x", "y", "z"))
    for sets in ([a, b], [b, a, b], [a, FinSet(()), b], [a], []):
        p, projs = big_product(sets)
        assert p == product_carrier(sets)
        assert len(p) == len(list(itertools.product(*sets)))
        assert len(projs) == len(sets)
        for i, (s, proj) in enumerate(zip(sets, projs)):
            assert (proj.src, proj.dst) == (p, s)
            assert proj.assignment == tuple(t[i] for t in p.elements)


def test_product_positions_decode_and_gather():
    a = FinSet((0, 1))
    b = FinSet(("x", "y", "z"))
    one = FinSet(((),))
    for sets in ([a, b], [b, one, a], [a, FinSet(()), b], [one], [a], []):
        p = product_carrier(sets)
        strides = product_strides([len(s) for s in sets])
        for k, t in enumerate(p.elements):
            assert product_label(sets, k) == t
            assert sum(s.elements.index(v) * w for s, v, w in zip(sets, t, strides)) == k
        # the gather agrees with the slotwise map t -> (m[t[i]] for i, m in
        # slots), for slot maps in order, reversed and read twice, and none
        tagged = tuple(
            (i, {x: (i, x) for x in s.elements}) for i, s in enumerate(sets)
        )
        for slots in ((), tagged, tagged[::-1] * 2):
            dst_sets = [FinSet(tuple(m.values())) for _, m in slots]
            dst = product_carrier(dst_sets)
            reads = [
                (i, [d.elements.index(m[x]) for x in sets[i].elements])
                for (i, m), d in zip(slots, dst_sets)
            ]
            sizes = [len(s) for s in sets]
            got = gather_positions(sizes, reads, [len(d) for d in dst_sets])
            assert [dst.elements[q] for q in got] == [
                tuple(m[t[i]] for i, m in slots) for t in p.elements
            ]


def test_tupled_values_rows_and_source_check():
    a = FinSet((2, 0, "x"))
    f = FinMap(a, FinSet((0, 1)), (1, 0, 1))
    g = FinMap(a, FinSet(("u", "v")), ("u", "u", "v"))
    assert tupled_values(a, (f, g, f)) == [(f(e), g(e), f(e)) for e in a]
    assert tupled_values(a, ()) == [(), (), ()]
    assert tupled_values(FinSet(()), (constant_map(FinSet(()), a, 0),)) == []
    with pytest.raises(AssertionError):
        tupled_values(FinSet((0, 2)), (f,))


def test_limit_empty_diagram_is_terminal():
    obj, projs = limit(FinDiagram((), ()))
    assert obj.elements == ((),)
    assert projs == {}


def test_limit_discrete_diagram_is_product():
    a = FinSet((0, 1))
    b = FinSet(("x", "y", "z"))
    obj, projs = limit(FinDiagram((("a", a), ("b", b)), ()))
    assert len(obj) == 6
    prod, _ = big_product([a, b])
    assert {(projs["a"](e), projs["b"](e)) for e in obj} == set(prod.elements)


def test_limit_cospan_matches_pullback():
    a = FinSet((0, 1, 2, 3))
    b = FinSet(("u", "v"))
    c = FinSet(("p", "q"))
    f = fin_map_by(a, c, lambda n: "p" if n % 2 == 0 else "q")
    g = FinMap(b, c, ("p", "q"))
    p, _, _ = pullback(f, g)
    obj, projs = limit(
        FinDiagram(
            (("a", a), ("b", b), ("c", c)),
            (("a", "c", f), ("b", "c", g)),
        )
    )
    assert len(obj) == len(p)
    assert {(projs["a"](e), projs["b"](e)) for e in obj} == set(p.elements)


def test_limit_prunes_with_parallel_arrows():
    a = FinSet((0, 1))
    f = identity_fin(a)
    g = FinMap(a, a, (1, 0))
    # equalizer-style diagram: both arrows must agree, which never happens
    obj, _ = limit(FinDiagram((("a", a), ("b", a)), (("a", "b", f), ("a", "b", g))))
    assert len(obj) == 0


# node names and element labels of mixed types, listed out of label order
LIMIT_NAMES = ("q", 3, ("r", 2), 0, "p", (1,))
LIMIT_LABELS = ((1, "a"), "b", 2, ((),), 0, "a", (0,), 1)


def _random_limit_diagram(rng):
    """A diagram on 1-4 nodes with 0-6 arrows between random endpoints.

    Nodes hold 0-3 labels, at most one node being empty.  Each arrow
    maps a hidden row's value at its source to the row's value at its
    target and is random elsewhere, so the hidden row is in the limit.
    """
    names = rng.sample(LIMIT_NAMES, rng.randint(1, 4))
    empty = rng.choice(names + [None] * 3)
    sets = {
        n: FinSet(rng.sample(LIMIT_LABELS, 0 if n == empty else rng.randint(1, 3)))
        for n in names
    }
    hidden = {n: rng.choice(sets[n].elements) for n in names if n != empty}
    arrows = []
    for _ in range(rng.randint(0, 6)):
        s = rng.choice(names)
        # only an empty node maps into an empty node
        d = rng.choice([n for n in names if len(sets[n]) or n == s == empty])
        images = [rng.choice(sets[d].elements) for _ in sets[s].elements]
        if s in hidden and d in hidden:
            images[sets[s].elements.index(hidden[s])] = hidden[d]
        arrows.append((s, d, FinMap(sets[s], sets[d], tuple(images))))
    return FinDiagram(tuple(sets.items()), tuple(arrows))


def test_limit_matches_filtered_product(rng):
    seen = Counter()
    for _ in range(400):
        diag = _random_limit_diagram(rng)
        byname = dict(diag.nodes)
        names = sorted(byname, key=label_key)
        col = {n: i for i, n in enumerate(names)}
        reference = [
            t
            for t in itertools.product(*(byname[n].elements for n in names))
            if all(m(t[col[s]]) == t[col[d]] for s, d, m in diag.arrows)
        ]
        obj, projs = limit(diag)
        assert obj.elements == FinSet(tuple(reference)).elements
        assert set(projs) == set(names)
        for n in names:
            assert projs[n].src == obj and projs[n].dst == byname[n]
            assert projs[n].assignment == tuple(t[col[n]] for t in obj.elements)
        links = Counter(frozenset((s, d)) for s, d, _ in diag.arrows)
        directed = Counter((s, d) for s, d, _ in diag.arrows)
        linked = {n for s, d, _ in diag.arrows for n in (s, d)}
        seen["self-loop"] += any(s == d for s, d, _ in diag.arrows)
        seen["parallel"] += any(k > 1 for k in directed.values())
        seen["both ways"] += any(
            (d, s) in directed for s, d in directed if s != d
        )
        seen["empty node"] += any(len(x) == 0 for x in byname.values())
        seen["unlinked node"] += len(names) > len(linked) and bool(links)
        seen["nonempty limit"] += len(obj) > 0
        seen["mixed names"] += len({type(n) for n in names}) == 3
    assert len(seen) == 7 and min(seen.values()) >= 10, seen


def test_span_validation():
    a = FinSet((0, 1))
    with pytest.raises(ValueError):
        Span(a, a, a, identity_fin(a), FinMap(FinSet((5,)), a, (0,)))


def test_compose_spans_with_identity():
    a = FinSet((0, 1, 2))
    b = FinSet(("x", "y"))
    s = span_from_maps(
        fin_map_by(a, a, lambda n: n),
        fin_map_by(a, b, lambda n: "x" if n else "y"),
    )
    left = compose_spans(identity_span(a), s)
    right = compose_spans(s, identity_span(b))
    assert spans_isomorphic(left, s)
    assert spans_isomorphic(right, s)


def test_compose_spans_boundary_mismatch():
    a = FinSet((0,))
    b = FinSet((1,))
    with pytest.raises(ValueError):
        compose_spans(identity_span(a), identity_span(b))


def _random_span(rng, left, right, apex_size):
    apex = FinSet(tuple(range(apex_size)))
    ll = FinMap(apex, left, tuple(rng.choice(left.elements) for _ in apex.elements))
    rl = FinMap(apex, right, tuple(rng.choice(right.elements) for _ in apex.elements))
    return Span(left, right, apex, ll, rl)


def test_compose_spans_associative_up_to_iso(rng):
    objs = [FinSet(tuple(range(1, n + 1))) for n in (1, 2, 3)]
    for _ in range(60):
        a, b, c, d = (rng.choice(objs) for _ in range(4))
        s = _random_span(rng, a, b, rng.randrange(4))
        t = _random_span(rng, b, c, rng.randrange(4))
        u = _random_span(rng, c, d, rng.randrange(4))
        lhs = compose_spans(compose_spans(s, t), u)
        rhs = compose_spans(s, compose_spans(t, u))
        assert spans_isomorphic(lhs, rhs)


def test_equivalence_spans_closed_under_composition(rng):
    a = FinSet((0, 1, 2))
    perms = list(itertools.permutations(a.elements))
    for _ in range(30):
        s = span_from_maps(
            FinMap(a, a, rng.choice(perms)), FinMap(a, a, rng.choice(perms))
        )
        t = span_from_maps(
            FinMap(a, a, rng.choice(perms)), FinMap(a, a, rng.choice(perms))
        )
        # a span is an equivalence when both legs are bijections
        for span in (s, t, compose_spans(s, t)):
            assert span.left_leg.is_bijection() and span.right_leg.is_bijection()


def test_spans_isomorphic_profile_sensitivity():
    a = FinSet((0, 1))
    apex = FinSet((0, 1))
    s = Span(a, a, apex, identity_fin(apex), identity_fin(apex))
    t = Span(a, a, apex, identity_fin(apex), FinMap(apex, a, (1, 0)))
    assert not spans_isomorphic(s, t)
    # relabeled apex with the same leg profile is isomorphic
    apex2 = FinSet(("p", "q"))
    u = Span(a, a, apex2, FinMap(apex2, a, (1, 0)), FinMap(apex2, a, (1, 0)))
    assert spans_isomorphic(s, u)
    with pytest.raises(ValueError):
        spans_isomorphic(s, identity_span(FinSet(("w",))))


def test_tensor_and_reverse_spans(rng):
    a = FinSet((0, 1))
    s = identity_span(a)
    t = tensor_spans(s, s)
    assert len(t.apex) == 4
    assert t.left_obj.elements == t.right_obj.elements
    assert t.left_leg.is_bijection() and t.right_leg.is_bijection()
    r = reverse_span(s)
    assert r.left_obj == s.right_obj
    # each leg of a tensor acts on the pair (x, y) as the pair of legs
    objs = [FinSet(tuple(range(n))) for n in (1, 2, 3)] + [FinSet(("u", (0,)))]
    for _ in range(40):
        u = _random_span(rng, rng.choice(objs), rng.choice(objs), rng.randrange(4))
        v = _random_span(rng, rng.choice(objs), rng.choice(objs), rng.randrange(4))
        t = tensor_spans(u, v)
        assert t.apex == product_carrier((u.apex, v.apex))
        assert t.left_obj == product_carrier((u.left_obj, v.left_obj))
        assert t.right_obj == product_carrier((u.right_obj, v.right_obj))
        for x, y in t.apex:
            assert t.left_leg((x, y)) == (u.left_leg(x), v.left_leg(y))
            assert t.right_leg((x, y)) == (u.right_leg(x), v.right_leg(y))


def test_terminal_helpers():
    a = FinSet((3, 4))
    tm = terminal_map(a)
    assert tm.dst == terminal_set()
    assert tm.assignment == ((), ())
    p, (p1, _) = big_product((a, terminal_set()))
    assert len(p) == 2 and p1.is_bijection()
