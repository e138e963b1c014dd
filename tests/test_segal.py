import importlib.util
import random
from pathlib import Path

import pytest

from segalspans.finset import FinMap, FinSet, fin_map_by, pullback, tupled_values
from segalspans.generators import (
    cech_nerve,
    cyclic_group_table,
    cyclic_nerve_of_group,
    flag_decomposition,
    min_monoid_table,
    nerve_of_monoid,
)
from segalspans import cycy, segal, spanalg
from segalspans.cycy import check_cy_conditions
from segalspans.segal import (
    check_1segal,
    check_2segal,
    check_2segal_triangulations,
    check_unital,
    judge_bijection,
    judge_square,
    square_instances,
    triangulations,
)
from segalspans.report import Report
from segalspans.orders import standard_order
from segalspans.sobj import SimpObj, apply_delta_op, simplex_map
from segalspans.spanalg import check_algebra_conditions

from reference_orders import all_lin_maps
from sobj_fixtures import relabel, truncate

Z2 = cyclic_group_table(2)
Z3 = cyclic_group_table(3)


def drop_top_simplex(x, elem):
    """Remove one non-degenerate top simplex, restricting the tables."""
    top = x.top_rank
    new_top_set = FinSet(tuple(e for e in x.level(top).elements if e != elem))
    faces = [list(row) for row in x.faces]
    faces[top - 1] = [
        FinMap(
            new_top_set,
            m.dst,
            tuple(m(e) for e in new_top_set.elements),
        )
        for m in faces[top - 1]
    ]
    degens = [list(row) for row in x.degens]
    degens[top - 1] = [
        FinMap(m.src, new_top_set, m.assignment) for m in degens[top - 1]
    ]
    sets = list(x.sets)
    sets[top] = new_top_set
    return SimpObj(tuple(sets), tuple(tuple(r) for r in faces), tuple(tuple(r) for r in degens))


def test_square_instances_at_rank_3():
    assert square_instances(3) == [(1, 2, 1), (1, 3, 1), (2, 2, 1), (2, 2, 2)]


def test_truncation_guard():
    x = truncate(nerve_of_monoid(Z2, 3), 2)
    with pytest.raises(ValueError, match="truncation too low"):
        check_2segal(x)
    with pytest.raises(ValueError, match="truncation too low"):
        check_2segal_triangulations(x)


def test_nerves_are_2segal_and_1segal():
    for x in (
        nerve_of_monoid(Z2, 4),
        nerve_of_monoid(Z3, 4),
        nerve_of_monoid(min_monoid_table(3), 4, unit=2),
    ):
        assert check_2segal(x).ok
        assert check_1segal(x).ok
        assert check_unital(x).ok


def test_cyclic_nerve_underlying_is_2segal():
    c = cyclic_nerve_of_group(Z3, 3)
    assert check_2segal(c).ok
    assert check_unital(c).ok


def test_cech_nerve_is_1segal_and_2segal():
    f = FinMap(FinSet((0, 1, 2)), FinSet(("a", "b")), ("a", "a", "b"))
    ch = cech_nerve(f, 4)
    assert check_1segal(ch).ok
    assert check_2segal(ch).ok


def test_flag_decomposition_2segal_but_not_1segal():
    x = flag_decomposition(2, 4)
    assert check_2segal(x).ok
    assert check_unital(x).ok
    rep = check_1segal(x)
    assert not rep.ok
    assert rep.findings[0].location == (2,)


def test_corrupted_nerve_fails_at_first_contentful_square():
    x = nerve_of_monoid(Z2, 3)
    bad = drop_top_simplex(x, (1, 1, 1))
    rep = check_2segal(bad)
    assert not rep.ok
    first = rep.findings[0]
    assert first.location == (2, 2, 1)
    assert "8" in first.detail and "7" in first.detail


def test_triangulation_catalan_counts():
    assert len(triangulations(range(3))) == 1
    assert len(triangulations(range(4))) == 2
    assert len(triangulations(range(5))) == 5
    assert len(triangulations(range(6))) == 14


def test_triangulation_checker_agrees_with_square_form():
    corpus = [
        nerve_of_monoid(Z2, 4),
        nerve_of_monoid(min_monoid_table(2), 4, unit=1),
        flag_decomposition(2, 4),
        drop_top_simplex(nerve_of_monoid(Z2, 3), (1, 1, 1)),
    ]
    for x in corpus:
        assert check_2segal(x).ok == check_2segal_triangulations(x).ok


def test_one_segal_implies_two_segal_on_corpus():
    f = FinMap(FinSet((0, 1, 2)), FinSet(("a", "b")), ("a", "a", "b"))
    for x in (nerve_of_monoid(Z2, 4), cech_nerve(f, 4)):
        if check_1segal(x).ok:
            assert check_2segal(x).ok


def test_verdicts_invariant_under_relabeling():
    for x in (nerve_of_monoid(Z2, 3), flag_decomposition(2, 3)):
        y = relabel(x, lambda n, e: ("tag", n, e))
        assert check_2segal(x).ok == check_2segal(y).ok
        assert check_1segal(x).ok == check_1segal(y).ok
        assert check_unital(x).ok == check_unital(y).ok
        assert (
            check_2segal_triangulations(x).ok
            == check_2segal_triangulations(y).ok
        )


def test_degenerate_corruption_caught_by_unital():
    x = nerve_of_monoid(Z2, 3)
    degens = [list(row) for row in x.degens]
    m = degens[1][0]
    asg = list(m.assignment)
    asg[0] = x.level(2).elements[-1]
    degens[1][0] = FinMap(m.src, m.dst, tuple(asg))
    bad = SimpObj(x.sets, x.faces, tuple(tuple(r) for r in degens))
    assert not check_unital(bad).ok


def swap_face_images(x, n, i, a, b):
    """x with the images of a and b under the face d_i at rank n swapped."""
    f = x.face(n, i)
    pos_a, pos_b = f.src.elements.index(a), f.src.elements.index(b)
    asg = list(f.assignment)
    assert asg[pos_a] != asg[pos_b]
    asg[pos_a], asg[pos_b] = asg[pos_b], asg[pos_a]
    faces = [list(row) for row in x.faces]
    faces[n - 1][i] = FinMap(f.src, f.dst, tuple(asg))
    return SimpObj(x.sets, tuple(tuple(r) for r in faces), x.degens)


def _findings(rep):
    return [(f.check, f.location, f.witness) for f in rep.findings]


# (check, location, witness) of every finding, recorded on the
# per-element comparison loops; each checker must keep reporting them
PINNED_Z3 = {
    check_2segal: [
        ("2segal-square", (2, 2, 1), ((0, 2, 0), (2, 0, 0))),
        ("2segal-square", (3, 2, 1), (0, 0, 2, 1)),
        ("2segal-square", (3, 2, 2), (0, 0, 2, 1)),
    ],
    check_unital: [
        ("unital-square", (3, 0), (2, 1)),
        ("unital-square", (3, 1), (2, 0)),
        ("unital-square", (4, 0), (2, 1, 0)),
        ("unital-square", (4, 1), (2, 0, 0)),
    ],
    check_2segal_triangulations: [
        ("triangulation", (3, ((0, 1, 2), (0, 2, 3))), ((0, 2, 0), (2, 0, 0))),
        ("triangulation", (3, ((0, 1, 3), (1, 2, 3))), (0, 2, 1)),
        ("triangulation", (4, ((0, 1, 2), (0, 2, 3), (0, 3, 4))),
         ((0, 2, 0, 0), (2, 0, 0, 0))),
        ("triangulation", (4, ((0, 1, 2), (0, 2, 4), (2, 3, 4))),
         ((0, 2, 0, 0), (2, 0, 0, 0))),
        ("triangulation", (4, ((0, 1, 3), (0, 3, 4), (1, 2, 3))), (0, 2, 1, 0)),
        ("triangulation", (4, ((0, 1, 4), (1, 2, 3), (1, 3, 4))), (0, 2, 1, 0)),
        ("triangulation", (4, ((0, 1, 4), (1, 2, 4), (2, 3, 4))), (0, 2, 1, 0)),
    ],
    check_algebra_conditions: [
        ("reduced-square", (2, 2, 1), (((0, 2, 0),), ((2, 0, 0),))),
        ("reduced-square", (2, 2, 2), ((0, 2, 1),)),
        ("reduced-square", (2, 3, 2), ((0, 2, 1, 0),)),
        ("reduced-square", (3, 2, 1), ((0, 0, 2, 1),)),
        ("reduced-square", (3, 2, 2), ((0, 0, 2, 1),)),
        ("reduced-square", (3, 2, 3), ((0, 2, 0, 1),)),
        ("fan-limit", (1, 1, 1), ((0, 2, 0), (2, 0, 0))),
        ("fan-limit", (2, 1, 1), ((0, 2, 0, 0), (2, 0, 0, 0))),
    ],
}

PINNED_FLAGS = {
    check_2segal: [
        ("2segal-square", (2, 2, 1), ((0, 1), (), (2,))),
        ("2segal-square", (3, 2, 1), ((0, 1), (), (2,), ())),
        ("2segal-square", (3, 2, 2), ((0, 1), (), (), (2,))),
    ],
    check_unital: [
        ("unital-square", (3, 1), ((0, 1), (2,))),
        ("unital-square", (4, 1), ((0, 1), (2,), ())),
    ],
    check_2segal_triangulations: [
        ("triangulation", (3, ((0, 1, 2), (0, 2, 3))), ((0, 1), (), (2,))),
        ("triangulation", (3, ((0, 1, 3), (1, 2, 3))), ((0, 1), (), (2,))),
    ] + [
        ("triangulation", (4, tris), ((0, 1), (), (2,), ()))
        for tris in triangulations(range(5))
    ],
    check_algebra_conditions: [
        ("reduced-square", (2, 2, 1), (((0, 1), (), (2,)),)),
        ("reduced-square", (3, 2, 1), (((), (0, 1), (), (2,)),)),
        ("reduced-square", (3, 2, 2), (((0, 1), (), (), (2,)),)),
        ("reduced-square", (3, 2, 3), (((0, 1), (), (), (2,)),)),
        ("fan-limit", (1, 1, 1), ((0, 1), (), (2,))),
        ("fan-limit", (2, 1, 1), ((0, 1), (), (2,), ())),
    ],
}


@pytest.mark.parametrize("x, pinned", [
    (swap_face_images(nerve_of_monoid(Z3, 4), 3, 3, (2, 0, 0), (0, 2, 1)), PINNED_Z3),
    (
        swap_face_images(
            flag_decomposition(3, 4), 3, 3, ((0, 1), (2,), ()), ((0, 1), (), (2,))
        ),
        PINNED_FLAGS,
    ),
], ids=["z3", "flags"])
def test_corrupted_face_findings_are_pinned(x, pinned):
    for check, expected in pinned.items():
        assert _findings(check(x)) == expected, check.__name__


def test_structure_maps_start_at_the_source_level():
    # the checkers read comparison values as columns of assignments,
    # which lines them up with x.level(b).elements; they name each map
    # by the vertex list of its monotone map
    x = nerve_of_monoid(Z3, 4)
    for a in range(4):
        for b in range(4):
            for phi in all_lin_maps(standard_order(a), standard_order(b)):
                m = apply_delta_op(x, phi)
                assert m.src == x.level(b)
                assert m.dst == x.level(a)
                assert simplex_map(x, b, phi.images) == m


# A = {0, 1, 2} and B = {x, y} over C = {0, 1}: the pullback is
# {(0, x), (1, x), (2, y)}.  Each case lists the source set and the
# (left, right) images of its elements, and the branch it must reach.
JUDGE_CASES = [
    ("ok", (10, 11, 12), ((0, "x"), (1, "x"), (2, "y")), None),
    ("stray", (10, 11, 12), ((0, "x"), (1, "y"), (2, "y")),
     "comparison image is not a compatible family"),
    ("collision", (10, 11, 12), ((0, "x"), (0, "x"), (2, "y")),
     "two simplices induce the same glued family"),
    ("collision-before-stray", (10, 11, 12), ((0, "x"), (0, "x"), (1, "y")),
     "two simplices induce the same glued family"),
    ("missing", (10, 11), ((0, "x"), (2, "y")),
     "glued family count 3 vs simplex count 2"),
    ("missing-last", (10, 11), ((0, "x"), (1, "x")),
     "glued family count 3 vs simplex count 2"),
    ("empty-source", (), (), "glued family count 3 vs simplex count 0"),
]


@pytest.mark.parametrize(
    "src, images, detail", [c[1:] for c in JUDGE_CASES], ids=[c[0] for c in JUDGE_CASES]
)
def test_positional_judge_matches_label_judge(src, images, detail):
    a, b, c = FinSet((0, 1, 2)), FinSet(("x", "y")), FinSet((0, 1))
    f = FinMap(a, c, (0, 0, 1))
    g = FinMap(b, c, (0, 1))
    s = FinSet(src)
    left = FinMap(s, a, tuple(v for v, _ in images))
    right = FinMap(s, b, tuple(w for _, w in images))
    by_label, by_position = Report("labels"), Report("positions")
    label_square(by_label, "sq", (1,), left, right, f, g)
    judge_square(by_position, "sq", (1,), left, right, f, g)
    assert [x.detail for x in by_label.findings] == ([detail] if detail else [])
    assert by_position.findings == by_label.findings


def test_square_judge_rejects_a_square_that_does_not_close():
    a, b = FinSet((0, 1)), FinSet(("x",))
    f = FinMap(a, FinSet((0, 1)), (0, 1))
    g = FinMap(b, FinSet((0,)), (0,))
    left, right = FinMap(a, a, (0, 1)), FinMap(a, b, ("x", "x"))
    with pytest.raises(ValueError, match="shared codomain"):
        judge_square(Report("sq"), "sq", (), left, right, f, g)
    with pytest.raises(ValueError, match="shared codomain"):
        label_square(Report("sq"), "sq", (), left, right, f, g)
    with pytest.raises(ValueError, match="do not meet"):
        judge_square(Report("sq"), "sq", (), right, left, f, f)


def label_square(rep, check, location, left, right, f, g):
    """The label-level reference for judge_square: build the pullback of
    f and g, then judge the tupled legs against it."""
    pb, _, _ = pullback(f, g)
    values = tupled_values(left.src, (left, right))
    judge_bijection(rep, check, location, left.src, values, pb)


def _perfbench_twins():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "twins.py"
    spec = importlib.util.spec_from_file_location("perfbench_twins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SQUARE_CHECKS = (check_2segal, check_unital, check_algebra_conditions)

# (object, twin seeds, checkers): the checkers judge every square of the
# object and of its corrupted twins by judge_square, and each entry has
# squares that pass and squares that fail.  Of the cyclic twins, seed 2
# fails the rotation-degeneracy square through a face, seed 19 through a
# rotation, and seed 5 passes it with a corrupted rotation.
SQUARE_CORPUS = {
    "nerve(z3,4)": (lambda: nerve_of_monoid(Z3, 4), range(40), SQUARE_CHECKS),
    "nerve(min3,4)": (
        lambda: nerve_of_monoid(min_monoid_table(3), 4, unit=2), range(12), SQUARE_CHECKS
    ),
    "flags(3,4)": (lambda: flag_decomposition(3, 4), range(12), SQUARE_CHECKS),
    "cech(5->2,4)": (
        lambda: cech_nerve(fin_map_by(FinSet(range(5)), FinSet((0, 1)), lambda a: a // 3), 4),
        range(12),
        SQUARE_CHECKS,
    ),
    "drop(z2,3)": (
        lambda: drop_top_simplex(nerve_of_monoid(Z2, 3), (1, 1, 1)), (), SQUARE_CHECKS
    ),
    "cyclic(z3,3)": (lambda: cyclic_nerve_of_group(Z3, 3), (2, 5, 19), (check_cy_conditions,)),
}


@pytest.mark.parametrize("name", SQUARE_CORPUS)
def test_square_judge_matches_label_reference(monkeypatch, name):
    make, seeds, checks = SQUARE_CORPUS[name]
    x = make()
    corrupted_twin = _perfbench_twins().corrupted_twin
    objects = [x] + [corrupted_twin(x, random.Random(s))[0] for s in seeds]
    failed = set()

    def both(rep, check, location, *maps):
        # the finding each judge adds, if any, must be the same
        reference = Report("labels")
        label_square(reference, check, location, *maps)
        before = len(rep.findings)
        judge_square(rep, check, location, *maps)
        assert rep.findings[before:] == reference.findings, (check, location)
        failed.add(bool(reference.findings))

    for module in (segal, spanalg, cycy):
        monkeypatch.setattr(module, "judge_square", both)
    for obj in objects:
        for check in checks:
            check(obj)
    assert failed == {False, True}
