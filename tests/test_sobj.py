import itertools

import pytest

from segalspans.dualities import cyclic_closure_map
from segalspans.finset import FinMap, FinSet, fin_map_by
from segalspans.generators import (
    cech_nerve,
    cyclic_group_table,
    cyclic_nerve_of_group,
    flag_decomposition,
    groups_up_to_order,
    min_monoid_table,
    nerve_of_monoid,
    sym3_table,
)
from segalspans.orders import (
    LinMap,
    all_cyc_maps,
    rotation_map,
    standard_cycle,
    standard_order,
)
from segalspans.sobj import (
    CycObj,
    SimpObj,
    apply_delta_op,
    apply_lambda_op,
    simplex_map,
    validate,
)

from reference_orders import all_lin_maps
from sobj_fixtures import relabel, truncate

Z2 = cyclic_group_table(2)
Z3 = cyclic_group_table(3)


def test_generator_shapes():
    x = nerve_of_monoid(Z2, 4)
    assert [len(x.level(n)) for n in range(5)] == [1, 2, 4, 8, 16]
    c = cyclic_nerve_of_group(Z3, 3)
    assert [len(c.level(n)) for n in range(4)] == [3, 9, 27, 81]
    f = flag_decomposition(2, 3)
    assert [len(f.level(n)) for n in range(4)] == [1, 4, 9, 16]
    src = fin_map_by(
        FinSet((0, 1, 2)), FinSet(("a", "b")), lambda n: "a" if n < 2 else "b"
    )
    ch = cech_nerve(src, 3)
    assert [len(ch.level(n)) for n in range(4)] == [3, 5, 9, 17]


def test_validate_clean_objects():
    assert validate(nerve_of_monoid(Z2, 4)).ok
    assert validate(nerve_of_monoid(min_monoid_table(3), 3, unit=2)).ok
    assert validate(flag_decomposition(2, 4)).ok
    for name, table in groups_up_to_order(6):
        assert validate(cyclic_nerve_of_group(table, 3)).ok, name


def test_validate_nonabelian_group_table():
    s3 = sym3_table()
    assert len(s3) == 6
    # non-commutative somewhere
    assert any(s3[a][b] != s3[b][a] for a in range(6) for b in range(6))
    assert validate(cyclic_nerve_of_group(s3, 3)).ok


def _corrupt_face(x, n, i, elem_pos, new_val):
    faces = [list(row) for row in x.faces]
    old = faces[n - 1][i]
    assignment = list(old.assignment)
    assignment[elem_pos] = new_val
    faces[n - 1][i] = FinMap(old.src, old.dst, tuple(assignment))
    return SimpObj(x.sets, tuple(tuple(r) for r in faces), x.degens)


def test_validate_catches_face_corruption():
    x = nerve_of_monoid(Z2, 3)
    bad = _corrupt_face(x, 2, 1, 0, x.level(1).elements[-1])
    rep = validate(bad)
    assert not rep.ok
    f = rep.findings[0]
    assert f.check.startswith("face")
    assert f.witness is not None


def test_validate_catches_rotation_corruption():
    c = cyclic_nerve_of_group(Z2, 3)
    tau = list(c.tau)
    asg = list(tau[1].assignment)
    asg[0], asg[1] = asg[1], asg[0]
    tau[1] = FinMap(tau[1].src, tau[1].dst, tuple(asg))
    rep = validate(CycObj(c.base, tuple(tau)))
    assert not rep.ok
    assert any(f.check.startswith("rotation") for f in rep.findings)


def test_malformed_shape_raises():
    x = nerve_of_monoid(Z2, 3)
    with pytest.raises(ValueError):
        SimpObj(x.sets, x.faces[:-1], x.degens)
    with pytest.raises(ValueError):
        SimpObj(x.sets[:2], x.faces[:1], x.degens[:1])
    c = cyclic_nerve_of_group(Z2, 3)
    with pytest.raises(ValueError):
        CycObj(c.base, c.tau[:-1])


def test_apply_delta_op_single_cofaces_and_codegens():
    x = nerve_of_monoid(Z2, 3)
    for n in range(1, 4):
        for i in range(n + 1):
            # the vertex list of the coface skipping i
            verts = tuple(v for v in range(n + 1) if v != i)
            coface = LinMap(standard_order(n - 1), standard_order(n), verts)
            assert apply_delta_op(x, coface).assignment == x.face(n, i).assignment
            assert simplex_map(x, n, verts) == x.face(n, i)
    for n in range(3):
        for i in range(n + 1):
            # the vertex list of the codegeneracy hitting i twice
            verts = (*range(i + 1), *range(i, n + 1))
            codegen = LinMap(standard_order(n + 1), standard_order(n), verts)
            assert apply_delta_op(x, codegen).assignment == x.degen(n, i).assignment
            assert simplex_map(x, n, verts) == x.degen(n, i)


def test_apply_delta_op_composition_exhaustive_small():
    x = nerve_of_monoid(Z2, 3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for psi in all_lin_maps(standard_order(a), standard_order(b)):
                    for phi in all_lin_maps(standard_order(b), standard_order(c)):
                        lhs = apply_delta_op(x, phi.compose(psi))
                        rhs = apply_delta_op(x, psi).compose(apply_delta_op(x, phi))
                        assert lhs.assignment == rhs.assignment


def test_apply_delta_op_truncation_error():
    x = nerve_of_monoid(Z2, 3)
    with pytest.raises(ValueError, match="insufficient truncation"):
        apply_delta_op(x, LinMap(standard_order(4), standard_order(1), (0,) * 5))


def test_rotation_generator_recovers_tau():
    c = cyclic_nerve_of_group(Z3, 3)
    for n in range(4):
        gen = rotation_map(standard_cycle(n), -1)
        assert apply_lambda_op(c, gen).assignment == c.rot(n).assignment


def test_cyclic_closure_of_coface_recovers_face():
    c = cyclic_nerve_of_group(Z2, 3)
    for n in range(1, 4):
        for i in range(n + 1):
            coface = LinMap(
                standard_order(n - 1),
                standard_order(n),
                tuple(v for v in range(n + 1) if v != i),
            )
            got = apply_lambda_op(c, cyclic_closure_map(coface))
            assert got.assignment == c.face(n, i).assignment


def test_twisted_long_coface_gives_last_face():
    c = cyclic_nerve_of_group(Z2, 2)
    delta0 = LinMap(standard_order(1), standard_order(2), (1, 2))
    op = rotation_map(standard_cycle(2), -1).compose(cyclic_closure_map(delta0))
    assert apply_lambda_op(c, op).assignment == c.face(2, 2).assignment


def test_apply_lambda_op_functorial_ranks_le_2():
    c = cyclic_nerve_of_group(Z2, 2)
    cycles = [standard_cycle(n) for n in range(3)]
    for a, b, d in itertools.product(range(3), repeat=3):
        for f in all_cyc_maps(cycles[a], cycles[b]):
            for g in all_cyc_maps(cycles[b], cycles[d]):
                lhs = apply_lambda_op(c, g.compose(f))
                rhs = apply_lambda_op(c, f).compose(apply_lambda_op(c, g))
                assert lhs.assignment == rhs.assignment


def test_apply_lambda_op_requires_cyclic_object():
    x = nerve_of_monoid(Z2, 3)
    with pytest.raises(ValueError):
        apply_lambda_op(x, rotation_map(standard_cycle(1), 1))


def test_tau_order_identity():
    for name, table in groups_up_to_order(4):
        c = cyclic_nerve_of_group(table, 3)
        for n in range(4):
            power = c.level(n).elements
            m = c.rot(n)
            out = list(power)
            for _ in range(n + 1):
                out = [m(v) for v in out]
            assert tuple(out) == power, (name, n)


def test_relabel_preserves_validity_and_inverts():
    x = nerve_of_monoid(Z2, 3)
    y = relabel(x, lambda n, e: ("w", e))
    assert validate(y).ok
    z = relabel(y, lambda n, e: e[1])
    assert z.sets == x.sets
    assert all(
        z.face(n, i).assignment == x.face(n, i).assignment
        for n in range(1, 4)
        for i in range(n + 1)
    )
    c = cyclic_nerve_of_group(Z2, 2)
    cy = relabel(c, lambda n, e: e + (9,))
    assert validate(cy).ok


def test_truncate():
    x = nerve_of_monoid(Z2, 4)
    t = truncate(x, 3)
    assert t.top_rank == 3
    assert validate(t).ok
    c = cyclic_nerve_of_group(Z2, 3)
    tc = truncate(c, 2)
    assert tc.top_rank == 2 and validate(tc).ok
    with pytest.raises(ValueError):
        truncate(x, 5)


def test_cech_nerve_klein_bundle_style():
    f = FinMap(FinSet((0, 1, 2, 3)), FinSet(("x", "y")), ("x", "x", "x", "y"))
    ch = cech_nerve(f, 3)
    assert len(ch.level(1)) == 9 + 1
    assert validate(ch).ok
