"""The collapse functor: object and square collapses, the rigid class E,
weak-fiber initial rows, universal factorizations, the hom enumerators
and the state of the brute-force verification sweep."""

import hashlib
from collections import Counter

import pytest

from segalspans import localize
from segalspans.cycy import (
    AssMor,
    CycToFamilyMor,
    CyclicRank,
    DiamondMor,
    FamilyMor,
    FamilyObj,
    ID_DIAMOND,
    all_lambda_star_mors,
    lambda_star_identity,
)
from segalspans.dualities import IntervalContext, PointedSet
from segalspans.localize import (
    LocalizeBudget,
    OmegaMorDelta,
    OmegaMorLambda,
    OmegaObjDelta,
    OmegaObjLambda,
    all_e_mors,
    all_omega_delta_objects,
    all_omega_lambda_objects,
    all_omega_mors,
    identity_omega,
    is_identity_like,
    is_in_E,
    localize_morphism,
    localize_object,
    _buckets,
    _check_one_factorization,
    _is_fiber_identity,
    _run_splits,
    universal_factorization,
    verify_localization,
    weak_fiber_initial,
)
from segalspans.orders import CycOrd, LinMap, standard_order
from segalspans.report import Report
from segalspans.spanalg import DeltaStarMor, DeltaStarObj, all_delta_star_mors, identity_star

AMB1 = standard_order(1)
AMB2 = standard_order(2)


def interval_row(amb, lo, hi, fiber_rank, images):
    return OmegaObjDelta(
        IntervalContext(amb, lo, hi), LinMap(amb, standard_order(fiber_rank), images)
    )


def pointed_row(point, fiber):
    base = AssMor(PointedSet(fiber), PointedSet((point,)), ((point, fiber),))
    return OmegaObjLambda(base, frozenset((point,)))


def diamond_row(cycle):
    return OmegaObjLambda(DiamondMor(PointedSet(cycle), CycOrd(cycle)), None)


def test_object_collapse():
    assert localize_object(interval_row(AMB2, 0, 2, 3, (0, 2, 3))) == DeltaStarObj((2, 1))
    assert localize_object(interval_row(AMB1, 0, 1, 1, (0, 1))) == DeltaStarObj((1,))
    assert localize_object(diamond_row((0, 1, 2))) == CyclicRank(2)
    assert localize_object(pointed_row("p", ("u", "v"))) == FamilyObj((("p", 2),))


def test_identities_collapse_to_identities_in_E():
    z = interval_row(AMB2, 0, 2, 3, (0, 2, 3))
    ident = identity_omega(z)
    assert localize_morphism(ident) == identity_star(DeltaStarObj((2, 1)))
    assert is_in_E(ident)
    zr = diamond_row((0, 1, 2))
    assert localize_morphism(identity_omega(zr)) == lambda_star_identity(CyclicRank(2))


def test_interval_square_collapse():
    za = interval_row(AMB1, 0, 1, 2, (0, 2))
    zb = interval_row(AMB1, 0, 1, 1, (0, 1))
    mu = OmegaMorDelta(
        za, zb, LinMap(AMB1, AMB1, (0, 1)), LinMap(standard_order(1), standard_order(2), (0, 2))
    )
    lm = localize_morphism(mu)
    assert lm.blocks == ((0, (0, 2)),)


def test_pointed_square_collapse_and_E():
    z1 = pointed_row("p", ("u", "v"))
    z2 = pointed_row("q", ("x", "y"))
    g = AssMor(z2.base.dst, z1.base.dst, (("p", ("q",)),))
    mu = OmegaMorLambda(z1, z2, g, AssMor(z1.carrier, z2.carrier, (("x", ("u",)), ("y", ("v",)))))
    lam = localize_morphism(mu)
    assert lam.blocks == (("q", ("p", (0, 1, 2))),)
    assert lam.fiber_order("p") == ("q",)
    assert is_in_E(mu) is True
    assert is_identity_like(lam)

    # both source points land in x's fiber: no longer an order iso
    mu2 = OmegaMorLambda(z1, z2, g, AssMor(z1.carrier, z2.carrier, (("x", ("u", "v")), ("y", ()))))
    assert localize_morphism(mu2).blocks == (("q", ("p", (0, 2, 2))),)
    assert is_in_E(mu2) is False


def test_round_square_collapse_and_E():
    za = diamond_row(("a0", "a1"))
    zb = diamond_row(("b0",))
    gbar = AssMor(za.carrier, zb.carrier, (("b0", ("a0", "a1")),))
    mub = OmegaMorLambda(za, zb, ID_DIAMOND, gbar)
    lamb = localize_morphism(mub)
    assert lamb.src == CyclicRank(1) and lamb.dst == CyclicRank(0)
    assert is_in_E(mub) is False

    muc = OmegaMorLambda(zb, zb, ID_DIAMOND, AssMor(zb.carrier, zb.carrier, (("b0", ("b0",)),)))
    assert is_in_E(muc) is True
    assert is_identity_like(localize_morphism(muc))


def test_round_to_pointed_collapse_is_mixed_shape():
    zq = pointed_row("q", ("x", "y"))
    zround = diamond_row(("c0", "c1"))
    gq = DiamondMor(zq.base.dst, CycOrd(("q",)))
    gbar = AssMor(zround.carrier, zq.carrier, (("x", ("c0",)), ("y", ("c1",))))
    mu = OmegaMorLambda(zround, zq, gq, gbar)
    lam = localize_morphism(mu)
    assert isinstance(lam, CycToFamilyMor)
    assert lam.src == CyclicRank(1)
    assert lam.dst == FamilyObj((("q", 2),))
    assert is_in_E(mu) is False


def test_weak_fiber_initial_rows():
    zm = weak_fiber_initial(DeltaStarObj((2, 1)))
    assert zm.base.positions == (0, 2, 3)
    assert (zm.lo_pos, zm.hi_pos) == (0, 2)
    assert weak_fiber_initial(DeltaStarObj((1,))).base.positions == (0, 1)
    assert len(weak_fiber_initial(CyclicRank(2)).base.cycle) == 3
    fam = FamilyObj((("a", 2), ("b", 1)))
    assert localize_object(weak_fiber_initial(fam)) == fam


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, Claim 1: the built row carries buffer slots, "
    "so an identity tuple morphism does not give back the initial row",
)
def test_identity_factorization_reproduces_the_initial_row():
    m = DeltaStarObj((2, 1))
    zm = weak_fiber_initial(m)
    x, _ = universal_factorization(zm, identity_star(m))
    assert x == zm


def test_minimal_interval_factorization():
    z = interval_row(AMB1, 0, 1, 3, (0, 3))
    g = DeltaStarMor(DeltaStarObj((3,)), DeltaStarObj((1,)), ((0, (1, 2)),))
    x, phi = universal_factorization(z, g)
    assert x.base.positions == (0, 1, 2, 3)
    assert (x.lo_pos, x.hi_pos) == (1, 2)
    assert phi.g.positions == (0, 3)
    assert phi.gbar.positions == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "src, dst",
    [(CyclicRank(1), CyclicRank(1)), (CyclicRank(2), FamilyObj((("a", 1),)))],
)
def test_round_factorizations_cover_every_morphism(src, dst):
    z = weak_fiber_initial(src)
    gs = list(all_lambda_star_mors(src, dst))
    assert gs
    for g in gs:
        x, phi = universal_factorization(z, g)
        assert localize_object(x) == dst
        assert localize_morphism(phi) == g


def test_family_factorization_with_leftovers():
    # the fiber (u, v, w) keeps only its middle element
    z = pointed_row("p", ("u", "v", "w"))
    m = FamilyObj((("q", 1),))
    g = FamilyMor(localize_object(z), m, (("q", ("p", (1, 2))),), (("p", ("q",)),))
    x, phi = universal_factorization(z, g)
    assert localize_morphism(phi) == g
    assert localize_object(x) == m


def test_enumerators_are_pinned_and_E_agrees_with_filtering():
    bud = LocalizeBudget(2, 2, 2, 1)
    pinned = (
        (all_omega_delta_objects, 55, 6510, 1481),
        (all_omega_lambda_objects, 64, 17851, 1257),
    )
    for rows_of, n_rows, n_squares, n_rigid in pinned:
        rows = list(rows_of(bud))
        squares = rigid = 0
        for z1 in rows:
            for z2 in rows:
                mors = list(all_omega_mors(z1, z2))
                filtered = {mu for mu in mors if is_in_E(mu)}
                assert set(all_e_mors(z1, z2)) == filtered, (z1, z2)
                squares += len(mors)
                rigid += len(filtered)
        assert (len(rows), squares, rigid) == (n_rows, n_squares, n_rigid)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((1.5, 1, 1, 0), "max_rank 1.5 is not an int"),
        ((1, True, 1, 0), "max_tuple True is not an int"),
        ((1, 1, -1, 0), "max_fiber -1 is negative"),
        ((1, 1, 1, "0"), "max_junk '0' is not an int"),
        ((1, 1, 1, -2), "max_junk -2 is negative"),
    ],
)
def test_malformed_budget_raises(bounds, message):
    with pytest.raises(ValueError) as err:
        LocalizeBudget(*bounds)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_verification_sweep_is_red_on_factorization_uniqueness():
    # records the current state, not a goal: ROADMAP item 1 owns the fix
    rep = verify_localization(LocalizeBudget(1, 1, 1, 0))
    assert Counter(f.check for f in rep.findings) == {"factorization-universality": 73}


def test_rank_zero_budget_is_swept_and_red():
    # max_rank 0 still bounds round rows and tuples; the sweep checks them
    rep = verify_localization(LocalizeBudget(0, 1, 1, 0))
    assert not rep.ok
    assert Counter(f.check for f in rep.findings) == {"factorization-universality": 36}


def _finding_digest(rep):
    h = hashlib.sha256()
    for f in rep.findings:
        h.update(repr((f.check, f.location, repr(f.witness), f.detail)).encode() + b"\n")
    return h.hexdigest()


FACTORIZATION_NOTE = (
    "from the built initial row and a padded variant per tuple (plus a "
    "one-cell cyclic source for family targets)"
)

# whole reports: the scope notes in order, and a digest of the findings
# (check, location, witness repr, detail) in order
REPORT_PINS = {
    (0, 1, 1, 0): (
        [
            "marked rows: 0 interval-flavored, 2 round-flavored",
            "window-rigid squares over the full universe: 2 checked",
            "initiality: 2 interval tuples and 3 round tuples, over their whole weak fibers",
            "flavor agreement checked on all 0 interval rows",
            "exhaustive tier at weight <= 3: 0 interval rows, 2 round rows",
            "interval composable pairs swept exhaustively: 0",
            "round composable pairs swept exhaustively: 2",
            "exhaustive tier factorization instances: 6",
            "flavor agreement checked on 0 interval squares",
            f"factorization instances against full weak fibers: 26, {FACTORIZATION_NOTE}",
            "seeded full-universe composite sample: 37 pairs",
        ],
        "7a32287b2461aff195d8d359678ab603fe1f6b4a7de7e9b31c754670e451374f",
    ),
    (1, 1, 1, 0): (
        [
            "marked rows: 4 interval-flavored, 4 round-flavored",
            "window-rigid squares over the full universe: 17 checked",
            "initiality: 2 interval tuples and 4 round tuples, over their whole weak fibers",
            "flavor agreement checked on all 4 interval rows",
            "exhaustive tier at weight <= 3: 4 interval rows, 4 round rows",
            "interval composable pairs swept exhaustively: 56",
            "round composable pairs swept exhaustively: 99",
            "exhaustive tier factorization instances: 40",
            "flavor agreement checked on 15 interval squares",
            f"factorization instances against full weak fibers: 38, {FACTORIZATION_NOTE}",
            "seeded full-universe composite sample: 318 pairs",
        ],
        "058e49e4ce30a4cff8e85a881c210540b8372675a59ab2801cbb7113fb7129b3",
    ),
}


@pytest.mark.parametrize("bounds", sorted(REPORT_PINS))
def test_localization_report_is_pinned(bounds):
    notes, digest = REPORT_PINS[bounds]
    rep = verify_localization(LocalizeBudget(*bounds))
    assert rep.scope == notes
    assert _finding_digest(rep) == digest


@pytest.mark.slow
def test_two_rank_budget_report_is_pinned():
    rep = verify_localization(LocalizeBudget(2, 1, 1, 0))
    assert rep.scope == [
        "marked rows: 19 interval-flavored, 6 round-flavored",
        "window-rigid squares over the full universe: 194 checked",
        "initiality: 2 interval tuples and 5 round tuples, over their whole weak fibers",
        "flavor agreement checked on all 19 interval rows",
        "exhaustive tier at weight <= 3: 19 interval rows, 6 round rows",
        "interval composable pairs swept exhaustively: 19833",
        "round composable pairs swept exhaustively: 12891",
        "exhaustive tier factorization instances: 227",
        "flavor agreement checked on 645 interval squares",
        f"factorization instances against full weak fibers: 98, {FACTORIZATION_NOTE}",
        "seeded full-universe composite sample: 3833 pairs",
    ]
    assert Counter(f.check for f in rep.findings) == {
        "factorization-universality": 741,
        "weak-fiber-initial-back": 2,
    }
    assert _finding_digest(rep) == (
        "66485e73f486465e2fcfe51c48d1c0bb50677d4789703e2c747ed4318ad4e066"
    )


def _reference_one_factorization(rep, z, m, g, x, phi, pool, buckets):
    # the full-hom route filter: compose phi with every square out of the
    # built row x, then keep the routes over the identity of m
    for w in pool if x in buckets else [x] + pool:
        if w in buckets:
            wanted = buckets[w].get(g, [])
        else:
            wanted = [nu for nu in all_omega_mors(z, w) if localize_morphism(nu) == g]
        if not wanted:
            continue
        wset = set(wanted)
        routes = {}
        for tau in all_omega_mors(x, w):
            c = tau.compose(phi)
            if c in wset:
                routes.setdefault(c, []).append(tau)
        for nu in wanted:
            good = [
                t for t in routes.get(nu, []) if _is_fiber_identity(localize_morphism(t), m)
            ]
            if len(good) != 1:
                rep.fail(
                    "factorization-universality",
                    (str(z), str(m), str(w)),
                    witness=(str(g), str(nu), len(good)),
                )


def _reference_universality(rep, sources, fibers, hom, loc):
    count = 0
    for z, m in sources:
        mors = all_delta_star_mors if isinstance(m, DeltaStarObj) else all_lambda_star_mors
        pool = fibers.get(m, [])
        buckets = {w: _buckets(hom(z, w), loc) for w in pool}
        for g in mors(localize_object(z), m):
            count += 1
            x, phi = universal_factorization(z, g)
            _reference_one_factorization(rep, z, m, g, x, phi, pool, buckets)
    return count


@pytest.mark.parametrize("bounds", [(0, 1, 1, 0), (1, 1, 1, 0)])
def test_factorization_judge_matches_full_hom_reference(bounds, monkeypatch):
    # every factorization instance the sweep judges, both tiers and both
    # flavors, judged again by composing phi with every square out of x
    calls = []
    judge = localize._check_universality

    def recording(rep, sources, fibers, hom, loc):
        sources = list(sources)
        calls.append((sources, fibers, hom, loc))
        return judge(rep, sources, fibers, hom, loc)

    monkeypatch.setattr(localize, "_check_universality", recording)
    verify_localization(LocalizeBudget(*bounds))
    assert len(calls) == 4
    instances = 0
    for sources, fibers, hom, loc in calls:
        got, want = Report("identity factors"), Report("full hom")
        n = judge(got, sources, fibers, hom, loc)
        assert _reference_universality(want, sources, fibers, hom, loc) == n
        assert got.findings == want.findings
        instances += n
    assert instances == {(0, 1, 1, 0): 32, (1, 1, 1, 0): 78}[bounds]


def test_factorization_judge_flags_a_missing_route():
    m = CyclicRank(1)
    z = weak_fiber_initial(m)
    g, other = list(all_lambda_star_mors(m, m))[:2]
    x, phi = universal_factorization(z, g)
    _, wrong_phi = universal_factorization(z, other)
    wanted = [(x, [nu for nu in all_omega_mors(z, x) if localize_morphism(nu) == g])]
    factors = [t for t in all_omega_mors(x, x) if _is_fiber_identity(localize_morphism(t), m)]
    assert len(wanted[0][1]) == len(factors) == 1

    rep = Report("sound")
    _check_one_factorization(rep, z, m, g, phi, wanted, lambda w: factors)
    assert rep.ok

    for phi_, factors_ in ((wrong_phi, factors), (phi, [])):
        rep = Report("corrupted")
        _check_one_factorization(rep, z, m, g, phi_, wanted, lambda w: factors_)
        assert [(f.check, f.witness[2]) for f in rep.findings] == [
            ("factorization-universality", 0)
        ]


def _compositions(total, parts):
    # the recursive reference: run lengths, head first, in ascending order
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def test_run_splits_follow_the_composition_order():
    # the sampled tier keeps the first squares of each hom set, so the
    # order of the splits is part of what it checks
    for length in range(6):
        seq = tuple(f"s{k}" for k in range(length))
        for n_parts in range(4):
            parts = tuple(f"p{u}" for u in range(n_parts))
            want = []
            for comp in _compositions(length, n_parts):
                cuts = [0]
                for ln in comp:
                    cuts.append(cuts[-1] + ln)
                want.append({u: seq[a:b] for u, a, b in zip(parts, cuts, cuts[1:])})
            got = list(_run_splits(seq, parts))
            assert got == want, (length, n_parts)
            assert [list(split) for split in got] == [list(parts)] * len(want)


@pytest.mark.parametrize(
    "bud, deep, message",
    [
        ((1, 1, 1, 0), True, "bud (1, 1, 1, 0) is not a LocalizeBudget"),
        (None, True, "bud None is not a LocalizeBudget"),
        (LocalizeBudget(0, 1, 1, 0), "no", "deep 'no' is not a bool"),
        (LocalizeBudget(0, 1, 1, 0), 1, "deep 1 is not a bool"),
    ],
)
def test_malformed_sweep_arguments_raise(bud, deep, message):
    with pytest.raises(ValueError) as err:
        verify_localization(bud, deep)
    assert type(err.value) is ValueError
    assert str(err.value) == message
