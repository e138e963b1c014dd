"""Tuple-of-intervals morphisms, their set-valued functor, and the
span algebra carried by a simplicial object.

Objects are nonempty tuples of interval ranks.  A morphism into an
l-tuple from a k-tuple consists of a monotone index map sending target
slots to source slots together with, for each hit source slot, a
monotone map from the end-to-end gluing of the target intervals over
that slot into the source interval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finset import (
    FinDiagram,
    FinMap,
    Span,
    compose_spans,
    fin_map_by,
    identity_span,
    limit,
    product_carrier,
    product_set,
    pullback,
    reverse_span,
    slotwise_map,
    span_from_maps,
    spans_isomorphic,
    tensor_spans,
    terminal_map,
    terminal_set,
    tupled_values,
)
from .labels import label_key
from .orders import all_lin_maps, standard_order
from .report import Report
from .segal import judge_bijection, square_instances
from .sobj import simplex_map


@dataclass(frozen=True)
class DeltaStarObj:
    ranks: tuple

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        if not ranks:
            raise ValueError("tuple objects are nonempty")
        if any(r < 0 for r in ranks):
            raise ValueError("ranks are nonnegative")
        object.__setattr__(self, "ranks", ranks)

    def __len__(self):
        return len(self.ranks)


@dataclass(frozen=True)
class DeltaStarMor:
    src: DeltaStarObj
    dst: DeltaStarObj
    phi: tuple  # source slot per target slot, monotone
    comps: tuple  # ((source slot, images tuple), ...) for hit slots only

    def __post_init__(self):
        phi = tuple(int(p) for p in self.phi)
        comps = tuple((int(i), tuple(v)) for i, v in self.comps)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "comps", comps)
        if len(phi) != len(self.dst):
            raise ValueError("index map must cover every target slot")
        if any(p < 0 or p >= len(self.src) for p in phi):
            raise ValueError("index map out of range")
        if any(phi[t] > phi[t + 1] for t in range(len(phi) - 1)):
            raise ValueError("index map must be monotone")
        hit = sorted(set(phi))
        if tuple(i for i, _ in comps) != tuple(hit):
            raise ValueError("need exactly one glued map per hit slot")
        by_slot = dict(comps)
        for i in hit:
            dom = self.glued_rank(i)
            images = by_slot[i]
            if len(images) != dom + 1:
                raise ValueError(f"glued map at slot {i} has wrong length")
            if any(v < 0 or v > self.src.ranks[i] for v in images):
                raise ValueError(f"glued map at slot {i} out of range")
            if any(images[t] > images[t + 1] for t in range(dom)):
                raise ValueError(f"glued map at slot {i} not monotone")
            # reaching past the slot forces the glued map to an endpoint
            if phi[-1] > i and images[-1] != self.src.ranks[i]:
                raise ValueError(f"glued map at slot {i} must end at the top")
            if phi[0] < i and images[0] != 0:
                raise ValueError(f"glued map at slot {i} must start at the bottom")
        for i in range(len(self.src)):
            if i in by_slot:
                continue
            if hit and hit[0] < i < hit[-1] and self.src.ranks[i] != 0:
                raise ValueError(f"skipped interior slot {i} must have rank 0")

    def fiber(self, i):
        return tuple(t for t, p in enumerate(self.phi) if p == i)

    def glued_rank(self, i):
        return sum(self.dst.ranks[t] for t in self.fiber(i))

    def comp(self, i):
        return dict(self.comps)[i]

    def block_offset(self, t):
        """Offset of target slot t inside the gluing over its source slot."""
        i = self.phi[t]
        return sum(self.dst.ranks[u] for u in self.fiber(i) if u < t)

    def compose(self, other):
        """self after other."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        # other: A -> B, self: B -> C
        phi = tuple(other.phi[p] for p in self.phi)
        covered = set(self.phi)
        comps = []
        for i in sorted(set(phi)):
            images = []
            started = False
            for j in other.fiber(i):
                if j not in covered:
                    continue
                block = [v + other.block_offset(j) for v in self.comp(j)]
                if not started:
                    images.extend(block)
                    started = True
                else:
                    # consecutive blocks share their junction position
                    images.extend(block[1:])
            outer = dict(other.comps)[i]
            comps.append((i, tuple(outer[v] for v in images)))
        return DeltaStarMor(other.src, self.dst, phi, tuple(comps))


def identity_star(obj):
    return DeltaStarMor(
        obj,
        obj,
        tuple(range(len(obj))),
        tuple((i, tuple(range(r + 1))) for i, r in enumerate(obj.ranks)),
    )


def assembly_mor(total, parts):
    """The morphism from a single interval onto its gluing into parts."""
    src = DeltaStarObj((total,))
    dst = DeltaStarObj(tuple(parts))
    if sum(parts) != total:
        raise ValueError("parts must glue to the total rank")
    return DeltaStarMor(
        src, dst, (0,) * len(parts), ((0, tuple(range(total + 1))),)
    )


def single_interval_mor(a, b, images):
    """The morphism ([a]) -> ([b]) carrying a monotone map [b] -> [a]."""
    return DeltaStarMor(
        DeltaStarObj((a,)), DeltaStarObj((b,)), (0,), ((0, tuple(images)),)
    )


def projection_mor(obj, i):
    return DeltaStarMor(
        obj,
        DeltaStarObj((obj.ranks[i],)),
        (i,),
        ((i, tuple(range(obj.ranks[i] + 1))),),
    )


def all_delta_star_mors(src, dst):
    """Every morphism src -> dst; exhaustive, for small ranks only."""
    out = []
    k, l = len(src), len(dst)
    for phi in itertools.combinations_with_replacement(range(k), l):
        hit = sorted(set(phi))
        if any(
            hit[0] < i < hit[-1] and src.ranks[i] != 0
            for i in range(k)
            if i not in set(hit)
        ):
            continue
        per_slot = []
        ok = True
        for i in hit:
            fiber = [t for t, p in enumerate(phi) if p == i]
            dom = sum(dst.ranks[t] for t in fiber)
            cands = [
                tuple(m.positions)
                for m in all_lin_maps(standard_order(dom), standard_order(src.ranks[i]))
            ]
            if phi[-1] > i:
                cands = [c for c in cands if c[-1] == src.ranks[i]]
            if phi[0] < i:
                cands = [c for c in cands if c[0] == 0]
            if not cands:
                ok = False
                break
            per_slot.append((i, cands))
        if not ok:
            continue
        for choice in itertools.product(*(c for _, c in per_slot)):
            comps = tuple((i, c) for (i, _), c in zip(per_slot, choice))
            out.append(DeltaStarMor(src, dst, phi, comps))
    return out


class StarFunctor:
    """The set-valued functor: tuples go to products of simplex levels,
    morphisms act by the glued structure maps slotwise."""

    def __init__(self, x):
        self.x = x

    def value(self, obj):
        if max(obj.ranks) > self.x.top_rank:
            raise ValueError("insufficient truncation")
        return product_carrier([self.x.level(r) for r in obj.ranks])

    def action(self, mor):
        src_v = self.value(mor.src)
        dst_v = self.value(mor.dst)
        slot_maps = []
        for t, r in enumerate(mor.dst.ranks):
            # target slot t reads its block of the glued map over slot i
            i, off = mor.phi[t], mor.block_offset(t)
            piece = simplex_map(self.x, mor.src.ranks[i], mor.comp(i)[off : off + r + 1])
            slot_maps.append((i, piece.as_dict()))
        return slotwise_map(src_v, dst_v, slot_maps)


def check_algebra_conditions(x, report=None, fan_triples=None):
    """Algebra conditions for the star functor of a simplicial object.

    Reduced squares (one non-trivial interval per tuple) must go to
    pullbacks; tuple objects must go to honest products; a few fan
    decompositions of length three are re-checked as redundancy.
    """
    rep = report if report is not None else Report("algebra-conditions")
    f = StarFunctor(x)
    top = x.top_rank
    if top < 3:
        raise ValueError("truncation too low for algebra conditions")
    for n, m, j in square_instances(top):
        big = n + m - 1
        tuple_obj = DeltaStarObj((1,) * (j - 1) + (m,) + (1,) * (n - j))
        ones = DeltaStarObj((1,) * n)
        asm_big = assembly_mor(big, tuple_obj.ranks)
        outer = single_interval_mor(
            big, n, tuple(p if p < j else p + m - 1 for p in range(n + 1))
        )
        asm_n = assembly_mor(n, ones.ranks)
        slot_maps = []
        for t in range(n):
            if t == j - 1:
                slot_maps.append((t, (0, m)))
            else:
                slot_maps.append((t, (0, 1)))
        to_ones = DeltaStarMor(
            tuple_obj, ones, tuple(range(n)), tuple(slot_maps)
        )
        if to_ones.compose(asm_big) != asm_n.compose(outer):
            raise AssertionError("reduced square does not commute")
        pb, _, _ = pullback(f.action(to_ones), f.action(asm_n))
        a1 = f.action(asm_big)
        a2 = f.action(outer)
        values = tupled_values(a1.src, (a1, a2))
        judge_bijection(rep, "reduced-square", (n, m, j), a1.src, values, pb)
    rep.note_scope(f"reduced squares through rank {top}")
    # products: the value of a tuple is the product of its slot values
    for ranks in [(1, 1), (1, 2), (2, 1), (2, 1, 2)]:
        if max(ranks) > top:
            continue
        obj = DeltaStarObj(ranks)
        # every projection starts at its own equal copy of f.value(obj)
        projs = [f.action(projection_mor(obj, i)) for i in range(len(ranks))]
        values = tupled_values(projs[0].src, projs)
        expect = product_carrier([f.value(DeltaStarObj((r,))) for r in ranks])
        judge_bijection(
            rep, "product-cone", ranks, projs[0].src, values, expect
        )
    rep.note_scope("product cones on sample tuples")
    if fan_triples is None:
        fan_triples = [(1, 1, 1), (1, 2, 1), (2, 1, 1)]
    for (a, b, c) in fan_triples:
        big = a + b + c
        if big > top:
            continue
        nodes = (
            ("c1", x.level(a)), ("c2", x.level(b + 1)), ("c3", x.level(c + 1)),
            ("d1", x.level(1)), ("d2", x.level(1)),
        )
        arrows = (
            ("c1", "d1", simplex_map(x, a, (0, a))),
            ("c2", "d1", simplex_map(x, b + 1, (0, 1))),
            ("c2", "d2", simplex_map(x, b + 1, (0, b + 1))),
            ("c3", "d2", simplex_map(x, c + 1, (0, 1))),
        )
        obj, _ = limit(FinDiagram(nodes, arrows))
        names = sorted([n for n, _ in nodes], key=label_key)
        # the three cells of the fan at vertex 0 and its two inner diagonals
        value_maps = {
            "c1": simplex_map(x, big, range(a + 1)),
            "c2": simplex_map(x, big, (0, *range(a, a + b + 1))),
            "c3": simplex_map(x, big, (0, *range(a + b, big + 1))),
            "d1": simplex_map(x, big, (0, a)),
            "d2": simplex_map(x, big, (0, a + b)),
        }
        values = tupled_values(x.level(big), [value_maps[nm] for nm in names])
        judge_bijection(
            rep, "fan-limit", (a, b, c), x.level(big), values, obj
        )
    rep.note_scope("fan decompositions of length three")
    return rep


def multiplication_span(x):
    """X1 x X1 <- X2 -> X1 with outer faces left and the inner face right."""
    x2 = x.level(2)
    left_obj = product_carrier((x.level(1), x.level(1)))
    left = FinMap(x2, left_obj, tupled_values(x2, (x.face(2, 2), x.face(2, 0))))
    return Span(left_obj, x.level(1), x2, left, x.face(2, 1))


def unit_span(x):
    """1 <- X0 -> X1 via the degeneracy."""
    return span_from_maps(terminal_map(x.level(0)), x.degen(0, 0))


def _threefold_span(x, nest_left):
    """X1^3 <- X3 -> X1, the left object nested to match a tensor order."""
    x1, x3 = x.level(1), x.level(3)
    pairs = product_carrier((x1, x1))
    e01, e12, e23 = (simplex_map(x, 3, (i, i + 1)).assignment for i in range(3))
    if nest_left:
        lo, rows = product_carrier((pairs, x1)), zip(zip(e01, e12), e23)
    else:
        lo, rows = product_carrier((x1, pairs)), zip(e01, zip(e12, e23))
    return Span(lo, x1, x3, FinMap(x3, lo, rows), simplex_map(x, 3, (0, 3)))


def unitor_spans(x1):
    """The unitor spans X1 -> X1 x 1, back, X1 -> 1 x X1 and back.

    Returned as (into_right, out_of_right, into_left, out_of_left).
    """
    right, _, _ = product_set(x1, terminal_set())
    left, _, _ = product_set(terminal_set(), x1)
    into_right = Span(
        x1, right, x1, fin_map_by(x1, x1, lambda e: e),
        fin_map_by(x1, right, lambda e: (e, ())),
    )
    out_of_right = Span(
        right, x1, right, fin_map_by(right, right, lambda e: e),
        fin_map_by(right, x1, lambda e: e[0]),
    )
    into_left = Span(
        x1, left, x1, fin_map_by(x1, x1, lambda e: e),
        fin_map_by(x1, left, lambda e: ((), e)),
    )
    out_of_left = Span(
        left, x1, left, fin_map_by(left, left, lambda e: e),
        fin_map_by(left, x1, lambda e: e[1]),
    )
    return into_right, out_of_right, into_left, out_of_left


def check_associativity(x, report=None):
    """Associativity and unit laws for the multiplication span.

    Both bracketings of the double multiplication must agree with the
    threefold span out of X3, and the unit span must be neutral.
    """
    rep = report if report is not None else Report("associativity")
    if x.top_rank < 3:
        raise ValueError("truncation too low for associativity")
    mu = multiplication_span(x)
    one = identity_span(x.level(1))
    left_first = compose_spans(tensor_spans(mu, one), mu)
    right_first = compose_spans(tensor_spans(one, mu), mu)
    if not spans_isomorphic(left_first, _threefold_span(x, True)):
        rep.fail("assoc-left", (), detail="(ab)c does not match the threefold span")
    if not spans_isomorphic(right_first, _threefold_span(x, False)):
        rep.fail("assoc-right", (), detail="a(bc) does not match the threefold span")
    into_right, _, into_left, _ = unitor_spans(x.level(1))
    lu = compose_spans(tensor_spans(unit_span(x), one), mu)
    if not spans_isomorphic(lu, reverse_span(into_left)):
        rep.fail("unit-left", (), detail="left unit law fails")
    ru = compose_spans(tensor_spans(one, unit_span(x)), mu)
    if not spans_isomorphic(ru, reverse_span(into_right)):
        rep.fail("unit-right", (), detail="right unit law fails")
    rep.note_scope("threefold span comparison and both unit laws")
    return rep
