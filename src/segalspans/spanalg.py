"""Tuple-of-intervals morphisms, their set-valued functor, and the
span algebra carried by a simplicial object.

Objects are nonempty tuples of interval ranks.  A morphism into an
l-tuple from a k-tuple is a list of l blocks, one per target slot: the
source slot the target slot reads, and a vertex list naming a monotone
map from the target interval into that source interval (the vertex
list ``sobj.simplex_map`` takes).  The source slots are monotone in the
target slot, and the target intervals over one source slot glue end to
end, as checked on consecutive blocks: within a fiber they share their
junction vertex; a block followed by a later fiber ends at the top of
its interval, one preceded by an earlier fiber starts at the bottom,
and source slots skipped in between have rank 0.  Composition reads
every block through the block it lands on (``compose_blocks``), here
and for the family morphisms of the cyclic layer.
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
    gather_positions,
    identity_span,
    limit,
    product_carrier,
    reverse_span,
    span_from_maps,
    spans_isomorphic,
    tensor_spans,
    terminal_map,
    terminal_set,
    tupled_values,
)
from .labels import label_key
from .report import Report
from .segal import judge_bijection, judge_square, square_instances
from .sobj import simplex_map


def check_rank(r):
    """Validate an interval rank: an int, not a bool, and at least 0."""
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"rank {r!r} is not an int")
    if r < 0:
        raise ValueError(f"rank {r} is negative")
    return r


def check_block(where, verts, rank, top):
    """Validate a block's vertex list: ints (not bools) naming a monotone [rank] -> [top]."""
    if len(verts) != rank + 1:
        raise ValueError(f"block at {where!r} has {len(verts)} vertices, not {rank + 1}")
    for v in verts:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"block at {where!r} has vertex {v!r}, not an int")
    for a, b in zip(verts, verts[1:]):
        if a > b:
            raise ValueError(f"block at {where!r} is not monotone")
    if verts[0] < 0 or verts[-1] > top:
        raise ValueError(f"block at {where!r} leaves the interval [{top}]")


def compose_blocks(blocks, outer):
    """The blocks of a composite g . f.

    ``blocks`` are the (slot, vertex list) blocks of g, ``outer(j)`` the
    block of f at slot j of the middle object; each block of g is read
    through the block it lands on.
    """
    composite = []
    for j, verts in blocks:
        i, outer_verts = outer(j)
        composite.append((i, tuple(map(outer_verts.__getitem__, verts))))
    return tuple(composite)


@dataclass(frozen=True)
class DeltaStarObj:
    ranks: tuple

    def __post_init__(self):
        ranks = tuple(map(check_rank, self.ranks))
        if not ranks:
            raise ValueError("tuple objects are nonempty")
        object.__setattr__(self, "ranks", ranks)

    def __len__(self):
        return len(self.ranks)


@dataclass(frozen=True)
class DeltaStarMor:
    src: DeltaStarObj
    dst: DeltaStarObj
    blocks: tuple  # (source slot, vertex list) per target slot

    def __post_init__(self):
        blocks = tuple((i, tuple(verts)) for i, verts in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        src, dst = self.src.ranks, self.dst.ranks
        if len(blocks) != len(dst):
            raise ValueError("need one block per target slot")
        for t, (i, verts) in enumerate(blocks):
            if not isinstance(i, int) or isinstance(i, bool):
                raise ValueError(f"block at {t} names source slot {i!r}, not an int")
            if not 0 <= i < len(src):
                raise ValueError(f"block at {t} reads source slot {i}, out of range")
            check_block(t, verts, dst[t], src[i])
        for t, ((i, a), (j, b)) in enumerate(zip(blocks, blocks[1:])):
            if i == j:
                if a[-1] != b[0]:
                    raise ValueError(f"blocks at {t} and {t + 1} must share their junction")
                continue
            if i > j:
                raise ValueError("source slots must be monotone")
            if a[-1] != src[i]:
                raise ValueError(f"block at {t} must end at the top of slot {i}")
            if b[0] != 0:
                raise ValueError(f"block at {t + 1} must start at the bottom of slot {j}")
            for s in range(i + 1, j):
                if src[s] != 0:
                    raise ValueError(f"skipped interior slot {s} must have rank 0")

    def compose(self, other):
        """self after other."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        return DeltaStarMor(
            other.src, self.dst, compose_blocks(self.blocks, other.blocks.__getitem__)
        )


def identity_star(obj):
    return DeltaStarMor(
        obj, obj, tuple((i, tuple(range(r + 1))) for i, r in enumerate(obj.ranks))
    )


def assembly_mor(total, parts):
    """The morphism from a single interval onto its gluing into parts."""
    src = DeltaStarObj((total,))
    dst = DeltaStarObj(tuple(parts))
    if sum(parts) != total:
        raise ValueError("parts must glue to the total rank")
    cuts = itertools.pairwise(itertools.accumulate(parts, initial=0))
    return DeltaStarMor(src, dst, tuple((0, tuple(range(a, b + 1))) for a, b in cuts))


def single_interval_mor(a, b, images):
    """The morphism ([a]) -> ([b]) carrying a monotone map [b] -> [a]."""
    return DeltaStarMor(DeltaStarObj((a,)), DeltaStarObj((b,)), ((0, tuple(images)),))


def projection_mor(obj, i):
    return DeltaStarMor(
        obj, DeltaStarObj((obj.ranks[i],)), ((i, tuple(range(obj.ranks[i] + 1))),)
    )


def all_delta_star_mors(src, dst):
    """Every morphism src -> dst; exhaustive, for small ranks only.

    Listed by index map, then by the glued map of each hit source slot:
    the monotone map from the end-to-end gluing of its fiber, which the
    fiber's blocks cut into pieces sharing their junctions.
    """
    out = []
    k, l = len(src), len(dst)
    for phi in itertools.combinations_with_replacement(range(k), l):
        hit = sorted(set(phi))
        if any(src.ranks[i] != 0 for i in range(hit[0] + 1, hit[-1]) if i not in hit):
            continue
        pools = []
        for i in hit:
            fiber = [t for t, p in enumerate(phi) if p == i]
            cands = itertools.combinations_with_replacement(
                range(src.ranks[i] + 1), sum(dst.ranks[t] for t in fiber) + 1
            )
            pools.append([
                c for c in cands
                if (phi[-1] == i or c[-1] == src.ranks[i]) and (phi[0] == i or c[0] == 0)
            ])
        # where each target slot's piece starts in its glued map
        starts = []
        for t, i in enumerate(phi):
            starts.append(starts[-1] + dst.ranks[t - 1] if t and phi[t - 1] == i else 0)
        slot = {i: n for n, i in enumerate(hit)}
        for glued in itertools.product(*pools):
            blocks = tuple(
                (i, glued[slot[i]][a : a + r + 1])
                for i, a, r in zip(phi, starts, dst.ranks)
            )
            out.append(DeltaStarMor(src, dst, blocks))
    return out


class StarFunctor:
    """The set-valued functor: tuples go to products of simplex levels,
    morphisms act slotwise by the structure maps of their blocks."""

    def __init__(self, x):
        self.x = x

    def value(self, obj):
        if max(obj.ranks) > self.x.top_rank:
            raise ValueError("insufficient truncation")
        return product_carrier([self.x.level(r) for r in obj.ranks])

    def action(self, mor):
        src, dst = self.value(mor.src), self.value(mor.dst)
        reads = [
            (i, simplex_map(self.x, mor.src.ranks[i], verts).positions())
            for i, verts in mor.blocks
        ]
        src_sizes = [len(self.x.level(r)) for r in mor.src.ranks]
        dst_sizes = [len(self.x.level(r)) for r in mor.dst.ranks]
        column = gather_positions(src_sizes, reads, dst_sizes)
        return FinMap(src, dst, tuple(map(dst.elements.__getitem__, column)))


def check_algebra_conditions(x):
    """Algebra conditions for the star functor of a simplicial object.

    Reduced squares (one non-trivial interval per tuple) must go to
    pullbacks; tuple objects must go to honest products; the fan
    decompositions of length three with block sizes (1, 1, 1),
    (1, 2, 1) and (2, 1, 1) are re-checked as redundancy.
    """
    rep = Report("algebra-conditions")
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
        to_ones = DeltaStarMor(
            tuple_obj,
            ones,
            tuple((t, (0, m) if t == j - 1 else (0, 1)) for t in range(n)),
        )
        if to_ones.compose(asm_big) != asm_n.compose(outer):
            raise AssertionError("reduced square does not commute")
        judge_square(
            rep, "reduced-square", (n, m, j), f.action(asm_big), f.action(outer),
            f.action(to_ones), f.action(asm_n),
        )
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
    for (a, b, c) in [(1, 1, 1), (1, 2, 1), (2, 1, 1)]:
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
    right = product_carrier((x1, terminal_set()))
    left = product_carrier((terminal_set(), x1))
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


def check_associativity(x):
    """Associativity and unit laws for the multiplication span.

    Both bracketings of the double multiplication must agree with the
    threefold span out of X3, and the unit span must be neutral.
    """
    rep = Report("associativity")
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
