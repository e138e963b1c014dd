"""Cyclic algebra layer: ordered pointed maps, mixed interval/cyclic
tuples, and the Calabi-Yau style checks for cyclic objects.

Three pieces live here.  First, a small category of finite pointed sets
whose maps carry a linear order on every fiber, together with a formal
terminal-like object (``DIAMOND``) that absorbs cyclically ordered
subsets.  Second, the category of interval families and cyclic ranks
through which a cyclic object becomes a set-valued functor: families map
to products of levels, cyclic ranks to the matching level, and the three
morphism shapes act through the stored face, degeneracy and rotation
tables.  Third, the checkers: product cones, subdivision pullbacks,
rotation bijections, and the trace pairing with its zig-zag duals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .finset import (
    FinMap,
    Span,
    big_product,
    compose_spans,
    fin_map_by,
    gather_positions,
    identity_span,
    product_carrier,
    product_label,
    reverse_span,
    spans_isomorphic,
    tensor_spans,
    terminal_map,
    terminal_set,
)
from .labels import BASE, label_key, trusted
from .orders import (
    CycMap,
    CycOrd,
    cyc_map_by,
    identity_cyc,
    standard_cycle,
)
from .dualities import PointedSet
from .report import Report
from .sobj import CycObj, apply_lambda_op, simplex_map
from .segal import judge_bijection, judge_pullback_bijection, judge_square
from .spanalg import (
    check_block,
    check_rank,
    compose_blocks,
    multiplication_span,
    unitor_spans,
)


@dataclass(frozen=True)
class _Diamond:
    def __repr__(self):
        return "DIAMOND"


DIAMOND = _Diamond()


# --------------------------------------------------------------------------
# pointed maps with ordered fibers


@dataclass(frozen=True)
class AssMor:
    """A pointed map together with a linear order on every fiber.

    ``fibers`` pairs each non-basepoint target element with the ordered
    tuple of its preimages; source elements missing from every fiber go
    to the basepoint.  Composition concatenates fibers lexicographically.
    """

    src: PointedSet
    dst: PointedSet
    fibers: tuple

    def __post_init__(self):
        fib = {t: tuple(f) for t, f in self.fibers}
        if len(fib) != len(self.fibers):
            raise ValueError("duplicate fiber key")
        if set(fib) != set(self.dst.points):
            raise ValueError("fibers must be indexed by the whole target")
        members = list(itertools.chain.from_iterable(fib.values()))
        if len(set(members)) != len(members):
            raise ValueError("fibers overlap")
        for x in members:
            if x not in self.src.points:
                raise ValueError(f"fiber member {x!r} not in the source")
        canon = tuple(
            sorted(fib.items(), key=lambda tf: label_key(tf[0]))
        )
        object.__setattr__(self, "fibers", canon)

    def fiber(self, t):
        for tt, f in self.fibers:
            if tt == t:
                return f
        raise ValueError(f"{t!r} is not in the target")

    def __call__(self, x):
        for t, f in self.fibers:
            if x in f:
                return t
        if x in self.src.points:
            return BASE
        raise ValueError(f"{x!r} is not in the source")

    def compose(self, other):
        """self after other; ordered fibers concatenate.

        The fibers of two valid maps concatenate to a valid map, already
        in the canonical order of ``self.fibers``, so the constructor's
        re-validation is skipped.
        """
        if other.dst != self.src:
            raise ValueError("middle objects disagree")
        fibers = tuple(
            (t, tuple(itertools.chain.from_iterable(other.fiber(m) for m in f)))
            for t, f in self.fibers
        )
        return trusted(AssMor, src=other.src, dst=self.dst, fibers=fibers)


@dataclass(frozen=True)
class DiamondMor:
    """A map into the absorbing object: a cyclically ordered subset.

    The chosen subset of the source is the carrier of ``cycle``; the
    rest of the source is silently discarded.  ``cycle`` is None for the
    empty subset.
    """

    src: PointedSet
    cycle: object

    def __post_init__(self):
        if self.cycle is not None:
            for x in self.cycle.cycle:
                if x not in self.src.points:
                    raise ValueError(f"cycle member {x!r} not in the source")

    @property
    def dst(self):
        return DIAMOND

    @property
    def subset(self):
        return frozenset(() if self.cycle is None else self.cycle.carrier)

    def compose(self, other):
        """self after other, reading fibers around the cycle."""
        if other.dst != self.src:
            raise ValueError("middle objects disagree")
        if self.cycle is None:
            return DiamondMor(other.src, None)
        seq = tuple(
            itertools.chain.from_iterable(
                other.fiber(t) for t in self.cycle.cycle
            )
        )
        return DiamondMor(other.src, CycOrd(seq) if seq else None)


@dataclass(frozen=True)
class IdDiamond:
    """The identity of the absorbing object, its only outgoing map."""

    @property
    def src(self):
        return DIAMOND

    @property
    def dst(self):
        return DIAMOND


ID_DIAMOND = IdDiamond()


def ass_identity(obj):
    if obj is DIAMOND:
        return ID_DIAMOND
    return AssMor(obj, obj, tuple((x, (x,)) for x in obj.points))


def ass_compose(g, f):
    """g after f in the ordered-fiber category."""
    if isinstance(f, IdDiamond):
        if not isinstance(g, IdDiamond):
            raise ValueError("nothing maps out of the absorbing object")
        return ID_DIAMOND
    if isinstance(g, IdDiamond):
        if isinstance(f, (DiamondMor, IdDiamond)):
            return f
        raise ValueError("composite endpoints disagree")
    return g.compose(f)


def all_ass_mors(src, dst):
    """Every ordered-fiber map src -> dst between pointed sets.

    Each map is built trusted: its fibers are disjoint orderings of
    source points, keyed by the target points in their canonical order.
    """
    pts = src.points
    targets = (None,) + dst.points
    for values in itertools.product(targets, repeat=len(pts)):
        groups = {t: [x for x, v in zip(pts, values) if v == t] for t in dst.points}
        pools = [
            itertools.permutations(groups[t]) for t in dst.points
        ]
        for orders in itertools.product(*pools):
            yield trusted(
                AssMor, src=src, dst=dst, fibers=tuple(zip(dst.points, map(tuple, orders)))
            )


def all_diamond_mors(src):
    """Every cyclically-ordered-subset map out of a pointed set."""
    pts = src.points
    for r in range(len(pts) + 1):
        for subset in itertools.combinations(pts, r):
            if r == 0:
                yield DiamondMor(src, None)
                continue
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                yield DiamondMor(src, CycOrd((first,) + perm))


# --------------------------------------------------------------------------
# interval families and cyclic ranks


@dataclass(frozen=True)
class FamilyObj:
    """A finite family of interval ranks keyed by an index set."""

    slots: tuple  # (index label, rank) pairs

    def __post_init__(self):
        slots = tuple(sorted(self.slots, key=lambda s: label_key(s[0])))
        if len({i for i, _ in slots}) != len(slots):
            raise ValueError("repeated index label")
        for _, r in slots:
            check_rank(r)
        object.__setattr__(self, "slots", slots)

    @property
    def index(self):
        return tuple(i for i, _ in self.slots)

    @property
    def ranks(self):
        return {i: r for i, r in self.slots}

    def rank_of(self, i):
        return self.ranks[i]

    def slot_position(self, i):
        return self.index.index(i)

    def __len__(self):
        return len(self.slots)


@dataclass(frozen=True)
class CyclicRank:
    """A bare cyclic rank; the functor sends it to the matching level."""

    rank: int

    def __post_init__(self):
        check_rank(self.rank)


def family_union_cycle(fam, cycle):
    """The cyclic order gluing the skeletal blocks of a family.

    Walks ``cycle`` through the index set and lays out each block
    bottom to top; elements are (index, point) pairs.
    """
    if tuple(sorted(cycle.cycle, key=label_key)) != fam.index:
        raise ValueError("cycle must order the family index set")
    seq = []
    for i in cycle.cycle:
        seq.extend((i, x) for x in range(fam.rank_of(i) + 1))
    return CycOrd(tuple(seq))


@dataclass(frozen=True)
class FamilyMor:
    """A morphism of families: one block per target slot, and a linear
    order on every fiber of the index map against the arrow.

    ``blocks`` pairs every target index t with its block (i, vertices):
    the source index t reads and a vertex list naming a monotone map
    [rank_t] -> [rank_i], as ``sobj.simplex_map`` takes it.
    ``fiber_orders`` lists, for every source index i, the target indices
    whose blocks read i, in a chosen order; it is data of its own, since
    equal blocks do not fix it.  Along a fiber order the blocks never
    decrease (each starts at or above the end of the one before it), so
    together they form one monotone map from the ordinal sum of the
    fiber's intervals.  Unlike tuple morphisms, consecutive blocks need
    not share a vertex and no endpoint condition is imposed.
    """

    src: FamilyObj
    dst: FamilyObj
    blocks: tuple  # (target index, (source index, vertex list)) pairs
    fiber_orders: tuple  # (source index, ordered tuple of target indices)

    def __post_init__(self):
        blocks = {t: (i, tuple(verts)) for t, (i, verts) in self.blocks}
        dst_index = self.dst.index
        if len(blocks) != len(self.blocks) or set(blocks) != set(dst_index):
            raise ValueError("need one block per target index")
        src_ranks, dst_ranks = self.src.ranks, self.dst.ranks
        fiber_sizes = dict.fromkeys(src_ranks, 0)
        for t, (i, verts) in blocks.items():
            if i not in src_ranks:
                raise ValueError(f"block at {t!r} reads {i!r}, not a source index")
            fiber_sizes[i] += 1
            check_block(t, verts, dst_ranks[t], src_ranks[i])
        orders = {i: tuple(order) for i, order in self.fiber_orders}
        if len(orders) != len(self.fiber_orders) or set(orders) != set(src_ranks):
            raise ValueError("need one fiber order per source index")
        for i, order in orders.items():
            if (
                len(order) != fiber_sizes[i]
                or len(set(order)) != len(order)
                or any(t not in blocks or blocks[t][0] != i for t in order)
            ):
                raise ValueError(f"fiber order at {i!r} does not list the fiber")
            for a, b in zip(order, order[1:]):
                if blocks[a][1][-1] > blocks[b][1][0]:
                    raise ValueError(f"blocks at {a!r} and {b!r} decrease along the fiber")
        object.__setattr__(self, "blocks", tuple((t, blocks[t]) for t in dst_index))
        object.__setattr__(
            self, "fiber_orders", tuple((i, orders[i]) for i in self.src.index)
        )

    def fiber_order(self, i):
        return dict(self.fiber_orders)[i]


@dataclass(frozen=True)
class CycRankMor:
    """A morphism of cyclic ranks, carried by a cyclic map against the
    arrow: a map A -> B stores an operator on standard cycles from B's
    to A's."""

    src: CyclicRank
    dst: CyclicRank
    op: CycMap

    def __post_init__(self):
        if self.op.src != standard_cycle(self.dst.rank):
            raise ValueError("operator must start at the target cycle")
        if self.op.dst != standard_cycle(self.src.rank):
            raise ValueError("operator must end at the source cycle")


@dataclass(frozen=True)
class CycToFamilyMor:
    """A morphism from a cyclic rank to a family.

    Data: a cyclic order on the family's index set and a cyclic map from
    the glued block cycle into the source's standard cycle.  The empty
    family admits exactly one such morphism, carrying no data.
    """

    src: CyclicRank
    dst: FamilyObj
    cycle: object  # CycOrd on the index set, or None when empty
    op: object  # CycMap from the union cycle, or None when empty

    def __post_init__(self):
        if len(self.dst) == 0:
            if self.cycle is not None or self.op is not None:
                raise ValueError("empty family target carries no data")
            return
        if self.cycle is None or self.op is None:
            raise ValueError("nonempty family target needs cycle and map")
        union = family_union_cycle(self.dst, self.cycle)
        if self.op.src != union:
            raise ValueError("map must start at the glued block cycle")
        if self.op.dst != standard_cycle(self.src.rank):
            raise ValueError("map must end at the source cycle")


def lambda_star_identity(obj):
    if isinstance(obj, CyclicRank):
        return CycRankMor(obj, obj, identity_cyc(standard_cycle(obj.rank)))
    return FamilyMor(
        obj,
        obj,
        tuple((i, (i, tuple(range(r + 1)))) for i, r in obj.slots),
        tuple((i, (i,)) for i in obj.index),
    )


def _compose_family(g, f):
    # g after f, both family morphisms; fiber orders walk f's fibers
    # and, inside each, g's
    targets = [u for u, _ in g.blocks]
    blocks = compose_blocks((b for _, b in g.blocks), dict(f.blocks).__getitem__)
    g_orders = dict(g.fiber_orders)
    orders = tuple(
        (i, tuple(u for j in order for u in g_orders[j])) for i, order in f.fiber_orders
    )
    return FamilyMor(f.src, g.dst, tuple(zip(targets, blocks)), orders)


def _compose_family_after_round(g, f):
    # g: family morphism after f: cyclic-to-family morphism
    if len(g.dst) == 0:
        return CycToFamilyMor(f.src, g.dst, None, None)
    orders = dict(g.fiber_orders)
    cycle = CycOrd(tuple(k for j in f.cycle.cycle for k in orders[j]))
    union = family_union_cycle(g.dst, cycle)
    mid_union = f.op.src
    blocks = dict(g.blocks)
    # the point (k, x) of the glued cycle goes to the vertex of j that
    # k's block reads at x
    fibers = {e: [] for e in mid_union.cycle}
    for j in f.cycle.cycle:
        for k in orders[j]:
            for x, v in enumerate(blocks[k][1]):
                fibers[(j, v)].append((k, x))
    glue = CycMap(union, mid_union, tuple((e, tuple(v)) for e, v in fibers.items()))
    return CycToFamilyMor(f.src, g.dst, cycle, f.op.compose(glue))


def lambda_star_compose(g, f):
    """g after f among family and cyclic-rank morphisms."""
    if f.dst != g.src:
        raise ValueError("middle objects disagree")
    if isinstance(f, CycRankMor) and isinstance(g, CycRankMor):
        return CycRankMor(f.src, g.dst, f.op.compose(g.op))
    if isinstance(f, CycRankMor) and isinstance(g, CycToFamilyMor):
        if len(g.dst) == 0:
            return CycToFamilyMor(f.src, g.dst, None, None)
        return CycToFamilyMor(f.src, g.dst, g.cycle, f.op.compose(g.op))
    if isinstance(f, FamilyMor) and isinstance(g, FamilyMor):
        return _compose_family(g, f)
    if isinstance(f, CycToFamilyMor) and isinstance(g, FamilyMor):
        return _compose_family_after_round(g, f)
    raise ValueError("no composite for these morphism shapes")


def all_lambda_star_mors(src, dst):
    """Every morphism src -> dst; families never map to cyclic ranks."""
    from .orders import all_cyc_maps

    if isinstance(src, FamilyObj) and isinstance(dst, CyclicRank):
        return
    if isinstance(src, CyclicRank) and isinstance(dst, CyclicRank):
        for op in all_cyc_maps(
            standard_cycle(dst.rank), standard_cycle(src.rank)
        ):
            yield CycRankMor(src, dst, op)
        return
    if isinstance(src, CyclicRank):
        if len(dst) == 0:
            yield CycToFamilyMor(src, dst, None, None)
            return
        first, rest = dst.index[0], dst.index[1:]
        for perm in itertools.permutations(rest):
            cycle = CycOrd((first,) + perm)
            union = family_union_cycle(dst, cycle)
            for op in all_cyc_maps(union, standard_cycle(src.rank)):
                yield CycToFamilyMor(src, dst, cycle, op)
        return
    index_s, index_t = src.index, dst.index
    src_ranks, dst_ranks = src.ranks, dst.ranks
    for values in itertools.product(index_s, repeat=len(index_t)):
        phi = dict(zip(index_t, values))
        groups = {i: [t for t in index_t if phi[t] == i] for i in index_s}
        order_pools = [itertools.permutations(groups[i]) for i in index_s]
        for orders in itertools.product(*order_pools):
            # the blocks of a fiber, laid end to end in its order, form one
            # monotone map from the ordinal sum of the fiber's intervals
            glued_pools = [
                list(itertools.combinations_with_replacement(
                    range(src_ranks[i] + 1), sum(dst_ranks[t] + 1 for t in order)
                ))
                for i, order in zip(index_s, orders)
            ]
            for glued in itertools.product(*glued_pools):
                blocks = []
                for i, order, images in zip(index_s, orders, glued):
                    cut = iter(images)
                    blocks.extend(
                        (t, (i, tuple(itertools.islice(cut, dst_ranks[t] + 1))))
                        for t in order
                    )
                yield FamilyMor(src, dst, tuple(blocks), tuple(zip(index_s, orders)))


# --------------------------------------------------------------------------
# the functor out of a cyclic object


class LambdaStarFunctor:
    """Values and actions of a cyclic object on families and ranks.

    Families go to products of the matching levels (the empty family to
    a one-element set), cyclic ranks to the level itself.  Morphism
    actions are assembled slotwise from the stored tables, as position
    columns that ``action`` turns into maps.
    """

    def __init__(self, x):
        if not isinstance(x, CycObj):
            raise ValueError("need a cyclic object")
        self.x = x
        self._values = {}

    def levels(self, obj):
        """The factors of value(obj): one level per slot, or the level."""
        if isinstance(obj, CyclicRank):
            ranks = [obj.rank]
        else:
            ranks = [r for _, r in obj.slots]
        if any(r > self.x.top_rank for r in ranks):
            raise ValueError("insufficient truncation")
        return [self.x.level(r) for r in ranks]

    def value(self, obj):
        levels = self.levels(obj)
        if isinstance(obj, CyclicRank):
            return levels[0]
        if obj not in self._values:
            self._values[obj] = product_carrier(levels)
        return self._values[obj]

    def label(self, obj, p):
        """The element at position p of value(obj), decoded, not built."""
        levels = self.levels(obj)
        if isinstance(obj, CyclicRank):
            return levels[0].elements[p]
        return product_label(levels, p)

    def positions(self, mor):
        """The action of mor as a position column.

        Entry p is the position in value(mor.dst) of the image of the
        element at position p of value(mor.src); no product is built.
        """
        if isinstance(mor, CycRankMor):
            return apply_lambda_op(self.x, mor.op).positions()
        reads = []  # (source slot, position column) per target slot
        if isinstance(mor, FamilyMor):
            src_ranks = mor.src.ranks
            for _, (i, verts) in mor.blocks:
                piece = simplex_map(self.x, src_ranks[i], verts)
                reads.append((mor.src.slot_position(i), piece.positions()))
        elif isinstance(mor, CycToFamilyMor):
            for i in mor.dst.index:
                # slot i reads the arc of its block in the glued cycle
                union = mor.op.src  # the empty family has no op
                fibers = tuple(
                    (e, (e[1],) if e[0] == i else ()) for e in union.cycle
                )
                arc = CycMap(standard_cycle(mor.dst.rank_of(i)), union, fibers)
                comp = apply_lambda_op(self.x, mor.op.compose(arc))
                reads.append((0, comp.positions()))
        else:
            raise ValueError("not a family / cyclic-rank morphism")
        src_sizes = [len(s) for s in self.levels(mor.src)]
        dst_sizes = [len(s) for s in self.levels(mor.dst)]
        return gather_positions(src_sizes, reads, dst_sizes)

    def action(self, mor):
        if isinstance(mor, CycRankMor):
            return apply_lambda_op(self.x, mor.op)
        column = self.positions(mor)
        dst = self.value(mor.dst)
        images = map(dst.elements.__getitem__, column)
        return FinMap(self.value(mor.src), dst, tuple(images))


# --------------------------------------------------------------------------
# edge decompositions


def cyclic_edge_decomposition(n):
    """The morphism splitting a cyclic n-cell into its n+1 edges.

    The target family has one rank-1 slot per cyclic gap; the glued
    block cycle maps down by sending the two ends of the gap-i block to
    the vertices i and i+1 (mod n+1), so consecutive blocks overlap in
    one vertex and the last block wraps around.
    """
    fam = FamilyObj(tuple((i, 1) for i in range(n + 1)))
    cycle = standard_cycle(n)
    union = family_union_cycle(fam, cycle)
    fibers = tuple(
        (i, (((i - 1) % (n + 1), 1), (i, 0))) for i in range(n + 1)
    )
    op = CycMap(union, standard_cycle(n), fibers)
    return CycToFamilyMor(CyclicRank(n), fam, cycle, op)


def long_edge_morphism(fam):
    """Collapse every slot of a family to its long edge."""
    dst = FamilyObj(tuple((i, 1) for i in fam.index))
    return FamilyMor(
        fam,
        dst,
        tuple((i, (i, (0, r))) for i, r in fam.slots),
        tuple((i, (i,)) for i in fam.index),
    )


def unit_edges_morphism(fam):
    """Split every slot of a family into its chain of unit edges.

    The target is a rank-1 family over the disjoint union of slot gaps;
    a rank-0 slot contributes nothing and its fiber is empty.
    """
    dst = FamilyObj(
        tuple(((i, j), 1) for i, r in fam.slots for j in range(r))
    )
    blocks = tuple(((i, j), (i, (j, j + 1))) for i, r in fam.slots for j in range(r))
    orders = tuple(
        (i, tuple((i, j) for j in range(r))) for i, r in fam.slots
    )
    return FamilyMor(fam, dst, blocks, orders)


# --------------------------------------------------------------------------
# condition checks


# bounds of the instances check_cy_conditions enumerates
CY_BUDGET = 2
CY_MAX_CELLS = 20000


def _gap_rank_instances(gap_count, cap, level_cap):
    for ranks in itertools.product(range(cap + 1), repeat=gap_count):
        if sum(ranks) <= level_cap:
            yield ranks


def _family_universe(n_top):
    pools = [(0,), (0, 1)]
    for pool in pools:
        for ranks in itertools.product(
            range(min(CY_BUDGET, n_top) + 1), repeat=len(pool)
        ):
            yield FamilyObj(tuple(zip(pool, ranks)))


def _judge_subdivision(fn, rep, check, loc, to_fine, to_coarse, long, units):
    """Judge apex -> fine x_edges coarse for a subdivision square.

    The legs are to_fine: apex -> fine, to_coarse: apex -> coarse,
    long: fine -> edges and units: coarse -> edges.  Every action is a
    position column, so neither the pullback nor any product is built;
    labels are decoded only for a witness.
    """
    if fn.levels(long.dst) != fn.levels(units.dst):
        raise ValueError("pullback needs a shared codomain")
    judge_pullback_bijection(
        rep,
        check,
        loc,
        *(fn.positions(m) for m in (to_fine, to_coarse, long, units)),
        *(partial(fn.label, obj) for obj in (to_fine.src, long.src, units.src)),
    )


def check_cy_conditions(x):
    """Product cones, subdivision pullbacks, rotation bijections and
    non-degeneracy for a cyclic object.

    A subdivision square holds when apex -> fine x_edges coarse is a
    bijection.  Both kinds (cell and cyclic) are judged on element
    positions in the products of levels: neither the fiber product nor
    any corner product is built, and labels are decoded only for a
    witness.  ``CY_BUDGET`` bounds index-set sizes and slot ranks of the
    enumerated instances; comparisons whose corners would exceed
    ``CY_MAX_CELLS`` elements are skipped and counted in the scope notes.
    The findings and scope notes of ``check_nondegeneracy`` are merged
    in, the notes prefixed by its report title.
    """
    rep = Report("cyclic algebra conditions")
    if x.top_rank < 3:
        raise ValueError("truncation too low for cyclic algebra checks")
    fn = LambdaStarFunctor(x)
    n_top = x.top_rank
    skipped = 0

    empty = FamilyObj(())
    if len(fn.value(empty)) != 1:
        rep.fail("empty-product", (), detail="empty family misses the point")
    for fam in _family_universe(n_top):
        _, projs = big_product([x.level(r) for _, r in fam.slots])
        for pos, (i, r) in enumerate(fam.slots):
            single = FamilyObj(((i, r),))
            mor = FamilyMor(
                fam,
                single,
                ((i, (i, tuple(range(r + 1)))),),
                tuple((j, (i,) if j == i else ()) for j in fam.index),
            )
            # the action starts at fn.value(fam), the product's own carrier,
            # so both columns are indexed by the same elements
            act = fn.action(mor)
            got = [v[0] for v in act.assignment]
            if got != list(projs[pos].assignment):
                rep.fail("product-cone", (fam.slots, i),
                         detail="slot projection disagrees with the product")

    for fam in _family_universe(n_top):
        gap_lists = [
            list(_gap_rank_instances(r, CY_BUDGET, n_top)) for _, r in fam.slots
        ]
        for assignment in itertools.product(*gap_lists):
            loc = tuple(
                (i, ranks) for (i, _), ranks in zip(fam.slots, assignment)
            )
            apex = FamilyObj(
                tuple(
                    (i, sum(ranks))
                    for (i, _), ranks in zip(fam.slots, assignment)
                )
            )
            fine = FamilyObj(
                tuple(
                    ((i, j), ranks[j])
                    for (i, _), ranks in zip(fam.slots, assignment)
                    for j in range(len(ranks))
                )
            )
            apex_cells = 1
            for _, r in apex.slots:
                apex_cells *= len(x.level(r))
            fine_cells = 1
            for _, r in fine.slots:
                fine_cells *= len(x.level(r))
            if max(apex_cells, fine_cells) > CY_MAX_CELLS:
                skipped += 1
                continue
            # slot i of the apex is cut at these vertices into the pieces
            # (i, j) of the fine family
            cuts = [
                tuple(itertools.accumulate(ranks, initial=0)) for ranks in assignment
            ]
            to_fine = FamilyMor(
                apex,
                fine,
                tuple(
                    ((i, j), (i, tuple(range(a, b + 1))))
                    for i, c in zip(fam.index, cuts)
                    for j, (a, b) in enumerate(itertools.pairwise(c))
                ),
                tuple(
                    (i, tuple((i, j) for j in range(len(ranks))))
                    for i, ranks in zip(fam.index, assignment)
                ),
            )
            to_coarse = FamilyMor(
                apex,
                fam,
                tuple((i, (i, c)) for i, c in zip(fam.index, cuts)),
                tuple((i, (i,)) for i in fam.index),
            )
            long = long_edge_morphism(fine)
            units = unit_edges_morphism(fam)
            a = lambda_star_compose(long, to_fine)
            b = lambda_star_compose(units, to_coarse)
            if a != b:
                raise AssertionError(
                    "subdivision square fails to commute structurally"
                )
            _judge_subdivision(
                fn, rep, "cell-subdivision", loc, to_fine, to_coarse, long, units
            )

    for n in range(min(n_top, CY_BUDGET) + 1):
        for ranks in itertools.product(range(CY_BUDGET + 1), repeat=n + 1):
            total = sum(ranks)
            if total == 0 or total - 1 > n_top:
                continue
            loc = (n, ranks)
            apex = CyclicRank(total - 1)
            fam = FamilyObj(tuple((g, ranks[g]) for g in range(n + 1)))
            fam_cells = 1
            for r in ranks:
                fam_cells *= len(x.level(r))
            if max(len(x.level(total - 1)), fam_cells) > CY_MAX_CELLS:
                skipped += 1
                continue
            offs = [sum(ranks[:g]) for g in range(n + 1)]
            cycle = standard_cycle(n)
            union = family_union_cycle(fam, cycle)
            # constant operators keep their full-cycle fiber; it opens at
            # the first position completing a full wrap of the apex
            fam_start = next(
                (e for e in union.cycle if offs[e[0]] + e[1] == total),
                union.cycle[0],
            )
            to_fam_op = cyc_map_by(
                union,
                standard_cycle(total - 1),
                lambda e: (offs[e[0]] + e[1]) % total,
                fiber_start=fam_start,
            )
            to_fam = CycToFamilyMor(apex, fam, cycle, to_fam_op)
            cyc_start = next(
                (i for i in range(n + 1) if offs[i] == total), 0
            )
            to_cyc_op = cyc_map_by(
                standard_cycle(n),
                standard_cycle(total - 1),
                lambda i: offs[i] % total,
                fiber_start=cyc_start,
            )
            to_cyc = CycRankMor(apex, CyclicRank(n), to_cyc_op)
            a = lambda_star_compose(long_edge_morphism(fam), to_fam)
            b = lambda_star_compose(cyclic_edge_decomposition(n), to_cyc)
            if a != b:
                raise AssertionError(
                    "cyclic subdivision square fails to commute structurally"
                )
            _judge_subdivision(
                fn, rep, "cyclic-subdivision", loc, to_fam, to_cyc,
                long_edge_morphism(fam), cyclic_edge_decomposition(n),
            )

    for n in range(n_top + 1):
        single = FamilyObj(((0, n),))
        cycle = CycOrd((0,))
        union = family_union_cycle(single, cycle)
        for k in range(n + 1):
            op = cyc_map_by(
                union,
                standard_cycle(n),
                lambda e, k=k: (e[1] + k) % (n + 1),
                fiber_start=(0, (-k) % (n + 1)),
            )
            mor = CycToFamilyMor(CyclicRank(n), single, cycle, op)
            act = fn.action(mor)
            comp = FinMap(
                act.src, x.level(n), tuple(v[0] for v in act.assignment)
            )
            if not comp.is_bijection():
                judge_bijection(
                    rep,
                    "localization-rotation",
                    (n, k),
                    comp.src,
                    comp.assignment,
                    comp.dst,
                )

    for n in range(1, n_top + 1):
        edge = simplex_map(x, n, (0, n))
        vertex = simplex_map(x, n - 1, (n - 1,))
        twisted = x.rot(1).compose(edge)
        twist_in = x.rot(n).compose(x.degen(n - 1, n - 1))
        judge_square(
            rep, "rotation-degeneracy-square", (n,),
            twist_in, vertex, twisted, x.degen(0, 0),
        )

    rep.extend(check_nondegeneracy(x))
    rep.note_scope(
        f"budget {CY_BUDGET}, truncation {n_top}, {skipped} oversized instances skipped"
    )
    return rep


# --------------------------------------------------------------------------
# the trace pairing


def trace_span(x):
    """X1 <- X0 -> 1: evaluate on degenerate edges, then discard."""
    return Span(
        x.level(1),
        terminal_set(),
        x.level(0),
        x.degen(0, 0),
        terminal_map(x.level(0)),
    )


def pairing_span(x):
    """The composite of multiplication with the trace."""
    return compose_spans(multiplication_span(x), trace_span(x))


def _assoc_span(x1, pairs, to_left):
    nested_r = product_carrier((x1, pairs))
    nested_l = product_carrier((pairs, x1))
    if to_left:
        return Span(
            nested_r, nested_l, nested_r,
            fin_map_by(nested_r, nested_r, lambda e: e),
            fin_map_by(nested_r, nested_l, lambda e: ((e[0], e[1][0]), e[1][1])),
        )
    return Span(
        nested_l, nested_r, nested_l,
        fin_map_by(nested_l, nested_l, lambda e: e),
        fin_map_by(nested_l, nested_r, lambda e: (e[0][0], (e[0][1], e[1]))),
    )


def _chain_spans(parts):
    out = parts[0]
    for p in parts[1:]:
        out = compose_spans(out, p)
    return out


def check_nondegeneracy(x):
    """Bijective-legs and zig-zag criteria for the trace pairing.

    Both criteria are computed independently; a verdict mismatch is
    flagged as an internal error since they are two readings of the same
    non-degeneracy condition.
    """
    rep = Report("non-degeneracy")
    if x.top_rank < 3:
        raise ValueError("truncation too low for non-degeneracy checks")
    x1 = x.level(1)
    gamma = pairing_span(x)
    eta = reverse_span(gamma)
    pairs = gamma.left_obj

    legs_ok = True
    for idx in (0, 1):
        leg = FinMap(
            gamma.apex, x1, tuple(map(itemgetter(idx), gamma.left_leg.assignment))
        )
        if not leg.is_bijection():
            legs_ok = False
            judge_bijection(
                rep, "pairing-leg", (idx + 1,), leg.src, leg.assignment, leg.dst
            )

    into_right, out_of_right, into_left, out_of_left = unitor_spans(x1)
    one = identity_span(x1)
    zig1 = _chain_spans([
        into_right,
        tensor_spans(one, eta),
        _assoc_span(x1, pairs, True),
        tensor_spans(gamma, one),
        out_of_left,
    ])
    zig2 = _chain_spans([
        into_left,
        tensor_spans(eta, one),
        _assoc_span(x1, pairs, False),
        tensor_spans(one, gamma),
        out_of_right,
    ])
    zigzag_ok = True
    for name, z in (("zig-zag-right", zig1), ("zig-zag-left", zig2)):
        if not spans_isomorphic(z, identity_span(x1)):
            zigzag_ok = False
            rep.fail(name, (), detail="composite is not the identity span")

    if legs_ok != zigzag_ok:
        rep.fail(
            "nondegeneracy-internal",
            (),
            detail="bijective-legs and zig-zag verdicts disagree",
        )
    rep.note_scope(
        f"pairing apex has {len(gamma.apex)} cells over {len(x1)} edges"
    )
    return rep
