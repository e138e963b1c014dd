"""Finite sets, maps between them, spans, and limits of finite diagrams.

Everything is label-based and deterministic: sets keep their elements
in a canonical order, and every constructed object (limits, products,
composites of spans) has reproducible element labels.  Slotwise maps
between products are built on element positions (``gather_positions``).
A pullback carrier is built only as the apex of a span composite:
checkers judge their pullback squares on positions
(``segal.judge_square``) and build no fiber product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections import Counter
from operator import add, eq, itemgetter, mul

from .labels import check_label, label_key, trusted


@dataclass(frozen=True)
class FinSet:
    elements: tuple

    def __post_init__(self):
        elems = tuple(self.elements)
        for x in elems:
            check_label(x)
        elems = tuple(sorted(elems, key=label_key))
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate elements")
        object.__setattr__(self, "elements", elems)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def _positions(self):
        # lazy cache; not a dataclass field, so equality is untouched
        pos = self.__dict__.get("_pos")
        if pos is None:
            pos = {x: i for i, x in enumerate(self.elements)}
            object.__setattr__(self, "_pos", pos)
        return pos

    def __contains__(self, x):
        return x in self._positions()


def terminal_set():
    """The one-point set; its element is the empty tuple."""
    return FinSet(((),))


@dataclass(frozen=True)
class FinMap:
    src: FinSet
    dst: FinSet
    assignment: tuple  # image of src.elements[i], in canonical src order

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != len(self.src):
            raise ValueError("assignment length mismatch")
        dstset = self.dst._positions()
        if not all(map(dstset.__contains__, self.assignment)):
            bad = next(y for y in self.assignment if y not in dstset)
            raise ValueError(f"image {bad!r} not in codomain")

    def _lookup(self):
        d = self.__dict__.get("_map")
        if d is None:
            d = dict(zip(self.src.elements, self.assignment))
            object.__setattr__(self, "_map", d)
        return d

    def __call__(self, x):
        try:
            return self._lookup()[x]
        except KeyError:
            raise ValueError(f"{x!r} is not in the source") from None

    def positions(self):
        """The position in dst of each image, in canonical src order."""
        return tuple(map(self.dst._positions().__getitem__, self.assignment))

    def compose(self, other):
        """self after other."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        images = map(self._lookup().__getitem__, other.assignment)
        return FinMap(other.src, self.dst, tuple(images))

    def is_bijection(self):
        return len(set(self.assignment)) == len(self.src) == len(self.dst)


def identity_fin(s):
    return FinMap(s, s, s.elements)


def fin_map_by(src, dst, fn):
    return FinMap(src, dst, tuple(fn(x) for x in src.elements))


def constant_map(src, dst, y):
    return FinMap(src, dst, (y,) * len(src))


def terminal_map(src):
    return constant_map(src, terminal_set(), ())


def product_carrier(sets):
    """The n-ary product of finite sets with tuple labels, no projections."""
    # product iteration over canonical sets emits canonical order
    elements = tuple(itertools.product(*(s.elements for s in sets)))
    return trusted(FinSet, elements=elements)


def product_strides(sizes):
    """Weight of each slot in a product position: the last slot is 1.

    product_carrier's canonical order varies the last slot fastest, so
    the tuple of slot positions (d_0 ... d_k-1) sits at sum(d_s * stride_s).
    """
    strides = []
    acc = 1
    for n in reversed(sizes):
        strides.append(acc)
        acc *= n
    return strides[::-1]


def product_label(sets, p):
    """product_carrier(sets).elements[p], decoded from the position p."""
    out = []
    for s in reversed(sets):
        p, d = divmod(p, len(s))
        out.append(s.elements[d])
    return tuple(out[::-1])


def gather_positions(src_sizes, reads, dst_sizes):
    """A slotwise map between products of sets, on positions.

    reads[t] = (i, column) says that target slot t takes column[d_i], the
    image of the position d_i of source slot i.  Entry p of the result is
    the target position of source position p.  A target position is a sum
    over source slots of one weight per slot, so the column is the outer
    sum of those weight columns, built with no Python code per element.
    """
    weights = [[0] * n for n in src_sizes]
    for (i, column), stride in zip(reads, product_strides(dst_sizes)):
        scaled = map(mul, column, itertools.repeat(stride))
        weights[i] = list(map(add, weights[i], scaled))
    out = [0]
    for w in weights:
        each = itertools.repeat(len(w))
        heads = itertools.chain.from_iterable(map(itertools.repeat, out, each))
        tails = itertools.chain.from_iterable(itertools.repeat(w, len(out)))
        out = list(map(add, heads, tails))
    return out


def _projection(p, i, s):
    """The map sending each tuple of p to its i-th entry, in s."""
    return FinMap(p, s, tuple(map(itemgetter(i), p.elements)))


def tupled_values(src, maps):
    """The rows tuple(m(x) for m in maps), one per x in src, as a list.

    Every map must start at src, so its assignment is a column indexed
    like src.elements and the rows are zipped from the columns.
    """
    if any(m.src != src for m in maps):
        raise AssertionError("tupled maps must start at the given set")
    if not maps:
        return [()] * len(src)
    return list(zip(*(m.assignment for m in maps)))


def big_product(sets):
    """n-ary product with tuple labels; returns (object, projections)."""
    p = product_carrier(sets)
    return p, tuple(_projection(p, i, s) for i, s in enumerate(sets))


def pullback(f, g):
    """Pullback of f: A -> C <- B : g.

    Elements are the pairs (a, b) with f(a) == g(b); returns the object
    together with the two projections.
    """
    if f.dst != g.dst:
        raise ValueError("pullback needs a shared codomain")
    buckets = {}
    for b, v in zip(g.src.elements, g.assignment):
        buckets.setdefault(v, []).append(b)
    pairs = tuple(
        (a, b)
        for a, v in zip(f.src.elements, f.assignment)
        for b in buckets.get(v, ())
    )
    p = trusted(FinSet, elements=pairs)
    return p, _projection(p, 0, f.src), _projection(p, 1, g.src)


@dataclass(frozen=True)
class FinDiagram:
    """A finite diagram: named nodes and arrows between them.

    Arrows are triples (src_name, dst_name, FinMap); several parallel
    arrows are allowed.
    """

    nodes: tuple  # ((name, FinSet), ...)
    arrows: tuple  # ((src_name, dst_name, FinMap), ...)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arrows", tuple(self.arrows))
        byname = dict(nodes)
        if len(byname) != len(nodes):
            raise ValueError("duplicate node names")
        for s, d, m in self.arrows:
            if s not in byname or d not in byname:
                raise ValueError("arrow endpoint not a node")
            if m.src != byname[s] or m.dst != byname[d]:
                raise ValueError("arrow map does not match its endpoints")


def limit(diagram):
    """Limit of a finite diagram of finite sets.

    Elements are tuples of node values, one per node in sorted node-name
    order, compatible with every arrow.  Returns (object, projections)
    where projections maps node name -> FinMap.

    The empty diagram yields the one-point set.  A cospan yields the
    pullback (up to the labeling of elements), a discrete diagram the
    product.
    """
    byname = dict(diagram.nodes)
    names = sorted(byname, key=label_key)
    if not names:
        return terminal_set(), {}
    order = _join_order(names, diagram.arrows)
    column = {n: k for k, n in enumerate(order)}
    # The join runs on element positions.  Each arrow becomes the array
    # of its image positions and is checked when its later-placed
    # endpoint joins: "into" arrows come from a placed node and fix the
    # new value, "out" arrows go to a placed node and bucket candidates.
    cands = {n: range(len(byname[n])) for n in names}
    into = {n: [] for n in names}
    out = {n: [] for n in names}
    for s, d, m in diagram.arrows:
        img = m.positions()
        if s == d:
            cands[s] = [v for v in cands[s] if img[v] == v]
        elif column[s] < column[d]:
            into[d].append((column[s], img))
        else:
            out[s].append((column[d], img))
    rows = [()]  # partial rows of positions, in placement order
    for name in order:
        allowed = cands[name]
        if into[name]:
            (k, img), rest = into[name][0], into[name][1:]
            vals = list(map(img.__getitem__, map(itemgetter(k), rows)))
            tests = [
                map(eq, map(i.__getitem__, map(itemgetter(j), rows)), vals)
                for j, i in rest
            ] + [
                map(eq, map(o.__getitem__, vals), map(itemgetter(j), rows))
                for j, o in out[name]
            ]
            if len(allowed) < len(byname[name]):
                tests.append(map(set(allowed).__contains__, vals))
            if tests:
                keep = list(map(all, zip(*tests)))
                rows = itertools.compress(rows, keep)
                vals = itertools.compress(vals, keep)
            rows = list(map(add, rows, zip(vals)))
        elif out[name]:
            buckets = {}
            keys = zip(*(map(o.__getitem__, allowed) for _, o in out[name]))
            for v, key in zip(allowed, keys):
                buckets.setdefault(key, []).append((v,))
            row_keys = zip(*(map(itemgetter(j), rows) for j, _ in out[name]))
            rows = [
                r + t for r, key in zip(rows, row_keys) for t in buckets.get(key, ())
            ]
        else:
            rows = list(itertools.starmap(add, itertools.product(rows, zip(allowed))))
    # node sets are canonical, so position order is label order and
    # sorting the position rows puts the elements in canonical order
    ranked = sorted(zip(*(map(itemgetter(column[n]), rows) for n in names)))
    elems = zip(*(
        map(byname[n].elements.__getitem__, col)
        for n, col in zip(names, zip(*ranked))
    ))
    obj = trusted(FinSet, elements=tuple(elems))
    projs = {n: _projection(obj, i, byname[n]) for i, n in enumerate(names)}
    return obj, projs


def _join_order(names, arrows):
    """Order nodes so each new node is linked to placed ones when possible."""
    degree = Counter()
    neighbours = {n: [] for n in names}
    for s, d, _ in arrows:
        degree[s] += 1
        degree[d] += 1
        if s != d:
            neighbours[s].append(d)
            neighbours[d].append(s)
    key = {n: label_key(n) for n in names}
    links = Counter()  # arrows between each node and the placed ones
    remaining = set(names)
    order = []
    while remaining:
        # most constrained first; ties broken by arrow degree, then by name
        best = min(remaining, key=lambda n: (-links[n], -degree[n], key[n]))
        remaining.remove(best)
        order.append(best)
        for n in neighbours[best]:
            links[n] += 1
    return order


@dataclass(frozen=True)
class Span:
    """A span between two finite sets: left_obj <- apex -> right_obj."""

    left_obj: FinSet
    right_obj: FinSet
    apex: FinSet
    left_leg: FinMap
    right_leg: FinMap

    def __post_init__(self):
        if self.left_leg.src != self.apex or self.right_leg.src != self.apex:
            raise ValueError("legs must start at the apex")
        if self.left_leg.dst != self.left_obj or self.right_leg.dst != self.right_obj:
            raise ValueError("legs must land in the boundary objects")

    def profile(self):
        """Multiset of (left value, right value) pairs over the apex."""
        return Counter(
            (self.left_leg(x), self.right_leg(x)) for x in self.apex.elements
        )


def identity_span(x):
    return Span(x, x, x, identity_fin(x), identity_fin(x))


def reverse_span(s):
    return Span(s.right_obj, s.left_obj, s.apex, s.right_leg, s.left_leg)


def span_from_maps(left_leg, right_leg):
    if left_leg.src != right_leg.src:
        raise ValueError("legs must share their source")
    return Span(left_leg.dst, right_leg.dst, left_leg.src, left_leg, right_leg)


def compose_spans(s, t):
    """Compose two spans, s first then t; needs s.right_obj == t.left_obj.

    The apex is the pullback of the inner legs, so its elements are
    pairs (element of s.apex, element of t.apex).
    """
    if s.right_obj != t.left_obj:
        raise ValueError("spans do not share a boundary object")
    p, p1, p2 = pullback(s.right_leg, t.left_leg)
    return Span(
        s.left_obj,
        t.right_obj,
        p,
        s.left_leg.compose(p1),
        t.right_leg.compose(p2),
    )


def tensor_spans(s, t):
    """Componentwise product of two spans, with pair labels throughout."""
    ap = product_carrier((s.apex, t.apex))

    def leg(a, b):
        dst = product_carrier((a.dst, b.dst))
        reads = ((0, a.positions()), (1, b.positions()))
        column = gather_positions(
            (len(s.apex), len(t.apex)), reads, (len(a.dst), len(b.dst))
        )
        return FinMap(ap, dst, tuple(map(dst.elements.__getitem__, column)))

    ll, rl = leg(s.left_leg, t.left_leg), leg(s.right_leg, t.right_leg)
    return Span(ll.dst, rl.dst, ap, ll, rl)


def spans_isomorphic(s, t):
    """Whether two spans with the same boundary differ by an apex bijection.

    An apex bijection commutes with both legs iff it preserves the pair
    (left value, right value) of every apex element, so the spans are
    isomorphic exactly when those pair multisets agree.  This is the
    fully-pruned form of the leg-fiber search: within a matching
    profile class any pairing works, across classes none does.
    """
    if s.left_obj != t.left_obj or s.right_obj != t.right_obj:
        raise ValueError("spans have different boundaries")
    return s.profile() == t.profile()
