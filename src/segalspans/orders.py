"""Finite linear and cyclic orders with labelled carriers.

Linear orders list their elements bottom to top; the empty order is a
first-class object.  Cyclic orders are nonempty and are stored in a
canonical rotation (starting at the least label) so equal cycles compare
equal.  A map of cyclic orders carries a linear order on every fiber and
is valid when reading the fibers around the target reproduces the source
cycle.

Labels are never renamed implicitly.  Composites of valid maps are
valid, so ``compose`` builds them with ``trusted``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .labels import check_label, label_key, trusted


# --------------------------------------------------------------------------
# linear orders


@dataclass(frozen=True)
class LinOrd:
    """A finite linear order; ``elements`` runs from least to greatest."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for x in self.elements:
            check_label(x)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"repeated label in linear order: {self.elements!r}")

    @property
    def skeletal_rank(self):
        # -1 encodes the empty order
        return len(self.elements) - 1

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def position(self, x):
        return self.elements.index(x)


def standard_order(n):
    """The skeletal order with elements 0..n; n = -1 gives the empty order."""
    if n < -1:
        raise ValueError("rank must be >= -1")
    return LinOrd(tuple(range(n + 1)))


@dataclass(frozen=True)
class LinMap:
    """An order-preserving map, stored as one image per source element."""

    src: LinOrd
    dst: LinOrd
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != len(self.src):
            raise ValueError("one image per source element required")
        pos = tuple(self.dst.position(y) for y in self.images)
        if any(a > b for a, b in zip(pos, pos[1:])):
            raise ValueError(f"map is not order-preserving: {self.images!r}")

    def __call__(self, x):
        return self.images[self.src.position(x)]

    @property
    def positions(self):
        """Images rewritten as positions in the target."""
        return tuple(self.dst.position(y) for y in self.images)

    def fiber(self, y):
        return tuple(x for x, v in zip(self.src.elements, self.images) if v == y)

    def compose(self, other):
        """self after other."""
        if other.dst != self.src:
            raise ValueError("middle objects disagree")
        images = tuple(self(y) for y in other.images)
        return trusted(LinMap, src=other.src, dst=self.dst, images=images)


def identity_lin(order):
    return LinMap(order, order, order.elements)


# --------------------------------------------------------------------------
# cyclic orders


@dataclass(frozen=True)
class CycOrd:
    """A nonempty cyclic order, stored from its least label onward.

    Two per-instance caches sit outside the dataclass fields, so equality
    and hashing see only ``cycle``: ``_carrier``, the frozenset of labels,
    filled by the constructor, and ``_by_key``, the labels sorted by
    ``label_key``, filled on first use.
    """

    cycle: tuple

    def __post_init__(self):
        cyc = tuple(self.cycle)
        if not cyc:
            raise ValueError("cyclic orders are nonempty")
        # one key per label both checks it and picks the canonical start
        keys = [label_key(x) for x in cyc]
        carrier = frozenset(cyc)
        if len(carrier) != len(cyc):
            raise ValueError(f"repeated label in cyclic order: {cyc!r}")
        start = keys.index(min(keys))
        object.__setattr__(self, "cycle", cyc[start:] + cyc[:start])
        object.__setattr__(self, "_carrier", carrier)

    @property
    def carrier(self):
        return self._carrier

    def _label_order(self):
        # lazy cache; not a dataclass field, so equality is untouched
        order = self.__dict__.get("_by_key")
        if order is None:
            order = tuple(sorted(self.cycle, key=label_key))
            object.__setattr__(self, "_by_key", order)
        return order

    @property
    def skeletal_rank(self):
        return len(self.cycle) - 1

    def __len__(self):
        return len(self.cycle)

    def __iter__(self):
        return iter(self.cycle)

    def __contains__(self, x):
        return x in self.cycle


def standard_cycle(n):
    """The skeletal cyclic order on 0..n.

    Built with ``trusted``: 0..n are distinct int labels and 0 is the
    least, so the cycle is already canonical.
    """
    if n < 0:
        raise ValueError("cyclic rank must be >= 0")
    cycle = tuple(range(n + 1))
    return trusted(CycOrd, cycle=cycle, _carrier=frozenset(cycle))


@dataclass(frozen=True)
class CycMap:
    """A map of cyclic orders with a chosen linear order on each fiber.

    ``fibers`` pairs every target element with the tuple of its
    preimages.  Validity: walking the target cycle and reading each
    fiber in its listed order must reproduce the source cycle.
    """

    src: CycOrd
    dst: CycOrd
    fibers: tuple

    def __post_init__(self):
        fib = {d: tuple(f) for d, f in self.fibers}
        if len(fib) != len(self.fibers):
            raise ValueError("duplicate fiber key")
        if fib.keys() != self.dst.carrier:
            raise ValueError("fibers must be indexed by the whole target")
        seen = tuple(itertools.chain.from_iterable(fib[d] for d in self.dst.cycle))
        for x in seen:
            label_key(x)
        # src.cycle has no repeats, so equal length and equal sets make
        # seen a permutation of it
        src = self.src.cycle
        if len(seen) != len(src) or set(seen) != self.src.carrier:
            raise ValueError("fibers do not partition the source")
        i = seen.index(src[0])
        if seen[i:] + seen[:i] != src:
            raise ValueError("fiber orders do not induce the source cycle")
        for d in fib:
            label_key(d)
        canon = tuple((d, fib[d]) for d in self.dst._label_order())
        object.__setattr__(self, "fibers", canon)

    def __call__(self, x):
        for d, f in self.fibers:
            if x in f:
                return d
        raise ValueError(f"{x!r} is not in the source")

    def fiber(self, d):
        for dd, f in self.fibers:
            if dd == d:
                return f
        raise ValueError(f"{d!r} is not in the target")

    def compose(self, other):
        """self after other; fibers concatenate lexicographically."""
        if other.dst != self.src:
            raise ValueError("middle objects disagree")
        inner = dict(other.fibers)
        fibers = tuple(
            (d, tuple(itertools.chain.from_iterable(inner[m] for m in f)))
            for d, f in self.fibers
        )
        # keyed in the canonical order of self.fibers, as the constructor keys them
        return trusted(CycMap, src=other.src, dst=self.dst, fibers=fibers)

    def is_iso(self):
        return len(self.src) == len(self.dst) and all(
            len(f) == 1 for _, f in self.fibers
        )


def identity_cyc(base):
    return CycMap(base, base, tuple((x, (x,)) for x in base.cycle))


def cyc_map_by(src, dst, fn, fiber_start=None):
    """Build a CycMap from a set map, recovering fiber orders from the cycle.

    Fibers of a valid cyclic map are arcs of the source, so their orders
    are forced once a block boundary exists.  If fn is constant-like
    (one nonempty fiber), ``fiber_start`` must name the element that
    opens the fiber.
    """
    values = {x: fn(x) for x in src.cycle}
    cyc = src.cycle
    n = len(cyc)
    boundary = None
    for i in range(n):
        if values[cyc[i - 1]] != values[cyc[i]]:
            boundary = i
            break
    if boundary is None:
        if fiber_start is None:
            raise ValueError("constant map needs an explicit fiber_start")
        boundary = cyc.index(fiber_start)
    walk = cyc[boundary:] + cyc[:boundary]
    fibers = {d: [] for d in dst.cycle}
    for x in walk:
        fibers[values[x]].append(x)
    return CycMap(src, dst, tuple((d, tuple(f)) for d, f in fibers.items()))


def rotation_map(base, k=1):
    """The automorphism sending every element k steps forward."""
    n = len(base)
    cyc = base.cycle
    return CycMap(
        base, base, tuple((cyc[(i + k) % n], (cyc[i],)) for i in range(n))
    )


def all_cyc_maps(src, dst):
    """Every cyclic map src -> dst (assignment plus fiber orders).

    Reading the fibers around dst, from its least label, walks src once
    from some start; cutting that walk into len(dst) consecutive blocks
    gives the fibers.  Each (start, cut) is one map, and every map
    arises from exactly one, so nothing is filtered or repeated.
    """
    n = len(src)
    for start in range(n):
        walk = src.cycle[start:] + src.cycle[:start]
        for cut in itertools.combinations_with_replacement(range(len(dst)), n):
            fibers = {d: [] for d in dst.cycle}
            for x, p in zip(walk, cut):
                fibers[dst.cycle[p]].append(x)
            yield CycMap(src, dst, tuple((d, tuple(f)) for d, f in fibers.items()))

