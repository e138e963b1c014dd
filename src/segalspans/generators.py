"""Families of simplicial and cyclic objects used as test material.

All carriers are labeled concretely (tuples of monoid elements, tuples
of subsets), so objects round-trip through serialization and stay
deterministic.
"""

from __future__ import annotations

import itertools

from .finset import FinSet, fin_map_by
from .sobj import CycObj, SimpObj


def check_monoid(table, unit):
    """Raise unless table is an associative multiplication with the unit."""
    k = len(table)
    for row in table:
        if len(row) != k:
            raise ValueError("multiplication table must be square")
        for v in row:
            if not 0 <= v < k:
                raise ValueError("table entry out of range")
    for a in range(k):
        if table[unit][a] != a or table[a][unit] != a:
            raise ValueError("unit law fails")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValueError("associativity fails")


def is_group(table, unit):
    k = len(table)
    return all(unit in row for row in table) and all(
        unit in {table[a][b] for a in range(k)} for b in range(k)
    )


def _simplicial(sets, face, degen):
    """The simplicial object with levels sets and the maps face(n, i), degen(n, i)."""
    n_top = len(sets) - 1
    faces = tuple(tuple(face(n, i) for i in range(n + 1)) for n in range(1, n_top + 1))
    degens = tuple(tuple(degen(n, i) for i in range(n + 1)) for n in range(n_top))
    return SimpObj(tuple(sets), faces, degens)


def nerve_of_monoid(table, n_top, unit=0):
    """The nerve: rank n carries length-n tuples of monoid elements.

    Inner faces multiply adjacent entries, outer faces drop an end,
    degeneracies insert the unit.
    """
    check_monoid(table, unit)
    k = len(table)
    sets = [
        FinSet(tuple(itertools.product(range(k), repeat=n)))
        for n in range(n_top + 1)
    ]

    def face(n, i):
        def act(x):
            if i == 0:
                return x[1:]
            if i == n:
                return x[:-1]
            return x[: i - 1] + (table[x[i - 1]][x[i]],) + x[i + 1 :]

        return fin_map_by(sets[n], sets[n - 1], act)

    def degen(n, i):
        return fin_map_by(sets[n], sets[n + 1], lambda x: x[:i] + (unit,) + x[i:])

    return _simplicial(sets, face, degen)


def cyclic_nerve_of_group(table, n_top, unit=0):
    """The cyclic nerve: rank n carries length-(n+1) tuples.

    Entry 0 is the wrap letter closing the loop; the rotation moves the
    last entry to the front: (x_0, ..., x_n) -> (x_n, x_0, ..., x_{n-1}).
    """
    check_monoid(table, unit)
    if not is_group(table, unit):
        raise ValueError("cyclic nerve needs a group")
    k = len(table)
    sets = [
        FinSet(tuple(itertools.product(range(k), repeat=n + 1)))
        for n in range(n_top + 1)
    ]

    def face(n, i):
        def act(x):
            if i == n:
                return (table[x[n]][x[0]],) + x[1:n]
            return x[:i] + (table[x[i]][x[i + 1]],) + x[i + 2 :]

        return fin_map_by(sets[n], sets[n - 1], act)

    def degen(n, i):
        return fin_map_by(sets[n], sets[n + 1], lambda x: x[: i + 1] + (unit,) + x[i + 1 :])

    def rot(n):
        return fin_map_by(sets[n], sets[n], lambda x: (x[n],) + x[:n])

    base = _simplicial(sets, face, degen)
    return CycObj(base, tuple(rot(n) for n in range(n_top + 1)))


def cech_nerve(f, n_top):
    """The nerve of a map of finite sets: tuples lying in one fiber."""
    sets = []
    for n in range(n_top + 1):
        elems = tuple(
            t
            for t in itertools.product(f.src.elements, repeat=n + 1)
            if len({f(a) for a in t}) <= 1
        )
        sets.append(FinSet(elems))

    def face(n, i):
        return fin_map_by(sets[n], sets[n - 1], lambda x: x[:i] + x[i + 1 :])

    def degen(n, i):
        return fin_map_by(sets[n], sets[n + 1], lambda x: x[: i + 1] + (x[i],) + x[i + 1 :])

    return _simplicial(sets, face, degen)


def flag_decomposition(universe_size, n_top):
    """Flags of subsets of a small universe, encoded by their layers.

    Rank n carries tuples (B_1, ..., B_n) of pairwise disjoint sorted
    subsets; reading partial unions recovers the corresponding chain of
    subsets starting at the empty set.  Outer faces drop an end layer,
    inner faces merge adjacent layers, degeneracies insert an empty
    layer.
    """
    if universe_size > 4:
        raise ValueError("universe too large")
    universe = tuple(range(universe_size))
    sets = []
    for n in range(n_top + 1):
        elems = []
        for owner in itertools.product(range(n + 1), repeat=universe_size):
            # owner[v] == j > 0 puts v into layer j; 0 leaves it out
            layers = tuple(
                tuple(v for v in universe if owner[v] == j) for j in range(1, n + 1)
            )
            elems.append(layers)
        sets.append(FinSet(tuple(set(elems))))

    def merge(a, b):
        return tuple(sorted(a + b))

    def face(n, i):
        def act(x):
            if i == 0:
                return x[1:]
            if i == n:
                return x[:-1]
            return x[: i - 1] + (merge(x[i - 1], x[i]),) + x[i + 1 :]

        return fin_map_by(sets[n], sets[n - 1], act)

    def degen(n, i):
        return fin_map_by(sets[n], sets[n + 1], lambda x: x[:i] + ((),) + x[i:])

    return _simplicial(sets, face, degen)


def cyclic_group_table(k):
    return tuple(tuple((a + b) % k for b in range(k)) for a in range(k))


def klein_four_table():
    # componentwise xor on two bits
    def mul(a, b):
        return (a ^ b) & 3

    return tuple(tuple(mul(a, b) for b in range(4)) for a in range(4))


def sym3_table():
    """The symmetric group on three letters, elements as permutations."""
    perms = list(itertools.permutations((0, 1, 2)))
    perms.sort()

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(perms)}
    # ensure the identity sits at index 0
    assert perms[0] == (0, 1, 2)
    return tuple(tuple(idx[mul(p, q)] for q in perms) for p in perms)


def min_monoid_table(k):
    """min as multiplication, with unit k-1."""
    return tuple(tuple(min(a, b) for b in range(k)) for a in range(k))


def groups_up_to_order(max_order):
    """All groups of order <= max_order, as (name, table) pairs."""
    out = []
    names = {1: "triv", 2: "z2", 3: "z3", 4: "z4", 5: "z5", 6: "z6"}
    for k in range(1, max_order + 1):
        out.append((names[k], cyclic_group_table(k)))
        if k == 4:
            out.append(("v4", klein_four_table()))
        if k == 6:
            out.append(("s3", sym3_table()))
    return out
