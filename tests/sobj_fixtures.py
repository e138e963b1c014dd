"""Simplicial and cyclic object fixtures: relabelled and truncated copies.

The checkers never rename or cut down their input; the tests use these
to check that verdicts do not depend on element labels and that the
checkers reject objects truncated below the ranks they need.
"""

from __future__ import annotations

from segalspans.finset import FinSet, fin_map_by
from segalspans.sobj import CycObj, SimpObj


def relabel(x, fn):
    """Transport an object along per-rank injective relabelings.

    fn(rank, element) must be injective on each level; tables are
    conjugated accordingly.
    """
    simp = x.base if isinstance(x, CycObj) else x
    top = simp.top_rank
    new_sets = []
    fwd = []
    for n in range(top + 1):
        pairs = [(e, fn(n, e)) for e in simp.level(n).elements]
        ns = FinSet(tuple(v for _, v in pairs))
        if len(ns) != len(simp.level(n)):
            raise ValueError("relabeling not injective")
        new_sets.append(ns)
        fwd.append(dict(pairs))

    def conj(m, n_src, n_dst):
        back = {v: k for k, v in fwd[n_src].items()}
        return fin_map_by(
            new_sets[n_src], new_sets[n_dst], lambda e: fwd[n_dst][m(back[e])]
        )

    faces = tuple(
        tuple(conj(simp.face(n, i), n, n - 1) for i in range(n + 1))
        for n in range(1, top + 1)
    )
    degens = tuple(
        tuple(conj(simp.degen(n, i), n, n + 1) for i in range(n + 1))
        for n in range(top)
    )
    base = SimpObj(tuple(new_sets), faces, degens)
    if isinstance(x, CycObj):
        tau = tuple(conj(x.rot(n), n, n) for n in range(top + 1))
        return CycObj(base, tau)
    return base


def truncate(x, new_top):
    """Forget ranks above new_top."""
    simp = x.base if isinstance(x, CycObj) else x
    if new_top > simp.top_rank or new_top < 2:
        raise ValueError("bad truncation level")
    base = SimpObj(
        simp.sets[: new_top + 1],
        simp.faces[:new_top],
        simp.degens[:new_top],
    )
    if isinstance(x, CycObj):
        return CycObj(base, x.tau[: new_top + 1])
    return base
