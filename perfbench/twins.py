"""Corrupted twins: valid objects with one structure map tampered with.

A twin keeps every carrier of its source (the very same ``FinSet``
objects) and every map but one.  In the chosen face or rotation map the
images of two source elements with different images are swapped, so a
cache keyed on carriers instead of maps would hand the twin the
source's verdict.
"""

from __future__ import annotations

from segalspans.finset import FinMap
from segalspans.sobj import CycObj, SimpObj


def _candidate_maps(x):
    """(kind, rank, index, map) for every face and rotation of x.

    Maps whose images are all equal are left out: no swap can change
    them (X_1 -> X_0 of a monoid nerve is constant).
    """
    simp = x.base if isinstance(x, CycObj) else x
    out = []
    for n in range(1, simp.top_rank + 1):
        for i in range(n + 1):
            out.append(("face", n, i, simp.face(n, i)))
    if isinstance(x, CycObj):
        for n in range(x.top_rank + 1):
            out.append(("rot", n, 0, x.rot(n)))
    return [c for c in out if len(set(c[3].assignment)) > 1]


def _swap_two_images(f, rng):
    """f with the images of two elements swapped, and the two elements."""
    n = len(f.assignment)
    a = rng.randrange(n)
    others = [b for b in range(n) if f.assignment[b] != f.assignment[a]]
    b = others[rng.randrange(len(others))]
    assignment = list(f.assignment)
    assignment[a], assignment[b] = assignment[b], assignment[a]
    return FinMap(f.src, f.dst, assignment), (f.src.elements[a], f.src.elements[b])


def corrupted_twin(x, rng):
    """A twin of x differing in exactly one face or rotation map.

    Returns (twin, description); the description names the tampered map
    and the two swapped elements.
    """
    cands = _candidate_maps(x)
    if not cands:
        raise ValueError("every face and rotation map is constant")
    kind, n, i, f = cands[rng.randrange(len(cands))]
    g, swapped = _swap_two_images(f, rng)
    simp = x.base if isinstance(x, CycObj) else x
    if kind == "face":
        faces = [list(row) for row in simp.faces]
        faces[n - 1][i] = g
        simp = SimpObj(simp.sets, faces, simp.degens)
        twin = CycObj(simp, x.tau) if isinstance(x, CycObj) else simp
    else:
        tau = list(x.tau)
        tau[n] = g
        twin = CycObj(simp, tau)
    where = f"rotation at rank {n}" if kind == "rot" else f"face d{i} at rank {n}"
    return twin, f"{where}, images of {swapped[0]!r} and {swapped[1]!r} swapped"
