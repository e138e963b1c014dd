"""Truncated simplicial and cyclic objects valued in finite sets.

An object stores one finite set per rank 0..N together with face,
degeneracy, and (in the cyclic case) rotation tables.  Constructors
check shapes only; identity checking lives in `validate`, so corrupted
objects can exist as values for negative tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finset import identity_fin
from .orders import LinMap, rotation_map, standard_cycle, standard_order
from .report import Report


@dataclass(frozen=True)
class SimpObj:
    sets: tuple  # FinSet per rank 0..N, N >= 2
    faces: tuple  # faces[n][i]: X_n -> X_{n-1}, 0 <= i <= n, 1 <= n <= N
    degens: tuple  # degens[n][i]: X_n -> X_{n+1}, 0 <= i <= n, 0 <= n < N

    def __post_init__(self):
        sets = tuple(self.sets)
        faces = tuple(tuple(row) for row in self.faces)
        degens = tuple(tuple(row) for row in self.degens)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "degens", degens)
        n_top = len(sets) - 1
        if n_top < 2:
            raise ValueError("need at least ranks 0..2")
        if len(faces) != n_top or len(degens) != n_top:
            raise ValueError("face/degeneracy table shape mismatch")
        for n in range(1, n_top + 1):
            row = faces[n - 1]
            if len(row) != n + 1:
                raise ValueError(f"rank {n} needs {n + 1} face maps")
            for m in row:
                if m.src != sets[n] or m.dst != sets[n - 1]:
                    raise ValueError(f"face map at rank {n} has wrong endpoints")
        for n in range(n_top):
            row = degens[n]
            if len(row) != n + 1:
                raise ValueError(f"rank {n} needs {n + 1} degeneracy maps")
            for m in row:
                if m.src != sets[n] or m.dst != sets[n + 1]:
                    raise ValueError(f"degeneracy map at rank {n} has wrong endpoints")

    @property
    def top_rank(self):
        return len(self.sets) - 1

    def level(self, n):
        return self.sets[n]

    def face(self, n, i):
        """The i-th face X_n -> X_{n-1}."""
        return self.faces[n - 1][i]

    def degen(self, n, i):
        """The i-th degeneracy X_n -> X_{n+1}."""
        return self.degens[n][i]


@dataclass(frozen=True)
class CycObj:
    base: SimpObj
    tau: tuple  # tau[n]: X_n -> X_n per rank

    def __post_init__(self):
        tau = tuple(self.tau)
        object.__setattr__(self, "tau", tau)
        if len(tau) != self.base.top_rank + 1:
            raise ValueError("need one rotation per rank")
        for n, t in enumerate(tau):
            if t.src != self.base.sets[n] or t.dst != self.base.sets[n]:
                raise ValueError(f"rotation at rank {n} has wrong endpoints")

    @property
    def top_rank(self):
        return self.base.top_rank

    def level(self, n):
        return self.base.sets[n]

    def face(self, n, i):
        return self.base.face(n, i)

    def degen(self, n, i):
        return self.base.degen(n, i)

    def rot(self, n):
        return self.tau[n]


def _maps_equal(f, g):
    return f.assignment == g.assignment


def _first_witness(f, g):
    for x, a, b in zip(f.src.elements, f.assignment, g.assignment):
        if a != b:
            return x
    return None


def _check_eq(report, name, location, f, g):
    if not _maps_equal(f, g):
        x = _first_witness(f, g)
        report.fail(name, location, witness=x, detail=f"maps disagree at {x!r}")


def validate(x):
    """Check every identity available within the truncation.

    Works for SimpObj and CycObj; returns a report whose findings name
    the identity, the rank, and a witness element.
    """
    simp = x.base if isinstance(x, CycObj) else x
    report = Report("validate")
    top = simp.top_rank
    for n in range(2, top + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = simp.face(n - 1, i).compose(simp.face(n, j))
                rhs = simp.face(n - 1, j - 1).compose(simp.face(n, i))
                _check_eq(report, "face-face", (n, i, j), lhs, rhs)
    for n in range(top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = simp.degen(n + 1, j + 1).compose(simp.degen(n, i))
                rhs = simp.degen(n + 1, i).compose(simp.degen(n, j))
                _check_eq(report, "degen-degen", (n, i, j), lhs, rhs)
    for n in range(top):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = simp.face(n + 1, i).compose(simp.degen(n, j))
                if i in (j, j + 1):
                    rhs = identity_fin(simp.level(n))
                    _check_eq(report, "face-degen-identity", (n, i, j), lhs, rhs)
                elif i < j:
                    if n == 0:
                        continue
                    rhs = simp.degen(n - 1, j - 1).compose(simp.face(n, i))
                    _check_eq(report, "face-degen-low", (n, i, j), lhs, rhs)
                else:
                    if n == 0:
                        continue
                    rhs = simp.degen(n - 1, j).compose(simp.face(n, i - 1))
                    _check_eq(report, "face-degen-high", (n, i, j), lhs, rhs)
    report.note_scope(f"simplicial identities through rank {top}")
    if isinstance(x, CycObj):
        for n in range(top + 1):
            power = identity_fin(simp.level(n))
            for _ in range(n + 1):
                power = x.rot(n).compose(power)
            _check_eq(
                report,
                "rotation-order",
                (n,),
                power,
                identity_fin(simp.level(n)),
            )
        for n in range(1, top + 1):
            for i in range(1, n + 1):
                lhs = simp.face(n, i).compose(x.rot(n))
                rhs = x.rot(n - 1).compose(simp.face(n, i - 1))
                _check_eq(report, "rotation-face", (n, i), lhs, rhs)
            _check_eq(
                report,
                "rotation-face-wrap",
                (n, 0),
                simp.face(n, 0).compose(x.rot(n)),
                simp.face(n, n),
            )
        for n in range(top):
            for i in range(1, n + 1):
                lhs = simp.degen(n, i).compose(x.rot(n))
                rhs = x.rot(n + 1).compose(simp.degen(n, i - 1))
                _check_eq(report, "rotation-degen", (n, i), lhs, rhs)
            twice = x.rot(n + 1).compose(x.rot(n + 1))
            _check_eq(
                report,
                "rotation-degen-wrap",
                (n, 0),
                simp.degen(n, 0).compose(x.rot(n)),
                twice.compose(simp.degen(n, n)),
            )
        report.note_scope(f"rotation identities through rank {top}")
    return report


def epi_mono_factor(phi):
    """Face/degeneracy chains realizing a monotone map between skeleta.

    Returns (face_chain, degen_chain): the face chain is a list of
    (rank, index) pairs applied top-down, the degeneracy chain likewise
    applied bottom-up afterwards.
    """
    a = phi.src.skeletal_rank
    b = phi.dst.skeletal_rank
    images = phi.positions
    hit = set(images)
    missing = sorted((v for v in range(b + 1) if v not in hit), reverse=True)
    c = b - len(missing)
    face_chain = [(b - k, j) for k, j in enumerate(missing)]
    gaps = sorted(t for t in range(a) if images[t] == images[t + 1])
    degen_chain = [(c + k, g) for k, g in enumerate(gaps)]
    return face_chain, degen_chain


def apply_delta_op(x, phi):
    """The structure map induced by a monotone map of skeleta.

    phi: [a] -> [b] yields a map X_b -> X_a, assembled from the stored
    face and degeneracy tables via the epi-mono factorization.
    """
    simp = x.base if isinstance(x, CycObj) else x
    a = phi.src.skeletal_rank
    b = phi.dst.skeletal_rank
    if a < 0 or b < 0:
        raise ValueError("need inhabited skeleta")
    if a > simp.top_rank or b > simp.top_rank:
        raise ValueError("insufficient truncation")
    face_chain, degen_chain = epi_mono_factor(phi)
    out = identity_fin(simp.level(b))
    for rank, j in face_chain:
        out = simp.face(rank, j).compose(out)
    for rank, g in degen_chain:
        out = simp.degen(rank, g).compose(out)
    return out


def simplex_map(x, n, verts):
    """The structure map X_n -> X_k of the monotone [k] -> [n], i -> verts[i].

    Faces of the n-simplex are named by their vertex lists: (i, j) is the
    edge i..j, (i,) the vertex i, and a repeated vertex a degeneracy.
    """
    verts = tuple(verts)
    return apply_delta_op(
        x, LinMap(standard_order(len(verts) - 1), standard_order(n), verts)
    )


def apply_lambda_op(x, f):
    """The structure map induced by a map of standard cyclic orders.

    f: <a> -> <b> (a CycMap between standard cycles) yields a map
    X_b -> X_a.  The map is split into a rotation power and a monotone
    part, the rotation acting through the stored tables.
    """
    if not isinstance(x, CycObj):
        raise ValueError("need a cyclic object")
    a = f.src.skeletal_rank
    b = f.dst.skeletal_rank
    if a > x.top_rank or b > x.top_rank:
        raise ValueError("insufficient truncation")
    if f.src != standard_cycle(a) or f.dst != standard_cycle(b):
        raise ValueError("operator must relate standard cycles")
    x0 = None
    for j in range(b + 1):
        fib = f.fiber(j)
        if fib:
            x0 = fib[0]
            break
    phi = LinMap(
        standard_order(a),
        standard_order(b),
        tuple(f((x0 + i) % (a + 1)) for i in range(a + 1)),
    )
    k = (-x0) % (a + 1)
    from .dualities import cyclic_closure_map

    recomposed = cyclic_closure_map(phi).compose(rotation_map(f.src, k))
    if recomposed != f:
        raise AssertionError("operator normal form failed to recompose")
    out = apply_delta_op(x, phi)
    for _ in range(x0):
        out = x.rot(a).compose(out)
    return out
