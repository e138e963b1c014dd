"""Segal-type checkers for truncated simplicial objects.

Two independent formulations of the 2-dimensional gluing condition are
provided: the binary-square form (one pullback square per decomposition
of an interval into two blocks) and the polygon-triangulation form
(one limit per triangulation).  They serve as oracles for each other.
A square is judged on element positions by ``judge_square``: no fiber
product is built, and labels are decoded only for a witness.  The
triangulation form builds every limit and stays the independent,
label-level oracle.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add, eq, mul

from .finset import FinDiagram, limit, tupled_values
from .labels import label_key
from .report import Report
from .sobj import simplex_map


def judge_bijection(rep, check, location, src_set, values, target_set):
    """Record how a candidate comparison map fails to be a bijection.

    values[i] is the would-be image of src_set.elements[i]; it may fall
    outside target_set when the object's identities are broken, which
    counts as a failure rather than an error.
    """
    target = set(target_set.elements)
    _judge_images(
        rep, check, location, values, list(map(target.__contains__, values)),
        len(target_set), target_set.elements, src_set.elements.__getitem__,
        lambda v: v,
    )


def judge_pullback_bijection(
    rep, check, location, left, right, f, g, src_label, a_label, b_label
):
    """judge_bijection of p -> (left[p], right[p]) onto the pullback of
    f: A -> C <- g: B, decided on positions without building the pullback.

    left and right are position columns into A and B, f and g position
    columns into C.  The pair (a, b) lies in the pullback when f[a] ==
    g[b] and is keyed a * |B| + b, so key order is the pullback's
    canonical order.  Labels are decoded only for a witness: src_label
    maps a source position, a_label and b_label positions of A and B.
    """
    nb = len(g)
    inside = list(map(eq, map(f.__getitem__, left), map(g.__getitem__, right)))
    keys = list(map(add, map(mul, left, repeat(nb)), right))
    # each a in A pairs with every b in the g-fiber over f[a]
    size = sum(map(Counter(g).get, f, repeat(0)))

    def target_keys():
        buckets = {}
        for b, c in enumerate(g):
            buckets.setdefault(c, []).append(b)
        for a, c in enumerate(f):
            for b in buckets.get(c, ()):
                yield a * nb + b

    _judge_images(
        rep, check, location, keys, inside, size, target_keys(), src_label,
        lambda k: (a_label(k // nb), b_label(k % nb)),
    )


def judge_square(rep, check, location, left, right, f, g):
    """judge_bijection of P -> A x_C B, p -> (left(p), right(p)), for the
    FinMaps left: P -> A, right: P -> B, f: A -> C and g: B -> C.

    The square is judged on positions by judge_pullback_bijection, and a
    witness is decoded by the labels of P, A and B.
    """
    if f.dst != g.dst:
        raise ValueError("pullback needs a shared codomain")
    if left.src != right.src or left.dst != f.src or right.dst != g.src:
        raise ValueError("square legs do not meet the cospan")
    judge_pullback_bijection(
        rep, check, location,
        *(m.positions() for m in (left, right, f, g)),
        *(m.src.elements.__getitem__ for m in (left, f, g)),
    )


def _judge_images(
    rep, check, location, images, inside, target_size, target_images,
    src_label, target_label,
):
    """The one bijection judge behind both entry points.

    images[i] is a hashable key of the image of source element i and
    inside[i] whether it lies in the target, which has target_size
    elements and whose keys target_images lists lazily in canonical
    order.  The witness is the first stray element, the first colliding
    pair, or the first missed target, decoded by src_label (from a
    source index) and target_label (from a target key).
    """
    if all(inside) and len(images) == target_size == len(set(images)):
        return
    seen = {}
    for i, (v, ok) in enumerate(zip(images, inside)):
        if not ok:
            rep.fail(
                check,
                location,
                witness=src_label(i),
                detail="comparison image is not a compatible family",
            )
            return
        if v in seen:
            rep.fail(
                check,
                location,
                witness=(src_label(seen[v]), src_label(i)),
                detail="two simplices induce the same glued family",
            )
            return
        seen[v] = i
    missing = next(v for v in target_images if v not in seen)
    rep.fail(
        check,
        location,
        witness=target_label(missing),
        detail=f"glued family count {target_size} vs simplex count {len(images)}",
    )


def square_instances(n_top):
    """All (n, m, j) decomposition squares visible at this truncation."""
    out = []
    for n in range(1, n_top + 1):
        for m in range(2, n_top + 1):
            if n + m - 1 > n_top:
                continue
            for j in range(1, n + 1):
                out.append((n, m, j))
    return out


def check_2segal(x):
    """The binary-square gluing condition.

    For every way of substituting an m-block at position j of [n], the
    comparison X_{n+m-1} -> X_n x_{X_1} X_m must be a bijection, where
    the fiber product is taken over the edge j-1..j of [n] and the long
    edge of [m].
    """
    if x.top_rank < 3:
        raise ValueError("truncation too low for 2-Segal checks")
    rep = Report("2segal-squares")
    for n, m, j in square_instances(x.top_rank):
        big = n + m - 1
        to_n = simplex_map(x, big, (p if p < j else p + m - 1 for p in range(n + 1)))
        to_m = simplex_map(x, big, range(j - 1, j + m))
        edge_n = simplex_map(x, n, (j - 1, j))
        edge_m = simplex_map(x, m, (0, m))
        judge_square(rep, "2segal-square", (n, m, j), to_n, to_m, edge_n, edge_m)
    rep.note_scope(f"squares through rank {x.top_rank}")
    return rep


def check_unital(x):
    """The degenerate-block gluing condition.

    For every edge i..i+1 of [n], pairs (an n-simplex whose i-th edge is
    degenerate, the matching vertex) must biject with X_{n-1}.
    """
    rep = Report("unital")
    top = x.top_rank
    degen_edge = simplex_map(x, 0, (0, 0))
    for n in range(1, top + 1):
        for i in range(n):
            # the collapse [n] -> [n-1] that merges vertices i and i+1
            s_i = simplex_map(x, n - 1, (*range(i + 1), *range(i, n)))
            vert = simplex_map(x, n - 1, (i,))
            edge = simplex_map(x, n, (i, i + 1))
            judge_square(rep, "unital-square", (n, i), s_i, vert, edge, degen_edge)
    rep.note_scope(f"degenerate blocks through rank {top}")
    return rep


def check_1segal(x):
    """The spine condition: X_n must biject with chains of n edges."""
    rep = Report("1segal")
    top = x.top_rank
    head = simplex_map(x, 1, (1,))
    tail = simplex_map(x, 1, (0,))
    for n in range(2, top + 1):
        nodes = [(("e", i), x.level(1)) for i in range(1, n + 1)]
        nodes += [(("v", i), x.level(0)) for i in range(1, n)]
        arrows = []
        for i in range(1, n):
            arrows.append((("e", i), ("v", i), head))
            arrows.append((("e", i + 1), ("v", i), tail))
        obj, _ = limit(FinDiagram(tuple(nodes), tuple(arrows)))
        names = sorted(dict(nodes), key=label_key)
        value_maps = {("e", i): simplex_map(x, n, (i - 1, i)) for i in range(1, n + 1)}
        value_maps.update({("v", i): simplex_map(x, n, (i,)) for i in range(1, n)})
        values = tupled_values(x.level(n), [value_maps[nm] for nm in names])
        judge_bijection(rep, "1segal-spine", (n,), x.level(n), values, obj)
    rep.note_scope(f"spines through rank {top}")
    return rep


def triangulations(vertices):
    """All triangulations of the polygon on the given vertex cycle.

    Returns tuples of triangles (i, j, k); the count over an (n+1)-gon
    is the Catalan number.
    """
    verts = tuple(vertices)
    if len(verts) < 3:
        return ((),)
    if len(verts) == 3:
        return ((tuple(sorted(verts)),),)
    first, last = verts[0], verts[-1]
    out = []
    for t, mid in enumerate(verts[1:-1], start=1):
        tri = tuple(sorted((first, mid, last)))
        for left in triangulations(verts[: t + 1]):
            for right in triangulations(verts[t:]):
                out.append(tuple(sorted(left + right + (tri,))))
    return tuple(sorted(set(out)))


def triangulation_diagram(x, n, tris):
    """The diagram of simplices of a triangulated (n+1)-gon.

    Nodes: polygon vertices, all edges appearing in some triangle, and
    the triangles, each named by its kind and its vertex list; arrows
    restrict along face inclusions.
    """
    nodes = []
    arrows = []
    edges = set()
    for (a, b, c) in tris:
        edges.update({(a, b), (b, c), (a, c)})
    lo = simplex_map(x, 1, (0,))
    hi = simplex_map(x, 1, (1,))
    faces = {verts: simplex_map(x, 2, verts) for verts in ((0, 1), (0, 2), (1, 2))}
    for v in range(n + 1):
        nodes.append((("v", v), x.level(0)))
    for (a, b) in sorted(edges):
        nodes.append((("e", a, b), x.level(1)))
        arrows.append((("e", a, b), ("v", a), lo))
        arrows.append((("e", a, b), ("v", b), hi))
    for tri in tris:
        nodes.append((("t", *tri), x.level(2)))
        for (i, j), face in faces.items():
            arrows.append((("t", *tri), ("e", tri[i], tri[j]), face))
    return FinDiagram(tuple(nodes), tuple(arrows))


def check_2segal_triangulations(x):
    """The triangulation form of the gluing condition.

    For every triangulation of the (n+1)-gon, n up to the top rank of
    x, the simplex values over its vertices, edges, and triangles must
    assemble to a limit that the comparison from X_n hits bijectively.
    """
    rep = Report("2segal-triangulations")
    top = x.top_rank
    if top < 3:
        raise ValueError("truncation too low for 2-Segal checks")
    for n in range(2, top + 1):
        for tris in triangulations(tuple(range(n + 1))):
            diag = triangulation_diagram(x, n, tris)
            obj, _ = limit(diag)
            names = sorted(dict(diag.nodes), key=label_key)
            # a node (kind, *vertices) takes the face on its vertices
            values = tupled_values(
                x.level(n), [simplex_map(x, n, nm[1:]) for nm in names]
            )
            judge_bijection(rep, "triangulation", (n, tris), x.level(n), values, obj)
    rep.note_scope(f"triangulations through rank {top}")
    return rep
