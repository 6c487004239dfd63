"""Lattice polytopes: Cayley supports, normalized volumes, and cone facets.

All computations use exact integer / rational arithmetic; the configurations
handled here are desk-scale (dimension <= 6, a few dozen points).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import intlinalg as ila
from .laurent import IntegrandSpec


@dataclass(frozen=True)
class LatticePointSet:
    dim: int
    points: tuple

    def __init__(self, dim: int, points):
        if dim < 1:
            raise ValueError("dim must be positive")
        points = tuple(dict.fromkeys(tuple(int(x) for x in p) for p in points))
        for p in points:
            if len(p) != dim:
                raise ValueError(f"point {p} has wrong dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class VolumeReport:
    normalized_volume: int
    affine_dim: int
    lattice_index_note: str
    index: int        # of the affinely generated lattice in its saturation


def cayley_support(spec: IntegrandSpec) -> LatticePointSet:
    """Support points (alpha, e_j) of the auxiliary polynomial sum_j x_{n+j} f_j."""
    n = spec.nvars
    ell = spec.npolys
    pts = []
    for j, p in enumerate(spec.f):
        for alpha in p.support():
            pts.append(tuple(alpha) + tuple(1 if k == j else 0 for k in range(ell)))
    return LatticePointSet(n + ell, pts)


def _place(points):
    """Placing (beneath-beyond) triangulation of conv({0} union points).

    In the coordinates of the lattice the points generate, a first simplex
    takes the origin and each point that raises the rank.  Each further point
    p adds |det(p, F)| for every boundary simplex F that it sees strictly, then
    re-cones the boundary over the horizon.  Returns the normalized volume
    and the boundary simplices: sorted index tuples, 0 the origin and i
    points[i - 1].
    """
    pts = [[0] * len(points[0])] + [list(p) for p in points]
    lat = ila.lattice_basis(pts)
    pts = [ila.lattice_coords(lat, p) + [1] for p in pts]

    def det(verts, q):
        # zero on the affine span of verts, with one sign on each side
        return ila.det_bareiss([pts[v] for v in verts] + [pts[q]])

    def facet(verts, inside):
        # a boundary simplex and the sign of a point beneath it
        verts = tuple(sorted(verts))
        return verts, det(verts, inside)

    # row operations keep the dependencies among the columns of pts'
    # transpose, so its pivot columns are the points that raise the rank
    simplex = [next(i for i, x in enumerate(row) if x)
               for row in ila.lattice_basis(list(zip(*pts)))]
    boundary = [facet(set(simplex) - {w}, w) for w in simplex]
    volume = abs(boundary[0][1])   # the first simplex, seen from its own vertex 0
    for i in range(len(pts)):
        kept, horizon = [], {}
        for verts, beneath in boundary:
            d = det(verts, i)
            if d * beneath >= 0:
                kept.append((verts, beneath))
                continue
            volume += abs(d)
            # a ridge of one seen simplex lies on the horizon, of two inside it
            for w in verts:
                ridge = tuple(v for v in verts if v != w)
                if horizon.pop(ridge, None) is None:
                    horizon[ridge] = w
        boundary = kept + [facet(ridge + (i,), w) for ridge, w in horizon.items()]
    return volume, [verts for verts, _ in boundary]


def normalized_volume(pts: LatticePointSet) -> VolumeReport:
    """Lattice-normalized volume of conv({0} union pts).

    The volume is measured against the lattice generated by the differences of
    the points together with one translate, i.e. the lattice affinely generated
    by the points, with the origin appended as cone apex.  `index` is the
    index of the points' difference lattice in the integer points of its
    span, so the volume times the index is measured against the integers.
    """
    points = list(pts.points)
    if not points:
        raise ValueError("empty point set")
    p0 = min(points)
    diffs = [[a - b for a, b in zip(p, p0)] for p in points]
    basis = ila.lattice_basis(diffs)
    if not basis:
        return VolumeReport(0, 0, "degenerate: single point", 1)
    index = ila.lattice_index_in_saturation(basis)
    if index == 1:
        note = "difference lattice is saturated in the ambient lattice"
    else:
        note = (f"difference lattice has index {index} in the ambient lattice "
                "intersected with the affine span; volume is measured against "
                "the affinely generated sublattice")
    return VolumeReport(_place(points)[0], len(basis), note, index)


def facets(pts: LatticePointSet):
    """Irredundant facet description of the cone spanned by the points.

    Returns the primitive integer inner normals, sorted, with normal . p >= 0
    for every point.
    """
    return facets_and_volume(pts)[0]


def facets_and_volume(pts: LatticePointSet):
    """`facets(pts)` and `normalized_volume(pts).normalized_volume`, read off
    one placing of the points."""
    gens = [list(p) for p in pts.points]
    fixed = ila.kernel_basis(gens)
    if not gens or len(fixed) == pts.dim:
        raise ValueError("zero-dimensional cone")
    volume, boundary = _place(gens)
    # the facets of the cone are the facets of conv({0} union gens) through 0
    normals = set()
    for simplex in boundary:
        if simplex[0] == 0:
            # the origin's own row keeps the rows nonempty when r = d = 1
            rows = [[0] * pts.dim] + [gens[i - 1] for i in simplex[1:]]
            u = ila.kernel_basis(rows + fixed)[0]
            if any(sum(map(mul, u, g)) < 0 for g in gens):
                u = [-x for x in u]
            normals.add(tuple(u))
    # one point has no differences, and normalized_volume gives it 0
    return sorted(normals), volume if len(gens) > 1 else 0
