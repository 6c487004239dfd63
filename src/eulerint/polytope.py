"""Lattice polytopes: Cayley supports, normalized volumes, and cone facets.

All computations use exact integer / rational arithmetic; the configurations
handled here are desk-scale (dimension <= 6, a few dozen points).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
        seen = []
        for p in points:
            p = tuple(int(x) for x in p)
            if len(p) != dim:
                raise ValueError(f"point {p} has wrong dimension")
            if p not in seen:
                seen.append(p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", tuple(seen))


@dataclass(frozen=True)
class VolumeReport:
    normalized_volume: int
    affine_dim: int
    lattice_index_note: str


def cayley_support(spec: IntegrandSpec) -> LatticePointSet:
    """Support points (alpha, e_j) of the auxiliary polynomial sum_j x_{n+j} f_j."""
    n = spec.nvars
    ell = spec.npolys
    pts = []
    for j, p in enumerate(spec.f):
        for alpha in p.support():
            pts.append(tuple(alpha) + tuple(1 if k == j else 0 for k in range(ell)))
    return LatticePointSet(n + ell, pts)


def _cone_facets(vectors, fixed=()):
    """Facets of the cone spanned by integer vectors, in ambient coordinates.

    The rows `fixed` are a basis of the orthogonal complement of the span of
    the vectors, whose rank is therefore r = len(vectors[0]) - len(fixed).
    Returns (primitive inner normal, indices of the vectors on the facet)
    pairs sorted by normal.  Every r - 1 of the vectors together with `fixed`
    leave a kernel inside the span; when it is one-dimensional its basis
    vector is a candidate normal, primitive because the kernel basis is
    saturated, and a facet normal when it pairs with one sign against all the
    vectors.
    """
    d = len(vectors[0])
    found = {}
    for sub in combinations(range(len(vectors)), d - len(fixed) - 1):
        # no rows at all only for r = d = 1, where the kernel is all of Z
        rows = [vectors[i] for i in sub] + list(fixed)
        kernel = ila.kernel_basis(rows or [[0]])
        if len(kernel) != 1:
            continue
        u = kernel[0]
        vals = [sum(map(mul, u, v)) for v in vectors]
        if all(v <= 0 for v in vals):
            u, vals = [-x for x in u], [-v for v in vals]
        elif any(v < 0 for v in vals):
            continue
        found[tuple(u)] = tuple(i for i, v in enumerate(vals) if v == 0)
    return sorted(found.items())


def _triangulate(points, fixed=()):
    """Triangulation of conv(points) for integer points, possibly repeated.

    Star triangulation from the lexicographically smallest point over a
    recursive triangulation of the facets not containing it.  `fixed` spans
    the orthogonal complement of the homogenized points (p, 1); each facet
    adds its normal to it.  Returns tuples of indices into `points`.
    """
    if all(p == points[0] for p in points):
        return [(0,)]
    v0 = min(range(len(points)), key=lambda i: points[i])
    simplices = []
    # the facets of conv(points) are the cone facets of the points (p, 1)
    for u, on in _cone_facets([tuple(p) + (1,) for p in points], fixed):
        if v0 in on:
            continue
        for sub in _triangulate([points[i] for i in on], fixed + (u,)):
            simplices.append(tuple(sorted((v0,) + tuple(on[i] for i in sub))))
    return simplices


def _normalized_volume_fulldim(points):
    """Sum of |det| over a triangulation: r! times the Euclidean volume."""
    r = len(points[0])
    vol = 0
    for simplex in _triangulate(points):
        base = points[simplex[0]]
        mat = [[points[i][k] - base[k] for k in range(r)] for i in simplex[1:]]
        vol += abs(ila.det_bareiss(mat))
    return vol


def normalized_volume(pts: LatticePointSet) -> VolumeReport:
    """Lattice-normalized volume of conv({0} union pts).

    The volume is measured against the lattice generated by the differences of
    the points together with one translate, i.e. the lattice affinely generated
    by the points, with the origin appended as cone apex.
    """
    points = list(pts.points)
    if not points:
        raise ValueError("empty point set")
    p0 = min(points)
    diffs = [[a - b for a, b in zip(p, p0)] for p in points]
    r = ila.rank(diffs)
    if r == 0:
        return VolumeReport(0, 0, "degenerate: single point")
    lat = ila.lattice_basis(diffs + [list(p0)])
    coords = [tuple([0] * len(lat))] + [
        tuple(ila.lattice_coords(lat, p)) for p in points]
    vol = _normalized_volume_fulldim(coords)
    index = ila.lattice_index_in_saturation(diffs)
    if index == 1:
        note = "difference lattice is saturated in the ambient lattice"
    else:
        note = (f"difference lattice has index {index} in the ambient lattice "
                "intersected with the affine span; volume is measured against "
                "the affinely generated sublattice")
    return VolumeReport(int(vol), int(r), note)


def facets(pts: LatticePointSet):
    """Irredundant facet description of the cone spanned by the points.

    Returns the primitive integer inner normals, sorted, with normal . p >= 0
    for every point.
    """
    gens = [list(p) for p in pts.points]
    fixed = ila.kernel_basis(gens)
    if not gens or len(fixed) == pts.dim:
        raise ValueError("zero-dimensional cone")
    return [u for u, _ in _cone_facets(gens, fixed)]
