"""Lattice polytopes: Cayley supports, normalized volumes, and cone facets.

All computations use exact integer / rational arithmetic; the configurations
handled here are desk-scale (dimension <= 6, a few dozen points).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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


def _cone_facets(vectors):
    """Facets of the cone spanned by integer vectors of full rank r in Z^r.

    Returns (primitive inner normal, indices of the vectors on the facet)
    pairs sorted by normal.  Every r - 1 of the vectors with a one-dimensional
    integer kernel give a candidate normal, which is primitive because the
    kernel basis is saturated; it is a facet normal when it pairs with one
    sign against all the vectors.
    """
    r = len(vectors[0])
    found = {}
    for sub in combinations(range(len(vectors)), r - 1):
        # r = 1: no rows, and the kernel is all of Z
        kernel = ila.kernel_basis([vectors[i] for i in sub] or [[0]])
        if len(kernel) != 1:
            continue
        u = kernel[0]
        vals = [sum(a * b for a, b in zip(u, v)) for v in vectors]
        if all(v <= 0 for v in vals):
            u, vals = [-x for x in u], [-v for v in vals]
        elif any(v < 0 for v in vals):
            continue
        found[tuple(u)] = tuple(i for i, v in enumerate(vals) if v == 0)
    return sorted(found.items())


def _triangulate(points):
    """Triangulation of conv(points) for full-dimensional integer point sets.

    Star triangulation from the lexicographically smallest point over a
    recursive triangulation of the facets not containing it.  Returns tuples of
    indices into `points`.
    """
    r = len(points[0])
    idx = sorted(range(len(points)), key=lambda i: points[i])
    v0 = idx[0]
    if r == 1:
        hi = max(range(len(points)), key=lambda i: points[i][0])
        return [(v0, hi)] if points[hi] != points[v0] else []
    simplices = []
    # the facets of conv(points) are the cone facets of the points (p, 1)
    for _, on in _cone_facets([tuple(p) + (1,) for p in points]):
        if v0 in on:
            continue
        fpts = [points[i] for i in on]
        # project the facet to Z^(r-1): affine coordinates over Q, scaled to Z
        base = fpts[0]
        diffs = [[p[k] - base[k] for k in range(r)] for p in fpts]
        basis = ila.lattice_basis(diffs)
        coords = []
        for d in diffs:
            c = ila.lattice_coords(basis, d)
            coords.append(tuple(c))
        for sub in _triangulate(coords):
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
    basis = ila.lattice_basis(gens)  # rows span the rational span
    if not basis:
        raise ValueError("zero-dimensional cone")
    coords = [ila.lattice_coords(basis, g) for g in gens]
    return sorted(_lift_normal(u, basis, pts.dim) for u, _ in _cone_facets(coords))


def _lift_normal(u_coords, basis, d):
    """Lift a facet functional from span coordinates to a primitive ambient vector.

    The lift is chosen inside the rational row space of the generators, which
    makes it canonical; for full-rank configurations it is the unique normal
    direction.
    """
    r = len(basis)
    # solve (B B^T) w = u, then normal = B^T w
    bbt = [[sum(basis[i][k] * basis[j][k] for k in range(d)) for j in range(r)]
           for i in range(r)]
    w = ila.solve_rational(bbt, u_coords)
    normal = [sum(Fraction(basis[i][k]) * w[i] for i in range(r)) for k in range(d)]
    return tuple(ila.primitive_integer(normal))


def pointset_to_json(pts: LatticePointSet) -> dict:
    return {"dim": pts.dim, "points": [list(p) for p in pts.points]}


def pointset_from_json(obj: dict) -> LatticePointSet:
    return LatticePointSet(int(obj["dim"]), obj["points"])
