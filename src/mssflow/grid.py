"""Cartesian lattices with embedded-boundary (cut-cell) stencil data.

The lattice covers the domain's bounding box with one ghost layer.  Nodes
are classified interior / boundary / exterior against the analytic signed
distance.  The stencil directions are the n axes, then (+,+) and (+,-)
diagonals of every axis pair (axis_pairs).  Every interior node has two
arms per direction, one each way; an arm ends at the lattice neighbor or,
clipped, where it crosses the boundary, at the exact sub-spacing theta in
(0, 1].  A box snaps its faces onto lattice planes, so its arms always
end at lattice nodes; only spherical shapes clip.  The grid stores the
arms as arrays over (direction, side, node): the row of each far end in
[interior values; pinned values] and theta.  Divided differences built
on these arms are second-order accurate on full arms and first-order on
clipped ones.

No interior node lies on the lattice's outer layer: a box's faces are
boundary nodes, and a spherical lattice covers the bounding box plus a
ghost layer.  So every arm's lattice neighbour is one flat-index step
away, interior_flat + sign * (offset @ strides), with no bounds check.

One pass owns the lattice, the classification, the interior nodes with
their boundary distance and the boundary crossings: `build_closure`
stops there (a `Closure`, all the hypothesis checker's h/2 pass reads),
and `build_grid` extends the same result into a `Grid` with the arms.

Interior nodes hugging the boundary (some arm shorter than THETA_DEP)
would force the explicit time step toward zero, so they are taken out of
the stepped unknown set: their values are maintained by linear
interpolation along the shortest cut arm, between the boundary crossing
and the opposite lattice neighbor, which is exact on affine data.  The
rule: the opposite neighbor of every interpolated node is a stepped
interior node, so one pass interpolates them all; a grid where it fails
is a DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import DomainError, DomainSpec

CLS_EXTERIOR = 0
CLS_INTERIOR = 1
CLS_BOUNDARY = 2

CLS_TOL = 1e-12          # |signed distance| below this counts as on-boundary
THETA_DEP = 0.5          # arms shorter than this make the node interpolated
MIN_NODES_ACROSS = 8


def axis_pairs(n: int) -> list:
    """Axis pairs (i, j), i < j, in the order of the diagonal directions:
    direction n + 2p is the (+,+) and n + 2p + 1 the (+,-) diagonal of
    pair p."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _direction_offsets(n: int) -> np.ndarray:
    """(n^2, n) lattice steps: the n axes, then both diagonals of each pair."""
    offs = list(np.eye(n, dtype=np.int64))
    for i, j in axis_pairs(n):
        for sign in (1, -1):
            off = np.zeros(n, dtype=np.int64)
            off[i], off[j] = 1, sign
            offs.append(off)
    return np.array(offs)


@dataclass
class Closure:
    """A lattice over a domain, its classification and its closure sample.

    This is all the hypothesis checker reads of a resolution: the interior
    nodes, their distance to the boundary, and the boundary sample (the
    boundary-class nodes plus every crossing of a clipped stencil arm).
    boundary_frac gives each sample the covered fraction of its cell for
    the flat-face quadrature: on a box the samples are exactly the
    boundary nodes, 1/2 per face (1/4 on an edge, ...); on spheres 0.
    `Grid` extends it with the stencil arms the flow steps on.
    """

    spec: DomainSpec
    hs: np.ndarray                     # per-axis spacing
    los: np.ndarray                    # lattice origin
    dims: tuple                        # nodes per axis
    cls: np.ndarray                    # lattice classification array
    interior_flat: np.ndarray          # (K,) flat lattice indices, ascending
    interior_pos: np.ndarray           # (K, n)
    d_bdry: np.ndarray                 # (K,) distance to computational boundary
    boundary_samples: np.ndarray       # (B, n) points on the true boundary
    boundary_frac: np.ndarray          # (B,) cell-volume fraction for quadrature

    @property
    def n(self) -> int:
        return self.spec.dim

    @property
    def h(self) -> float:
        """Largest spacing; the grid parameter used in tolerances."""
        return float(np.max(self.hs))

    @property
    def num_interior(self) -> int:
        return self.interior_flat.size

    @property
    def cellvol(self) -> float:
        return float(np.prod(self.hs))

    def band_mask(self, delta: float) -> np.ndarray:
        """Interior nodes lying within distance delta of the boundary."""
        return self.d_bdry < delta

    def closure_points(self) -> np.ndarray:
        """Sample points of the closed region: interior nodes, then boundary."""
        return np.vstack([self.interior_pos, self.boundary_samples])

    def closure_band_mask(self, delta: float | None) -> np.ndarray:
        """Rows of closure_points() in the delta band: the band nodes plus
        every boundary sample, or all rows when delta is None."""
        rows = np.ones(self.num_interior + self.boundary_samples.shape[0], bool)
        if delta is not None:
            rows[:self.num_interior] = self.band_mask(delta)
        return rows

    def lattice_coords(self) -> np.ndarray:
        """(K, n) integer coordinates of the interior nodes, x = coords * hs.

        Grids with equal spacings on origin-aligned lattices share these
        coordinates, so nodes match across grids by exact integer keys.
        """
        local = np.stack(np.unravel_index(self.interior_flat, self.dims), axis=1)
        return local + np.round(self.los / self.hs).astype(np.int64)

    def lattice_index(self, coords: np.ndarray) -> np.ndarray:
        """Interior index of each row of lattice coordinates, -1 where the
        lattice has no interior node there."""
        local = np.asarray(coords) - np.round(self.los / self.hs).astype(np.int64)
        inside = np.all((local >= 0) & (local < np.array(self.dims)), axis=1)
        flat = np.ravel_multi_index(tuple(np.where(inside[:, None], local, 0).T),
                                    self.dims)
        k = np.minimum(np.searchsorted(self.interior_flat, flat),
                       self.num_interior - 1)
        return np.where(inside & (self.interior_flat[k] == flat), k, -1)

    def axis_coords(self, i: int) -> np.ndarray:
        return self.los[i] + self.hs[i] * np.arange(self.dims[i])

    def lattice_positions(self) -> np.ndarray:
        grids = np.meshgrid(*[self.axis_coords(i) for i in range(self.n)],
                            indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass
class Grid(Closure):
    """A Closure with the stencil arms, cell fractions and the split into
    stepped and interpolated nodes that the flow runs on."""

    arm_src: np.ndarray                # (D, 2, K) row of each arm end in
                                       # [f; pinned]: >= K when cut, sides +, -
    arm_theta: np.ndarray              # (D, 2, K) arm length in lattice steps
    cell_frac: np.ndarray              # (K,) covered fraction of each cell
    pinned_pos: np.ndarray             # (P, n) cut arm ends
    cut_rows: np.ndarray               # (R,) rows with a cut arm, ascending
    full_stencil: np.ndarray           # (K,) all arms unclipped
    stepped: np.ndarray                # (K,) evolved unknowns
    dep_idx: np.ndarray                # interpolated nodes
    dep_opp: np.ndarray                # their inward neighbors
    dep_t: np.ndarray                  # cut fraction of the arm
    dep_pin: np.ndarray                # pinned row of that arm
    # m -> interpolated and clipped rows with the clipped rows' weights
    stencils: dict = field(default_factory=dict, repr=False)
    # power-iteration estimate of the flow operator's spectral radius
    rho_estimate: float | None = field(default=None, repr=False)


def _crossing_fraction(spec: DomainSpec, p: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Fraction t in (0, 1] where segments p -> p + step cross the boundary.

    Vectorized over rows of p/step.  Every segment is assumed to start
    inside the domain and end outside it, so a crossing exists.  Only the
    spherical shapes get here: a box never clips an arm (see _classify).
    """
    K = p.shape[0]
    tol = 1e-12
    radii = [spec.radius] if spec.kind == "ball" \
        else [spec.inner_radius, spec.radius]     # annulus or exterior shell
    a = np.einsum("ki,ki->k", step, step)
    b = np.einsum("ki,ki->k", p, step)
    t = np.full(K, np.inf)
    for r in radii:
        c = np.einsum("ki,ki->k", p, p) - r * r
        disc = b * b - a * c
        ok = disc >= 0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for root in ((-b - sq) / a, (-b + sq) / a):
            cand = np.where(ok, root, np.inf)
            good = cand > tol
            t = np.where(good & (cand < t), cand, t)
    if not np.all(np.isfinite(t)):
        raise DomainError("no boundary crossing found for a clipped stencil arm")
    return np.clip(t, tol, 1.0)


def _mark_dependent_nodes(arm_src: np.ndarray, arm_theta: np.ndarray,
                          interior_pos: np.ndarray) -> dict:
    """Split interior nodes into stepped unknowns and interpolated ones.

    Every node with a cut stencil arm shorter than THETA_DEP is pinned by
    linear interpolation along its shortest arm (the first one on a tie):
    boundary crossing on one side, the opposite lattice neighbor on the
    other.  The rows are in increasing arm length (stable).  A node whose
    opposite neighbor is not a stepped interior node makes the grid a
    DomainError, which names the first such node in that order.  Returns
    the `Grid` fields of the split.
    """
    K = arm_src.shape[-1]
    src = arm_src.reshape(-1, K)             # row 2 d + side
    theta = arm_theta.reshape(-1, K)         # uncut arms have theta = 1
    min_t = theta.min(axis=0)
    low = np.nonzero(min_t < THETA_DEP)[0]
    dep_idx = low[np.argsort(min_t[low], kind="stable")]
    arm = theta[:, dep_idx].argmin(axis=0)
    dep_opp = src[arm ^ 1, dep_idx]          # the other side, same direction
    stepped = np.ones(K, dtype=bool)
    stepped[dep_idx] = False
    bad = np.nonzero((dep_opp >= K) | ~stepped[np.minimum(dep_opp, K - 1)])[0]
    if bad.size:
        k = dep_idx[bad[0]]
        raise DomainError(
            f"interior node at {interior_pos[k]} has a "
            f"{min_t[k]:.3g}-step arm and no stepped node opposite it; "
            f"refine the grid")
    return dict(stepped=stepped, dep_idx=dep_idx, dep_opp=dep_opp,
                dep_t=min_t[dep_idx], dep_pin=src[arm, dep_idx] - K)


def _flat_steps(dims: tuple) -> np.ndarray:
    """Flat-index step of each stencil direction on a lattice of shape
    dims (C order)."""
    strides = [int(np.prod(dims[i + 1:])) for i in range(len(dims))]
    return _direction_offsets(len(dims)) @ np.array(strides, dtype=np.int64)


def _first_of_equal_rows(rows: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows of a finite float array that no earlier
    row equals, as np.unique(rows, axis=0, return_index=True) finds them.

    The rows' uint64 view, with -0.0 taken to 0.0 first, is equal exactly
    where the rows are, so one stable lexsort of it brings every group of
    equal rows together, in input order.
    """
    bits = (rows + 0.0).view(np.uint64)
    order = np.lexsort(bits.T)
    ranked = bits[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[first])


def _classify(spec: DomainSpec, target_h: float) -> tuple[Closure, list]:
    """The Closure at spacing target_h, and the cut stencil arms.

    The cut arms are one (rows, ends, theta) triple per direction and side
    (directions in order, + before -): the interior rows, ascending, whose
    neighbour that way is not interior, the arm's far end (the boundary
    node, or where the arm crosses the boundary) and its length in lattice
    steps (1 at a boundary node).  Every interior row is scanned per arm,
    its neighbour one flat-index step away (`_flat_steps`): no interior
    node lies on the lattice's outer layer, so no step leaves the lattice
    or wraps round an axis.

    Box edges are fitted exactly (per-axis spacing snapped so faces land
    on lattice planes); spherical shapes use the requested spacing with a
    one-node ghost margin around the bounding box, so the outer layer is
    boundary (box faces) or exterior (ghost) nodes.  A box lattice has no
    exterior node within one step of an interior one: every interior
    node's neighbours lie in the closed box, and each cut arm of a box
    ends at a boundary node on a face with theta = 1.  Only spherical
    shapes clip arms and search for crossings.
    """
    if not (target_h > 0 and np.isfinite(target_h)):
        raise DomainError(f"target_h must be finite and positive, got {target_h}")
    n = spec.dim
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        counts = np.maximum(np.round((hi - lo) / target_h).astype(int), 1)
        hs = (hi - lo) / counts
        los = lo.copy()
        dims = tuple(counts + 1)
    else:
        hs = np.full(n, float(target_h))
        half = int(np.ceil(spec.radius / target_h)) + 1
        los = -half * hs
        dims = tuple([2 * half + 1] * n)

    h = float(np.max(hs))
    across = int(np.floor(spec.min_feature() / h + 1e-9)) - 1
    if across < MIN_NODES_ACROSS:
        raise DomainError(
            f"domain under-resolved: {across} interior nodes across the thinnest "
            f"dimension, need >= {MIN_NODES_ACROSS}")

    closure = Closure(spec=spec, hs=hs, los=los, dims=dims, cls=None,
                      interior_flat=None, interior_pos=None, d_bdry=None,
                      boundary_samples=None, boundary_frac=None)

    pos = closure.lattice_positions()
    sd = spec.signed_distance(pos)
    scale = max(1.0, float(np.abs(pos).max()))
    cls = np.where(sd < -CLS_TOL * scale, CLS_INTERIOR, CLS_EXTERIOR).astype(np.int8)
    cls[np.abs(sd) <= CLS_TOL * scale] = CLS_BOUNDARY
    closure.cls = cls.reshape(dims)

    interior_flat = np.nonzero(cls == CLS_INTERIOR)[0]
    closure.interior_flat = interior_flat
    closure.interior_pos = pos[interior_flat]
    closure.d_bdry = -sd[interior_flat]

    bnd_flat = np.nonzero(cls == CLS_BOUNDARY)[0]
    sample_pts = [pos[bnd_flat]] if bnd_flat.size else []
    cuts = []
    for off, step in zip(_direction_offsets(n), _flat_steps(dims)):
        for sign in (+1, -1):
            nb_flat = interior_flat + sign * step
            nb_cls = cls[nb_flat]
            cut = np.nonzero(nb_cls != CLS_INTERIOR)[0]
            ends = pos[nb_flat[cut]]
            theta = np.ones(cut.size)
            clipped = nb_cls[cut] == CLS_EXTERIOR
            if clipped.any():
                p = closure.interior_pos[cut[clipped]]
                seg = np.broadcast_to(sign * off * hs, p.shape)
                t = _crossing_fraction(spec, p, seg)
                cross = p + t[:, None] * seg
                sample_pts.append(cross)
                ends[clipped] = cross
                theta[clipped] = t
            cuts.append((cut, ends, theta))

    if sample_pts:
        # one sample per point to 9 decimals (the first in input order),
        # sorted by its coordinates
        allpts = np.vstack(sample_pts)
        samples = allpts[_first_of_equal_rows(np.round(allpts, 9))]
        closure.boundary_samples = samples[np.lexsort(samples.T[::-1])]
    else:
        closure.boundary_samples = np.zeros((0, n))
    samples = closure.boundary_samples
    if spec.kind == "box":
        # the samples are the boundary nodes: 1/2 per face a node lies on
        on_face = (np.abs(samples - lo) < CLS_TOL * scale) | \
                  (np.abs(samples - hi) < CLS_TOL * scale)
        closure.boundary_frac = 0.5 ** on_face.sum(axis=1)
    else:
        closure.boundary_frac = np.zeros(samples.shape[0])
    return closure, cuts


def build_closure(spec: DomainSpec, target_h: float) -> Closure:
    """Lattice, classification and closure sample for a domain, without
    the stencil arms: the same arrays as build_grid's, bit for bit."""
    return _classify(spec, target_h)[0]


def build_grid(spec: DomainSpec, target_h: float) -> Grid:
    """The Closure of a domain extended with its stencil arms.

    Every interior node gets both arms of every direction: the row of the
    far end in [f; pinned] (the neighbour's interior row, or K plus the
    row of `pinned_pos` for a cut arm) and the arm length; then the cell
    fractions, the rows with a cut arm and the stepped / interpolated
    split.
    """
    closure, cuts = _classify(spec, target_h)
    K = closure.num_interior
    inv = np.full(closure.cls.size, -1, dtype=np.int64)
    inv[closure.interior_flat] = np.arange(K)
    steps = _flat_steps(closure.dims)
    arm_src = np.empty((steps.size, 2, K), dtype=np.int64)
    arm_theta = np.ones((steps.size, 2, K))
    P = 0
    for d, step in enumerate(steps):
        for side, sign in enumerate((+1, -1)):
            cut, _, theta = cuts[2 * d + side]
            arm_src[d, side] = inv[closure.interior_flat + sign * step]
            arm_src[d, side, cut] = K + P + np.arange(cut.size)
            arm_theta[d, side, cut] = theta
            P += cut.size
    # Covered-volume fraction of each node's cell: the product over axes of
    # the covered half-arm lengths (cut arms contribute their sub-spacing,
    # capped at the half cell).  Exact away from the boundary, first-order
    # on cut cells; it removes the leading boundary error from the area and
    # dissipation quadratures.
    cell_frac = np.ones(K)
    for i in range(spec.dim):
        cell_frac *= np.minimum(arm_theta[i, 0], 0.5) \
            + np.minimum(arm_theta[i, 1], 0.5)
    return Grid(**vars(closure), arm_src=arm_src, arm_theta=arm_theta,
                cell_frac=cell_frac,
                pinned_pos=np.vstack([ends for _, ends, _ in cuts]),
                cut_rows=np.flatnonzero(np.bincount(
                    np.concatenate([cut for cut, _, _ in cuts]), minlength=K)),
                full_stencil=(arm_theta == 1.0).all(axis=(0, 1)),
                **_mark_dependent_nodes(arm_src, arm_theta,
                                        closure.interior_pos))
