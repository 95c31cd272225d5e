"""Cartesian lattices with embedded-boundary (cut-cell) stencil data.

The lattice covers the domain's bounding box with one ghost layer.  Nodes
are classified interior / boundary / exterior against the analytic signed
distance.  The stencil directions are the n axes, then (+,+) and (+,-)
diagonals of every axis pair (axis_pairs).  Every interior node has two
arms per direction, one each way; an arm ends at the lattice neighbor or,
clipped, where it crosses the boundary, at the exact sub-spacing theta in
(0, 1].  The grid stores the arms as arrays over (direction, side, node):
the row of each far end in [interior values; pinned values] and theta.
Divided differences built on these arms are second-order accurate on full
arms and first-order on clipped ones.

One pass owns the lattice, the classification, the interior nodes with
their boundary distance and the boundary crossings: `build_closure`
stops there (a `Closure`, all the hypothesis checker's h/2 pass reads),
and `build_grid` extends the same result into a `Grid` with the arms.

Interior nodes hugging the boundary (some arm shorter than THETA_DEP)
would force the explicit time step toward zero, so they are taken out of
the stepped unknown set: their values are maintained by second-order
linear interpolation along the shortest cut arm, between the boundary
crossing and the opposite lattice neighbor.  A node whose opposite
neighbor is not a stepped interior node makes the grid a DomainError.
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
    boundary_nodes_pos: np.ndarray     # lattice nodes classified as boundary
    boundary_nodes_frac: np.ndarray    # cell-volume fraction for quadrature

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

    offsets: np.ndarray                # (D, n) lattice step of each direction
    arm_src: np.ndarray                # (D, 2, K) row of each arm end in
                                       # [f; pinned]: >= K when cut, sides +, -
    arm_theta: np.ndarray              # (D, 2, K) arm length in lattice steps
    cell_frac: np.ndarray              # (K,) covered fraction of each cell
    pinned_pos: np.ndarray             # (P, n) cut arm ends
    full_stencil: np.ndarray           # (K,) all arms unclipped
    stepped: np.ndarray = field(default=None)       # (K,) evolved unknowns
    dep_idx: np.ndarray = field(default=None)       # interpolated nodes
    dep_opp: np.ndarray = field(default=None)       # their inward neighbors
    dep_t: np.ndarray = field(default=None)         # cut fraction of the arm
    dep_pin: np.ndarray = field(default=None)       # pinned row of that arm
    # m -> interpolated and clipped rows with the clipped rows' weights
    stencils: dict = field(default_factory=dict, repr=False)


def _crossing_fraction(spec: DomainSpec, p: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Fraction t in (0, 1] where segments p -> p + step cross the boundary.

    Vectorized over rows of p/step.  Every segment is assumed to start
    inside the domain and end outside it, so a crossing exists.
    """
    K = p.shape[0]
    if K == 0:
        return np.zeros(0)
    tol = 1e-12
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        t = np.full(K, np.inf)
        for i in range(spec.dim):
            si = step[:, i]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_lo = np.where(si != 0, (lo[i] - p[:, i]) / si, np.inf)
                t_hi = np.where(si != 0, (hi[i] - p[:, i]) / si, np.inf)
            for cand in (t_lo, t_hi):
                ok = cand > tol
                t = np.where(ok & (cand < t), cand, t)
        return np.clip(t, tol, 1.0)

    radii = []
    if spec.kind == "ball":
        radii = [spec.radius]
    elif spec.kind == "annulus":
        radii = [spec.inner_radius, spec.radius]
    else:  # exterior shell
        radii = [spec.inner_radius, spec.truncation_radius]
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


def _mark_dependent_nodes(grid: Grid) -> None:
    """Split interior nodes into stepped unknowns and interpolated ones.

    Nodes with some cut stencil arm shorter than THETA_DEP are pinned by
    linear interpolation along their shortest cut arm (the first one on a
    tie): boundary crossing on one side, the opposite lattice neighbor on
    the other.  Nodes are taken by increasing arm length, and the opposite
    neighbor must be an interior node not already interpolated; a node
    without one is a DomainError.
    """
    K = grid.num_interior
    src = grid.arm_src.reshape(-1, K)        # row 2 d + side
    cut_t = np.where(src >= K, grid.arm_theta.reshape(-1, K), 1.0)
    min_t = cut_t.min(axis=0)
    argmin = cut_t.argmin(axis=0)

    dependent = np.zeros(K, dtype=bool)
    dep_rows = []
    order = np.argsort(min_t, kind="stable")
    for k in order[:np.count_nonzero(min_t < THETA_DEP)]:
        arm = argmin[k]
        q = src[arm ^ 1, k]                  # the other side, same direction
        if q >= K or dependent[q]:
            raise DomainError(
                f"interior node at {grid.interior_pos[k]} has a "
                f"{min_t[k]:.3g}-step arm and no stepped node opposite it; "
                f"refine the grid")
        dependent[k] = True
        dep_rows.append((k, q, min_t[k], src[arm, k] - K))

    grid.stepped = ~dependent
    grid.dep_idx = np.array([r[0] for r in dep_rows], dtype=np.int64)
    grid.dep_opp = np.array([r[1] for r in dep_rows], dtype=np.int64)
    grid.dep_t = np.array([r[2] for r in dep_rows], dtype=float)
    grid.dep_pin = np.array([r[3] for r in dep_rows], dtype=np.int64)


def _neighbours(multi: np.ndarray, step: np.ndarray, dims: tuple):
    """Flat lattice index of each row of multi + step (0 where that point
    is off the lattice), and whether it is on the lattice."""
    nb = multi + step
    in_lat = np.all((nb >= 0) & (nb < np.array(dims)), axis=1)
    strides = np.array([int(np.prod(dims[i + 1:])) for i in range(len(dims))],
                       dtype=np.int64)
    return np.where(in_lat, nb @ strides, 0), in_lat


def _search_rows(d_bdry: np.ndarray, offsets: np.ndarray, hs: np.ndarray,
                 scale: float) -> np.ndarray:
    """Interior rows that can have a non-interior lattice neighbour.

    The signed distance is 1-Lipschitz, so a node whose neighbour along
    some arm is not interior lies within that arm's length of the
    boundary, up to the classification tolerance and rounding (both below
    CLS_TOL * scale).  Ascending, like the interior rows.
    """
    reach = np.linalg.norm(offsets * hs, axis=1).max() + 2.0 * CLS_TOL * scale
    return np.nonzero(d_bdry <= reach)[0]


def _classify(spec: DomainSpec, target_h: float) -> tuple[Closure, list]:
    """The Closure at spacing target_h, and the cut stencil arms.

    The cut arms are one (rows, ends, theta) triple per direction and side
    (directions in order, + before -): the interior rows, ascending, whose
    neighbour that way is not interior, the arm's far end (the boundary
    node, or where the arm crosses the boundary) and its length in lattice
    steps (1 at a boundary node).  The crossing search only visits
    `_search_rows`, which hold every cut arm.

    Box edges are fitted exactly (per-axis spacing snapped so faces land
    on lattice planes); spherical shapes use the requested spacing with a
    one-node ghost margin around the bounding box.
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
        r = spec.radius if spec.kind in ("ball", "annulus") else spec.truncation_radius
        hs = np.full(n, float(target_h))
        half = int(np.ceil(r / target_h)) + 1
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
                      boundary_samples=None, boundary_nodes_pos=None,
                      boundary_nodes_frac=None)

    pos = closure.lattice_positions()
    sd = spec.signed_distance(pos)
    scale = max(1.0, float(np.abs(pos).max()))
    cls = np.where(sd < -CLS_TOL * scale, CLS_INTERIOR, CLS_EXTERIOR).astype(np.int8)
    cls[np.abs(sd) <= CLS_TOL * scale] = CLS_BOUNDARY
    closure.cls = cls.reshape(dims)

    interior_flat = np.nonzero(cls == CLS_INTERIOR)[0]
    closure.interior_flat = interior_flat
    closure.interior_pos = pos[interior_flat]
    closure.d_bdry = spec.boundary_distance(closure.interior_pos)

    bnd_flat = np.nonzero(cls == CLS_BOUNDARY)[0]
    closure.boundary_nodes_pos = pos[bnd_flat]
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        on_face = (np.abs(closure.boundary_nodes_pos - lo) < CLS_TOL * scale) | \
                  (np.abs(closure.boundary_nodes_pos - hi) < CLS_TOL * scale)
        closure.boundary_nodes_frac = 0.5 ** on_face.sum(axis=1)
    else:
        closure.boundary_nodes_frac = np.zeros(bnd_flat.size)

    sample_pts = [pos[bnd_flat]] if bnd_flat.size else []
    cuts = []
    offsets = _direction_offsets(n)
    rows = _search_rows(closure.d_bdry, offsets, hs, scale)
    near = np.stack(np.unravel_index(interior_flat[rows], dims), axis=1)
    for off in offsets:
        for sign in (+1, -1):
            nb_flat, in_lat = _neighbours(near, sign * off, dims)
            nb_cls = np.where(in_lat, cls[nb_flat], CLS_EXTERIOR)
            hit = np.nonzero(nb_cls != CLS_INTERIOR)[0]
            cut = rows[hit]
            ends = pos[nb_flat[hit]]
            theta = np.ones(cut.size)
            clipped = nb_cls[hit] == CLS_EXTERIOR
            if clipped.any():
                p = closure.interior_pos[cut[clipped]]
                step = np.broadcast_to(sign * off * hs, p.shape)
                t = _crossing_fraction(spec, p, step)
                cross = p + t[:, None] * step
                sample_pts.append(cross)
                ends[clipped] = cross
                theta[clipped] = t
            cuts.append((cut, ends, theta))

    if sample_pts:
        allpts = np.vstack(sample_pts)
        rounded = np.round(allpts, 9)
        _, keep = np.unique(rounded, axis=0, return_index=True)
        samples = allpts[np.sort(keep)]
        order = np.lexsort(samples.T[::-1])
        closure.boundary_samples = samples[order]
    else:
        closure.boundary_samples = np.zeros((0, n))
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
    fractions and the stepped / interpolated split.
    """
    closure, cuts = _classify(spec, target_h)
    K = closure.num_interior
    offsets = _direction_offsets(spec.dim)
    inv = np.full(closure.cls.size, -1, dtype=np.int64)
    inv[closure.interior_flat] = np.arange(K)
    int_multi = np.stack(np.unravel_index(closure.interior_flat, closure.dims),
                         axis=1)
    arm_src = np.empty((len(offsets), 2, K), dtype=np.int64)
    arm_theta = np.ones((len(offsets), 2, K))
    P = 0
    for d, off in enumerate(offsets):
        for side, sign in enumerate((+1, -1)):
            cut, _, theta = cuts[2 * d + side]
            arm_src[d, side] = inv[_neighbours(int_multi, sign * off,
                                               closure.dims)[0]]
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
    grid = Grid(**vars(closure), offsets=offsets, arm_src=arm_src,
                arm_theta=arm_theta, cell_frac=cell_frac,
                pinned_pos=np.vstack([ends for _, ends, _ in cuts]),
                full_stencil=(arm_theta == 1.0).all(axis=(0, 1)))
    _mark_dependent_nodes(grid)
    return grid
