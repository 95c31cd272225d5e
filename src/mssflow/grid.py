"""Cartesian lattices with embedded-boundary (cut-cell) stencil data.

The lattice covers the domain's bounding box with one ghost layer.  Nodes
are classified interior / boundary / exterior against the analytic signed
distance.  Every interior node stores, for each stencil direction (the n
axes plus both diagonals of every axis pair), either its lattice neighbor
or the exact sub-spacing theta in (0, 1] to the point where the stencil
arm crosses the boundary.  Divided differences built on these arms are
second-order accurate on full arms and first-order on clipped ones.

Interior nodes hugging the boundary (some arm shorter than THETA_DEP)
would force the explicit time step toward zero, so they are taken out of
the stepped unknown set: their values are maintained by second-order
linear interpolation along the shortest cut arm, between the boundary
crossing and the opposite lattice neighbor.  In the rare case where that
neighbor is unavailable the node stays stepped and its short arms are
clamped to THETA_FALLBACK instead (a first-order geometric perturbation).
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
THETA_FALLBACK = 0.2     # clamp floor for nodes that cannot be interpolated
MIN_NODES_ACROSS = 8


@dataclass
class ArmData:
    """One orientation of one stencil direction, over all interior nodes.

    nbr   : index into the interior ordering of the lattice neighbor,
            or -1 when the arm is clipped (the pinned trace is used instead)
    theta : arm length as a fraction of the full lattice step, in (0, 1]
    src   : row of the arm's far end in the stacked array [interior values;
            pinned values]: nbr where that is interior, else K + i for the
            grid's pinned_pos[i]
    """

    nbr: np.ndarray
    theta: np.ndarray
    src: np.ndarray


@dataclass
class Direction:
    offset: tuple            # lattice step, e.g. (1, 0) or (1, -1)
    plus: ArmData = None
    minus: ArmData = None


@dataclass
class Grid:
    spec: DomainSpec
    hs: np.ndarray                     # per-axis spacing
    los: np.ndarray                    # lattice origin
    dims: tuple                        # nodes per axis
    cls: np.ndarray                    # lattice classification array
    interior_flat: np.ndarray          # (K,) flat lattice indices, ascending
    interior_pos: np.ndarray           # (K, n)
    d_bdry: np.ndarray                 # (K,) distance to computational boundary
    directions: list                   # Direction objects: axes then diagonals
    boundary_samples: np.ndarray       # (B, n) points on the true boundary
    boundary_nodes_pos: np.ndarray     # lattice nodes classified as boundary
    boundary_nodes_frac: np.ndarray    # cell-volume fraction for quadrature
    pinned_pos: np.ndarray = field(default=None)    # (P, n) clipped arm ends
    full_stencil: np.ndarray = field(default=None)  # (K,) all arms unclipped
    stepped: np.ndarray = field(default=None)       # (K,) evolved unknowns
    dep_idx: np.ndarray = field(default=None)       # interpolated nodes
    dep_opp: np.ndarray = field(default=None)       # their inward neighbors
    dep_t: np.ndarray = field(default=None)         # cut fraction of the arm
    dep_pin: np.ndarray = field(default=None)       # pinned row of that arm

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

    def cell_fractions(self) -> np.ndarray:
        """Covered-volume fraction of each interior node's lattice cell.

        Product over axes of the covered half-arm lengths (cut arms
        contribute their sub-spacing, capped at the half cell).  Exact for
        cells away from the boundary, first-order for cut cells; using
        these weights removes the leading boundary error from the area
        and dissipation quadratures.
        """
        if getattr(self, "_cell_frac", None) is None:
            frac = np.ones(self.num_interior)
            for d in self.directions:
                axes = [i for i, o in enumerate(d.offset) if o != 0]
                if len(axes) != 1:
                    continue
                frac *= np.minimum(d.plus.theta, 0.5) + np.minimum(d.minus.theta, 0.5)
            self._cell_frac = frac
        return self._cell_frac

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

    def axis_coords(self, i: int) -> np.ndarray:
        return self.los[i] + self.hs[i] * np.arange(self.dims[i])

    def lattice_positions(self) -> np.ndarray:
        grids = np.meshgrid(*[self.axis_coords(i) for i in range(self.n)],
                            indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def scaled_copy(self, scale: float, shift: np.ndarray) -> "Grid":
        """Geometric image of the grid under x -> scale * (x - shift).

        Stencil topology, arm fractions and pinned rows are untouched; only
        positions and spacings change.  Used by the parabolic dilation.
        """
        shift = np.asarray(shift, float)
        return Grid(
            spec=self.spec, hs=self.hs * scale, los=scale * (self.los - shift),
            dims=self.dims, cls=self.cls, interior_flat=self.interior_flat,
            interior_pos=scale * (self.interior_pos - shift),
            d_bdry=self.d_bdry * scale, directions=self.directions,
            boundary_samples=scale * (self.boundary_samples - shift),
            boundary_nodes_pos=scale * (self.boundary_nodes_pos - shift),
            boundary_nodes_frac=self.boundary_nodes_frac,
            pinned_pos=scale * (self.pinned_pos - shift),
            full_stencil=self.full_stencil, stepped=self.stepped,
            dep_idx=self.dep_idx, dep_opp=self.dep_opp, dep_t=self.dep_t,
            dep_pin=self.dep_pin)


def _direction_offsets(n: int) -> list:
    offs = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            plus = [0] * n
            plus[i], plus[j] = 1, 1
            minus = [0] * n
            minus[i], minus[j] = 1, -1
            offs.append(tuple(plus))
            offs.append(tuple(minus))
    return offs


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

    Nodes with some stencil arm shorter than THETA_DEP are pinned by linear
    interpolation along their shortest cut arm (boundary crossing on one
    side, the opposite lattice neighbor on the other).  The opposite
    neighbor must itself be a stepped interior node; failing that the node
    stays stepped and its short arms are clamped to THETA_FALLBACK, moving
    the arm's pinned point outward by at most THETA_FALLBACK * h.
    """
    K = grid.num_interior
    arms = []
    for d in grid.directions:
        for sign, arm in ((+1, d.plus), (-1, d.minus)):
            arms.append((d, sign, arm))

    min_t = np.ones(K)
    argmin = np.full(K, -1, dtype=np.int64)
    for a_idx, (d, sign, arm) in enumerate(arms):
        cut = arm.nbr < 0
        better = cut & (arm.theta < min_t)
        min_t[better] = arm.theta[better]
        argmin[better] = a_idx

    dependent = np.zeros(K, dtype=bool)
    dep_rows = []
    order = np.argsort(min_t, kind="stable")
    for k in order:
        if min_t[k] >= THETA_DEP:
            break
        d, sign, arm = arms[argmin[k]]
        opp = d.minus if sign > 0 else d.plus
        q = opp.nbr[k]
        if q < 0 or dependent[q] or opp.theta[k] != 1.0:
            continue     # cannot interpolate through q; handled by clamping
        dependent[k] = True
        dep_rows.append((k, q, min_t[k], arm.src[k] - K))

    # Clamp leftover short arms on nodes that stay stepped.
    for d in grid.directions:
        for sign, arm in ((+1, d.plus), (-1, d.minus)):
            short = (arm.nbr < 0) & (arm.theta < THETA_FALLBACK) & ~dependent
            if short.any():
                step = sign * np.array(d.offset) * grid.hs
                arm.theta[short] = THETA_FALLBACK
                grid.pinned_pos[arm.src[short] - K] = \
                    grid.interior_pos[short] + THETA_FALLBACK * step

    grid.stepped = ~dependent
    grid.dep_idx = np.array([r[0] for r in dep_rows], dtype=np.int64)
    grid.dep_opp = np.array([r[1] for r in dep_rows], dtype=np.int64)
    grid.dep_t = np.array([r[2] for r in dep_rows], dtype=float)
    grid.dep_pin = np.array([r[3] for r in dep_rows], dtype=np.int64)


def build_grid(spec: DomainSpec, target_h: float) -> Grid:
    """Lattice, classification and stencil arms for a domain.

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

    grid = Grid(spec=spec, hs=hs, los=los, dims=dims, cls=None,
                interior_flat=None, interior_pos=None, d_bdry=None,
                directions=None, boundary_samples=None,
                boundary_nodes_pos=None, boundary_nodes_frac=None)

    pos = grid.lattice_positions()
    sd = spec.signed_distance(pos)
    scale = max(1.0, float(np.abs(pos).max()))
    cls = np.where(sd < -CLS_TOL * scale, CLS_INTERIOR, CLS_EXTERIOR).astype(np.int8)
    cls[np.abs(sd) <= CLS_TOL * scale] = CLS_BOUNDARY
    grid.cls = cls.reshape(dims)

    flat_cls = cls
    interior_flat = np.nonzero(flat_cls == CLS_INTERIOR)[0]
    grid.interior_flat = interior_flat
    grid.interior_pos = pos[interior_flat]
    grid.d_bdry = spec.boundary_distance(grid.interior_pos)

    inv = np.full(pos.shape[0], -1, dtype=np.int64)
    inv[interior_flat] = np.arange(interior_flat.size)

    K = interior_flat.size
    strides = np.array([int(np.prod(dims[i + 1:])) for i in range(n)], dtype=np.int64)
    int_multi = np.stack(np.unravel_index(interior_flat, dims), axis=1)

    bnd_flat = np.nonzero(flat_cls == CLS_BOUNDARY)[0]
    grid.boundary_nodes_pos = pos[bnd_flat]
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        on_face = (np.abs(grid.boundary_nodes_pos - lo) < CLS_TOL * scale) | \
                  (np.abs(grid.boundary_nodes_pos - hi) < CLS_TOL * scale)
        grid.boundary_nodes_frac = 0.5 ** on_face.sum(axis=1)
    else:
        grid.boundary_nodes_frac = np.zeros(bnd_flat.size)

    sample_pts = [pos[bnd_flat]] if bnd_flat.size else []
    pinned = []          # far ends of the clipped arms, in arm order
    P = 0
    directions = []
    full = np.ones(K, dtype=bool)
    for off in _direction_offsets(n):
        off_arr = np.array(off, dtype=np.int64)
        d = Direction(offset=off)
        for sign in (+1, -1):
            nb_multi = int_multi + sign * off_arr
            in_lat = np.all((nb_multi >= 0) & (nb_multi < np.array(dims)), axis=1)
            nb_flat = np.where(in_lat, nb_multi @ strides, 0)
            nb_cls = np.where(in_lat, flat_cls[nb_flat], CLS_EXTERIOR)

            nbr = np.where(nb_cls == CLS_INTERIOR, inv[nb_flat], -1)
            theta = np.ones(K)
            cut = np.nonzero(nbr < 0)[0]
            ends = pos[nb_flat[cut]]     # boundary nodes; crossings set below

            clipped = nb_cls[cut] == CLS_EXTERIOR
            if clipped.any():
                p = grid.interior_pos[cut[clipped]]
                step = np.broadcast_to(sign * off_arr * hs, p.shape)
                t = _crossing_fraction(spec, p, step)
                cross = p + t[:, None] * step
                sample_pts.append(cross)
                theta[cut[clipped]] = t
                ends[clipped] = cross
            full &= theta == 1.0
            pinned.append(ends)
            src = nbr.copy()
            src[cut] = K + P + np.arange(cut.size)
            P += cut.size
            arm = ArmData(nbr=nbr, theta=theta, src=src)
            if sign > 0:
                d.plus = arm
            else:
                d.minus = arm
        directions.append(d)
    grid.directions = directions
    grid.pinned_pos = np.vstack(pinned)
    grid.full_stencil = full
    _mark_dependent_nodes(grid)

    if sample_pts:
        allpts = np.vstack(sample_pts)
        rounded = np.round(allpts, 9)
        _, keep = np.unique(rounded, axis=0, return_index=True)
        samples = allpts[np.sort(keep)]
        order = np.lexsort(samples.T[::-1])
        grid.boundary_samples = samples[order]
    else:
        grid.boundary_samples = np.zeros((0, n))
    return grid
