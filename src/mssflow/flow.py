"""Explicit time stepping of the graphical mean curvature flow.

The unknown is the interior trace of f: E -> R^m; the boundary trace is
pinned to the Dirichlet data for all time.  An explicit step performs the
non-parametric update

    f^A  <-  f^A + dt * g^{ij}(f) f^A_{ij}

with divided differences built on the grid's stencil arms (full central
stencils inside, clipped one-sided arms against curved boundaries).  The
inverse metric has eigenvalues at most 1, so dt = cfl * h^2 / (2n) is
stable on uniform stencils; clipped arms shorten the admissible step and
the actual dt is computed from the worst stencil weight sum.

The steady-state loop covers n explicit steps at a time with one
first-order Runge-Kutta-Legendre super-step of s stages, the fewest with
s(s+1)/2 >= c n; one recurrence takes every stage, and its first stage
is the explicit step itself.  The row-sum dt overstates the stiffness,
so c = min(1, 1.1 dt rho / 2) comes from rho, a power-iteration
estimate of the spectral radius of the metric-free operator
(stage_fraction); each stage step w then has w 1.1 rho <= 2, where RKL1
is stable, and c <= 1 never adds a stage.  Stages go in pairs:
the first stage after the given fields and every second one after it
skip the Jacobian and the metric and contract their Hessian with the
inverse metric of the stage before, so about half the stages build the
metric.  Super-steps reach the next monitor record and grow geometrically
from a single step, so monitor_every = 1 is plain explicit Euler.  The
loop records and tests every state, the initial one included, by one
sequence: record, then guard, tolerance and step budget, then step.

Alongside the update the flow tracks every quantity the continuous
theory controls: the largest singular value (length-decreasing), the
minimum of the projection factor *Omega, the minimum eigenvalue of the
strict-margin tensor, area and its dissipation integral |H|^2, the sup of
the system residual, the boundary gradient, and the sign of the boundary
log-barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Closure, Grid, axis_pairs

# largest singular value of Df a run may reach before it ends as BlowUp
LAMBDA_GUARD = 10.0


class GraphState:
    """Discrete flow state: interior values plus the pinned boundary trace.

    Both are views of one buffer, buf = [0; f; pinned] (1 + K + P, m): f
    (K, m) over the grid's interior ordering, pinned (P, m) the Dirichlet
    data at grid.pinned_pos, the ends of the cut stencil arms, which never
    changes during the flow.  The zero pad row lets _differences read the
    last axis's arm ends as shifted views.  f None leaves the values
    unset.  The state is only these values: the data map enters the flow
    through the pinned trace and the hypothesis report's figures.
    """

    def __init__(self, grid: Grid, t: float, f, pinned: np.ndarray):
        K = grid.num_interior
        self.grid, self.t = grid, t
        self.buf = np.empty((1 + K + len(pinned), pinned.shape[1]))
        self.buf[0] = 0.0
        self.f, self.pinned = self.buf[1:K + 1], self.buf[K + 1:]
        self.pinned[:] = pinned
        if f is not None:
            self.f[:] = f

    @property
    def m(self) -> int:
        return self.buf.shape[1]

    def replace_values(self, f, t: float) -> "GraphState":
        return GraphState(self.grid, t, f, self.pinned)


def make_state(grid: Grid, psi, t: float = 0.0) -> GraphState:
    """Initial state: the flow starts from the graph of the Dirichlet data."""
    f0 = psi.jets(grid.interior_pos)[0]
    # one batch: evaluating row subsets can round differently
    pinned = psi.jets(grid.pinned_pos)[0]
    return GraphState(grid=grid, t=t, f=f0, pinned=pinned)


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

def _row_put(rows: np.ndarray, m: int) -> np.ndarray:
    """Flat indices of whole rows of a C-ordered (K, m) array, for np.put
    (a flat put is several times faster than 2-D fancy assignment)."""
    return (rows[:, None] * m + np.arange(m)).ravel()


def _stencils(grid: Grid, m: int) -> tuple:
    """Static per-m row data, shared by all states on a grid.

    Every row gets the uniform arithmetic and only the R rows with a cut
    arm (grid.cut_rows) need their weights; with theta = 1 on every arm
    they are exactly (0.5, -0.5, 0) and (1, 1, -2), the uniform arithmetic
    bit for bit.  Returns (dep_put, rows, put, src, c1p, c1m, c10, c2p,
    c2m, c20): the flat indices (see _row_put) of the interpolated rows;
    the cut rows (R,), their flat indices and their arm ends src (D, 2,
    R); their first-difference weights (c1p, c1m, c10) for the n axis
    directions, each (n, R, m), and their second-difference weights (c2p,
    c2m, c20) for every direction, each (D, R, m).  The weights are tiled
    so the kernel runs same-shape contiguous ufuncs (broadcasting along
    the last axis is slow on this scale).  Built once per m and kept on
    the grid.
    """
    if m not in grid.stencils:
        rows = grid.cut_rows
        theta = grid.arm_theta[:, :, rows]
        tp, tm = theta[:, 0], theta[:, 1]
        denom = tp * tm * (tp + tm)

        def tile(col):
            return np.ascontiguousarray(np.repeat(col[..., None], m, axis=-1))

        ap, am, ad = tp[:grid.n], tm[:grid.n], denom[:grid.n]   # axes
        grid.stencils[m] = (
            _row_put(grid.dep_idx, m), rows, _row_put(rows, m),
            np.ascontiguousarray(grid.arm_src[:, :, rows]),
            tile(am * am / ad),
            tile(-ap * ap / ad),
            tile((ap * ap - am * am) / ad),
            tile(2.0 * tm / denom),
            tile(2.0 * tp / denom),
            tile(-2.0 * (tp + tm) / denom))
    return grid.stencils[m]


def _differences(state: GraphState, jacobian: bool = True,
                 mixed: bool = True) -> tuple[list | None, dict]:
    """One divided-difference pass over the stencil directions.

    Returns the Jacobian as n columns J[i] = df/dx_i and the Hessian as
    columns H[i, j] = d2f/dx_i dx_j for i <= j, each of shape (K, m);
    with jacobian false J is None and no first difference is formed, and
    with mixed false only the pairs (i, i) are.  Every arm end is a row of
    [f; pinned] = state.buf[1:]; the last axis, of flat-index step 1,
    reads them as the shifted views buf[2:K + 2] and buf[:K].  All rows
    take the uniform differences (u+ - u-) / (2h) and (u+ + u-) - 2u; the
    cut rows, whose weighted differences are formed for every direction
    read at once, then overwrite theirs (the pad row feeds only
    overwritten arithmetic).
    """
    grid = state.grid
    hs, n, K = grid.hs, grid.n, grid.num_interior
    buf = state.buf
    FP = buf[1:]
    F = state.f
    _, rows, put, src, c1p, c1m, c10, c2p, c2m, c20 = _stencils(grid, state.m)
    D = src.shape[0] if mixed else n
    F2 = 2.0 * F
    FR = F.take(rows, axis=0)
    ends = FP.take(src[:D], axis=0)                  # (D, 2, R, m)
    d2_clip = c2p[:D] * ends[:, 0] + c2m[:D] * ends[:, 1] + c20[:D] * FR
    if jacobian:
        jac_clip = (c1p * ends[:n, 0] + c1m * ends[:n, 1] + c10 * FR) \
            / hs[:, None, None]

    def arms(d):
        """Both arm ends of direction d on every row."""
        if d == n - 1:
            return buf[2:K + 2], buf[:K]
        return (FP.take(grid.arm_src[d, 0], axis=0),
                FP.take(grid.arm_src[d, 1], axis=0))

    def second(d, up, um):
        """Second difference of direction d, in the buffer of a gathered up."""
        d2 = np.add(up, um, out=None if d == n - 1 else up)
        d2 -= F2
        np.put(d2, put, d2_clip[d])
        return d2

    # in-place updates: fewer temporaries and passes over memory
    J = [None] * n if jacobian else None
    H = {}
    for i in range(n):
        up, um = arms(i)
        if jacobian:
            J[i] = np.subtract(up, um)
            J[i] /= 2.0 * hs[i]
            np.put(J[i], put, jac_clip[i])
        H[i, i] = second(i, up, um)
        H[i, i] /= hs[i] * hs[i]
    if mixed:
        for p, (i, j) in enumerate(axis_pairs(n)):
            H[i, j] = second(n + 2 * p, *arms(n + 2 * p))
            H[i, j] -= second(n + 2 * p + 1, *arms(n + 2 * p + 1))
            H[i, j] /= 4.0 * hs[i] * hs[j]
    return J, H


def _symmetric(tri: dict, n: int) -> np.ndarray:
    """(..., n, n) stack from its upper triangle {(i, j): (...)}, i <= j."""
    out = np.empty(next(iter(tri.values())).shape + (n, n))
    for (i, j), v in tri.items():
        out[..., i, j] = v
        out[..., j, i] = v
    return out


def _accumulate(terms) -> np.ndarray:
    """Left-to-right sum of fresh arrays; the fixed order keeps runs bitwise."""
    terms = iter(terms)
    out = next(terms)
    for t in terms:
        out += t
    return out


def _coldot_sum(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return _accumulate(u[:, A] * v[:, A] for A in range(u.shape[1]))


def _metric(cols: list) -> dict:
    """Upper triangle of g = I + J^T J from the n Jacobian columns (K, m)."""
    n = len(cols)
    return {(i, j): 1.0 + _coldot_sum(cols[i], cols[i]) if i == j
            else _coldot_sum(cols[i], cols[j])
            for i in range(n) for j in range(i, n)}


def _metric_inverse(g: dict, n: int) -> tuple[dict, np.ndarray]:
    """Upper triangle of g^-1 and det g.

    Closed forms for n <= 2; LAPACK for larger n.
    """
    if n == 1:
        a = g[0, 0]
        return {(0, 0): 1.0 / a}, a
    if n == 2:
        a, b, c = g[0, 0], g[0, 1], g[1, 1]
        det = a * c - b * b
        return {(0, 0): c / det, (0, 1): -b / det, (1, 1): a / det}, det
    full = _symmetric(g, n)
    inv = np.linalg.inv(full)
    return {(i, j): inv[:, i, j] for i, j in g}, np.linalg.det(full)


def _top_eigenvalue(g: dict, n: int) -> np.ndarray:
    """Largest eigenvalue of g: closed forms for n <= 2, LAPACK beyond."""
    if n == 1:
        return g[0, 0]
    if n == 2:
        a, b, c = g[0, 0], g[0, 1], g[1, 1]
        return 0.5 * ((a + c) + np.sqrt((a - c) ** 2 + 4.0 * b * b))
    return np.linalg.eigvalsh(_symmetric(g, n))[:, -1]


def _pair_weights(gi: dict) -> dict:
    """Weights of a symmetric contraction over i <= j: g^ii and 2 g^ij."""
    return {(i, j): v if i == j else 2.0 * v for (i, j), v in gi.items()}


@dataclass
class FieldBundle:
    """Per-node flow fields shared by the update and the monitors.

    jac holds the n Jacobian columns (K, m); g and gi the upper triangles
    of the metric and its inverse, (i, j) -> (K,) for i <= j, in
    lexicographic order, and weights the pair weights of gi by which the
    residual contracts the Hessian.  lam_max_sq is computed from g on first
    read, so the super-step stages, which read only the residual, never
    pay for it; so are sqrt_detg, which the area, the dissipation and the
    *Omega record read, and residual_sq, which residual_sup and the
    dissipation read.  A bundle built from another state's weights holds
    only weights and residual; jac, g, gi and detg are None.
    residual_sup only counts stepped unknowns: interpolated near-boundary
    nodes do not satisfy the discrete system, they satisfy their
    interpolation rule.
    """

    jac: list | None
    g: dict | None
    gi: dict | None
    detg: np.ndarray | None
    weights: dict
    residual: np.ndarray      # (K, m) system residual g^{ij} f_ij
    stepped: np.ndarray

    @cached_property
    def lam_max_sq(self) -> np.ndarray:
        """(K,) largest eigenvalue of J^T J: that of g minus 1."""
        return np.maximum(_top_eigenvalue(self.g, len(self.jac)) - 1.0, 0.0)

    @cached_property
    def sqrt_detg(self) -> np.ndarray:
        """(K,) area element sqrt(det g)."""
        return np.sqrt(self.detg)

    @cached_property
    def residual_sq(self) -> np.ndarray:
        """(K,) squared norm of the residual per node."""
        return _coldot_sum(self.residual, self.residual)

    @property
    def J(self) -> np.ndarray:
        """Jacobian stack (K, m, n)."""
        return np.stack(self.jac, axis=-1)

    @property
    def ginv(self) -> np.ndarray:
        """Inverse metric stack (K, n, n)."""
        return _symmetric(self.gi, len(self.jac))

    @cached_property
    def residual_sup(self) -> float:
        if self.residual.size == 0:
            return 0.0
        r = self.residual_sq[self.stepped]
        return float(np.sqrt(r.max())) if r.size else 0.0

    @property
    def max_lambda(self) -> float:
        return float(np.sqrt(max(self.lam_max_sq.max(), 0.0))) \
            if self.lam_max_sq.size else 0.0


def compute_fields(state: GraphState, weights: dict | None = None
                   ) -> FieldBundle:
    """Metric, inverse metric and system residual; the bundle computes the
    top singular value when it is first read.

    Given weights, the pair weights of another bundle, only the residual
    is formed: this state's Hessian columns contracted with those weights,
    the same arithmetic, so a state's own weights give its residual bit
    for bit.  The Jacobian columns and the metric are skipped.
    """
    J, H = _differences(state, jacobian=weights is None)
    g = gi = detg = None
    if weights is None:
        g = _metric(J)
        gi, detg = _metric_inverse(g, state.grid.n)
        weights = _pair_weights(gi)
    residual = np.empty_like(state.f)
    for A in range(state.m):
        residual[:, A] = _accumulate(w * H[p][:, A] for p, w in weights.items())
    return FieldBundle(jac=J, g=g, gi=gi, detg=detg, weights=weights,
                       residual=residual, stepped=state.grid.stepped)


def boundary_cell_weights(grid: Closure, detg: np.ndarray) -> tuple:
    """Flat-face rows of the boundary sample and their quadrature weights.

    detg is det g of the data's graph at grid.boundary_samples.  The rows
    are the samples with a cell fraction (grid.boundary_frac: 1/2 per box
    face, 1/4 on edges, ...; none on spheres), which makes box quadratures
    exact; their weights are frac * cellvol * sqrt(det g), the area
    element from the data's Jacobian, the only derivative information
    available on the boundary itself.  Returns (rows, weights), possibly
    empty.
    """
    rows = np.flatnonzero(grid.boundary_frac)
    return rows, grid.boundary_frac[rows] * grid.cellvol * np.sqrt(detg[rows])


def dissipation_rate(state: GraphState, bundle: FieldBundle) -> float:
    """Instantaneous dissipation integral sum |H|^2 sqrt(det g) cellvol."""
    R = bundle.residual
    grid = state.grid
    JtR = [_coldot_sum(col, R) for col in bundle.jac]
    quad = _accumulate(w * JtR[i] * JtR[j]
                       for (i, j), w in bundle.weights.items())
    hsq = bundle.residual_sq - quad
    # Second derivatives at interpolated nodes are unreliable by
    # construction; borrow the inward neighbor's dissipation density.
    hsq[grid.dep_idx] = hsq[grid.dep_opp]
    return float((hsq * bundle.sqrt_detg * grid.cell_frac).sum()
                 * grid.cellvol)


def stable_dt(grid: Grid, cfl: float) -> float:
    """Largest explicit step: cfl over the worst second-difference weight sum.

    Reduces to cfl * h^2 / (2n) on uniform stencils (the inverse metric
    eigenvalues never exceed 1); clipped arms tighten it.
    """
    if not 0.0 < cfl < 1.0:
        raise ValueError(f"cfl must lie in (0, 1), got {cfl}")
    theta = grid.arm_theta
    total = np.zeros(grid.num_interior)
    for i in range(grid.n):
        total += 2.0 / (theta[i, 0] * theta[i, 1] * grid.hs[i] ** 2)
    if grid.stepped.any():
        total = total[grid.stepped]
    return cfl / float(total.max())


# power-iteration sweeps of the spectral-radius estimate, and the margin
# that lifts the estimate, a lower bound, above the spectral radius
RHO_SWEEPS = 20
RHO_MARGIN = 1.1


def _top_mode(grid: Grid) -> tuple[float, np.ndarray]:
    """Power-iteration estimate of the flow operator's spectral radius.

    The operator is the residual at g = I, the sum of the pure second
    differences (only these are formed), with zero pinned data, acting on
    the stepped unknowns; interpolated nodes follow their rule.  Starting
    from the lattice checkerboard, its highest mode, RHO_SWEEPS sweeps
    each take the ratio of the stepped rows' norms.  Returns (estimate,
    unit top vector (K, 1)).
    """
    checkerboard = 1.0 - 2.0 * (grid.lattice_coords().sum(axis=1) % 2)
    x = GraphState(grid, 0.0, checkerboard[:, None],
                   np.zeros((grid.pinned_pos.shape[0], 1)))

    def norm(v):
        # numpy's pairwise sum, not np.linalg.norm: BLAS ddot splits long
        # vectors across its threads, and the bits follow the thread count
        return float(np.sqrt(np.square(v[grid.stepped]).sum()))

    # every sweep writes the next iterate into x's buffer
    _interpolate_dependent(x.f, x)
    np.divide(x.f, norm(x.f), out=x.f)
    for _ in range(RHO_SWEEPS):
        H = _differences(x, jacobian=False, mixed=False)[1]
        y = _accumulate(H[i, i] for i in range(grid.n))
        _interpolate_dependent(y, x)
        rho = norm(y)
        np.divide(y, rho, out=x.f)
    return rho, x.f


def stage_fraction(grid: Grid, dt: float) -> float:
    """c = min(1, RHO_MARGIN dt rho / 2), the share of s(s+1)/2 explicit
    steps of dt that an RKL1 super-step of s stages may cover.

    rho is _top_mode's estimate, kept on the grid.  Raises ValueError
    when dt rho >= 2: explicit Euler itself is then unstable.
    """
    if grid.rho_estimate is None:
        grid.rho_estimate = _top_mode(grid)[0]
    dt_rho = dt * grid.rho_estimate
    if dt_rho >= 2.0:
        raise ValueError(f"dt = {dt} is unstable: dt times the operator's "
                         f"spectral radius is {dt_rho} >= 2")
    return min(1.0, RHO_MARGIN * dt_rho / 2.0)


def stage_count(n: int, frac: float) -> int:
    """Fewest RKL1 stages s with s(s+1)/2 >= frac n."""
    s = 1
    while s * (s + 1) / 2 < frac * n:
        s += 1
    return s


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

@dataclass
class MonitorRecord:
    t: float
    max_lambda: float
    min_star_omega: float
    min_p_eig: float
    area: float
    dissipation: float
    residual_sup: float
    boundary_grad_sup: float
    barrier_min: float
    step_dt: float
    comp_min: np.ndarray = field(repr=False)
    comp_max: np.ndarray = field(repr=False)
    dissipation_integral: float

    CSV_COLUMNS = ("t", "max_lambda", "min_star_omega", "min_p_eig", "area",
                   "dissipation", "residual_sup", "boundary_grad_sup",
                   "barrier_min", "dt")

    def csv_row(self) -> tuple:
        return (self.t, self.max_lambda, self.min_star_omega, self.min_p_eig,
                self.area, self.dissipation, self.residual_sup,
                self.boundary_grad_sup, self.barrier_min, self.step_dt)


class FlowMonitors:
    """Run-scoped aggregation context for per-step monitor records.

    Owns every value the records and the invariant suite are measured
    against, frozen at construction from the given state and the
    hypothesis report rep (kept as report).  The report's figures come
    from the checker's one sample of the data on the grid's closure at h,
    so rep must come from a check on the state's grid and data.  The
    values: the margin eps (None when the hypothesis left no margin), the
    boundary-gradient ceiling report.boundary_bound, the grid spacing h,
    the per-component range psi_lo / psi_hi of the closure sample and the
    state's pinned arm ends, the *Omega floor, the static area of the
    flat-face boundary cells (report.boundary_area, which every record's
    area adds), and the barrier's band width delta, weights nu,
    oscillation omega and band values band_psi of the state.  Every
    program caller builds them from the initial state, so band_psi is the
    data.  Construction samples nothing, and records are pure functions
    of the state.
    """

    def __init__(self, state: GraphState, rep):
        grid = state.grid
        self.report = rep
        self.eps = rep.eps if rep.eps > 0 else None
        self.delta = delta = rep.delta
        self.h = grid.h
        self.psi_lo = np.vstack([rep.psi_lo, state.pinned]).min(axis=0)
        self.psi_hi = np.vstack([rep.psi_hi, state.pinned]).max(axis=0)
        self.band_idx = np.nonzero(grid.band_mask(delta))[0]
        band_d = grid.d_bdry[self.band_idx]
        self.band_psi = state.f[self.band_idx]
        self.nu, self.omega = rep.nu, rep.psi_hi - rep.psi_lo
        # static barrier part nu log(1 + k d) + (omega / delta) d, k = 1/delta
        k = 1.0 / delta
        self.band_base = self.nu[None, :] * np.log1p(k * band_d)[:, None] \
            + (self.omega[None, :] / delta) * band_d[:, None]

    def star_omega_floor(self) -> float:
        """min over the sampled closure of *Omega of the initial graph."""
        return self.report.star_omega_floor

    def barrier_fields(self, state: GraphState) -> tuple[np.ndarray, np.ndarray]:
        """Log-barrier fields (S, S_mirror) over the band, (B, m) each.

        S        = nu log(1 + k d) + (psi^A - f^A) + (omega^A / delta) d
        S_mirror = nu log(1 + k d) + (f^A - psi^A) + (omega^A / delta) d
        with k = 1/delta; both stay non-negative on the band while the
        boundary gradient estimate is in force.
        """
        diff = self.band_psi - state.f[self.band_idx]
        return self.band_base + diff, self.band_base - diff

    def record(self, state: GraphState, bundle: FieldBundle, dt: float,
               dissipation: float, diss_integral: float) -> MonitorRecord:
        """Monitor record of state; dissipation is dissipation_rate(state, bundle)."""
        grid = state.grid
        lam_sq = bundle.lam_max_sq
        sqrt_detg = bundle.sqrt_detg
        area = float((sqrt_detg * grid.cell_frac).sum()
                     * grid.cellvol) + self.report.boundary_area

        # Both minima are read at a maximum: correctly rounded operations
        # are monotone, so 1 / sqrt(det g) is least where det g is largest
        # and (1 - x) - eps' (1 + x) where lambda^2 = x is, bit for bit.
        if self.eps is not None and 0.0 < self.eps <= 1.0:
            r = (1.0 - self.eps) ** 2
            eps_prime = (1.0 - r) / (1.0 + r)
            x = lam_sq.max() if lam_sq.size else np.nan
            p_min = float((1.0 - x) - eps_prime * (1.0 + x))
        else:
            p_min = np.nan

        bgrad = float(np.sqrt(lam_sq[grid.cut_rows].max())) \
            if grid.cut_rows.size else 0.0

        barrier_min = np.nan        # an empty band has no barrier
        if self.band_idx.size:
            S, S_mirror = self.barrier_fields(state)
            barrier_min = float(np.minimum(S, S_mirror).min())

        return MonitorRecord(
            t=state.t,
            max_lambda=bundle.max_lambda,
            min_star_omega=float(1.0 / sqrt_detg.max()) if sqrt_detg.size
            else 1.0,
            min_p_eig=p_min,
            area=area,
            dissipation=dissipation,
            residual_sup=bundle.residual_sup,
            boundary_grad_sup=bgrad,
            barrier_min=barrier_min,
            step_dt=dt,
            # per column: a (K, m) axis-0 reduction is several times slower
            comp_min=np.array([col.min() for col in state.f.T])
            if state.f.size else np.zeros(state.m),
            comp_max=np.array([col.max() for col in state.f.T])
            if state.f.size else np.zeros(state.m),
            dissipation_integral=diss_integral)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _interpolate_dependent(f: np.ndarray, state: GraphState) -> None:
    """Set the interpolated nodes of f in place by their rule
    u_q + (u_b - u_q) / (1 + t), which is affine-exact and bit-exact on
    constants."""
    grid = state.grid
    uq = f.take(grid.dep_opp, axis=0)
    ub = state.pinned.take(grid.dep_pin, axis=0)
    np.put(f, _stencils(grid, f.shape[1])[0],
           uq + (ub - uq) / (1.0 + grid.dep_t[:, None]))


def super_step(state: GraphState, bundle: FieldBundle, dt: float, n: int,
               t: float, frac: float) -> GraphState:
    """The state at time t after one RKL1 super-step as long as n steps of dt.

    First-order Runge-Kutta-Legendre (Meyer, Balsara & Aslam, J. Comput.
    Phys. 257, 2014) with s stages of step w is stable while w rho <= 2,
    rho the operator's spectral radius.  The stages are the fewest with
    s(s+1)/2 >= frac n (stage_count), at stage step w = 2 n dt / (s(s+1))
    <= dt / frac:

        Y_{-1} = Y_0 = f,
        Y_j = mu_j Y_{j-1} + (1 - mu_j) Y_{j-2} + mu_j w L(Y_{j-1}),
        mu_j = (2j - 1) / j,   j = 1, ..., s,

    with L the system residual and the interpolation rule applied after
    every stage.  mu_1 = 1, so the first stage is Y_0 + w L(Y_0) bit for
    bit (0 f adds a zero), and with n = 1 this is one explicit Euler step.
    Each stage is written in place into its own state's buffer.
    frac = 1 is stable wherever dt is; stage_fraction(grid, dt) is the
    smallest frac that keeps w RHO_MARGIN rho <= 2 at every n, with rho
    its estimate.  A mode with L Y = lambda Y is multiplied by the
    Legendre polynomial P_s(1 + w lambda), which stays in [-1, 1] while
    w |lambda| <= 2; it tracks the exact exp(n dt lambda) only while
    |lambda| n dt is at most about 1.  bundle is compute_fields(state),
    which stage 1 reads; the later stages call compute_fields s - 1
    times, in pairs: stages 2, 4, ... contract the Hessian of Y_{j-1} with
    the inverse metric of the stage before (Y_{j-2}, bundle's for stage 2),
    and stages 3, 5, ... build the metric of Y_{j-1}.  The lag is within
    the first-order accuracy of the super-step.
    """
    s = stage_count(n, frac)
    w = 2.0 * n * dt / (s * (s + 1))
    prev = cur = state
    for j in range(1, s + 1):
        if j > 1:
            bundle = compute_fields(cur, bundle.weights if j % 2 == 0 else None)
        mu = (2 * j - 1) / j
        new = state.replace_values(None, t)
        f = np.multiply(cur.f, mu, out=new.f)
        f += (1.0 - mu) * prev.f
        f += (mu * w) * bundle.residual
        _interpolate_dependent(f, state)
        prev, cur = cur, new
    return cur


def run_to_steady(state0: GraphState, tol_residual: float, max_steps: int,
                  monitor_every: int, monitors: FlowMonitors,
                  cfl: float = 0.9) -> tuple[GraphState, list, str]:
    """Iterate the flow until the system residual drops below tolerance.

    Returns (final state, monitor records, outcome) with outcome one of
    'Converged', 'MaxSteps', 'BlowUp'.  Time advances in explicit steps
    of dt = stable_dt(grid, cfl), at most max_steps of them, grouped into
    super-steps sized by stage_fraction(grid, dt), computed once: each
    one ends at the next multiple of monitor_every steps, at the budget,
    or after as many steps as have already been taken, whichever comes
    first.  Super-steps thus grow geometrically from one explicit step,
    and monitor_every = 1 is plain explicit Euler.
    Every evaluated state, state0 and each super-step's result after k
    explicit steps, goes through one sequence:
      1. monitors, built from state0, record it if its residual is below
         tol_residual, if k is a multiple of monitor_every (k = 0
         included) or if k = max_steps;
      2. the run ends BlowUp if max_lambda > LAMBDA_GUARD, else Converged
         if the residual is below tol_residual, else MaxSteps if
         k = max_steps;
      3. otherwise the next super-step is taken, and a result with a
         non-finite value ends the run BlowUp at the state before it.
    """
    if tol_residual <= 0:
        raise ValueError(f"tol_residual must be positive, got {tol_residual}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if monitor_every < 1:
        raise ValueError(f"monitor_every must be >= 1, got {monitor_every}")
    dt = stable_dt(state0.grid, cfl)
    frac = stage_fraction(state0.grid, dt)
    state = state0
    bundle = compute_fields(state)
    diss = dissipation_rate(state, bundle)
    diss_integral = 0.0
    records = []
    k = 0
    while True:
        done = bundle.residual_sup < tol_residual
        if done or k % monitor_every == 0 or k == max_steps:
            records.append(monitors.record(state, bundle, dt, diss, diss_integral))
        if bundle.max_lambda > LAMBDA_GUARD:
            return state, records, "BlowUp"
        if done:
            return state, records, "Converged"
        if k == max_steps:
            return state, records, "MaxSteps"
        n = min(monitor_every - k % monitor_every, max(1, k), max_steps - k)
        new = super_step(state, bundle, dt, n, state0.t + (k + n) * dt, frac)
        if not np.isfinite(new.f).all():
            return state, records, "BlowUp"
        k += n
        state = new
        bundle = compute_fields(state)
        diss_prev, diss = diss, dissipation_rate(state, bundle)
        diss_integral += 0.5 * (n * dt) * (diss_prev + diss)


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

@dataclass
class ClauseResult:
    name: str
    passed: bool
    worst: float
    detail: str


@dataclass
class InvariantReport:
    clauses: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


# Area/dissipation consistency constant.  Dirichlet data whose trace is
# not caloric at t = 0 (any trigonometric family) starts a parabolic
# boundary layer, and the first recording windows then carry an
# h-independent flux mismatch of order (data amplitude)^2.  C is frozen
# from the verification runs (ball/annulus/exterior, worst observed ratio
# 0.09 against h^2 + dt) with a factor-five margin at desk resolutions.
CONSISTENCY_C = 0.5


def check_invariants(records: list, monitors: FlowMonitors) -> InvariantReport:
    """Evaluate the six monitored invariants over a monitor series.

    Every limit comes from the monitors that took the records, with
    tol_grid = 5 h (first-order boundary stencils dominate):

    (i)   max singular value stays below 1 - eps + tol_grid;
    (ii)  the interior minimum of *Omega never drops below the initial
          closure minimum (monitors.star_omega_floor()) by more than
          tol_grid;
    (iii) the strict-margin tensor minimum stays above -tol_grid;
    (iv)  every component stays inside the data range [psi_lo, psi_hi]
          (1e-10);
    (v)   discrete area decay matches the dissipation integral within
          CONSISTENCY_C (h^2 + dt), dt the last record's step;
    (vi)  the boundary gradient stays below the ceiling boundary_bound of
          the monitors' hypothesis report plus tol_grid.
    """
    if not records:
        raise ValueError("empty monitor series")
    h = monitors.h
    tol_grid = 5.0 * h
    tol_consistency = CONSISTENCY_C * (h * h + records[-1].step_dt)
    clauses = []

    worst_t, worst = max(((r.t, r.max_lambda) for r in records),
                         key=lambda p: p[1])
    lim = 1.0 - monitors.eps + tol_grid
    clauses.append(ClauseResult(
        "max_lambda_le_1_minus_eps", worst <= lim, worst,
        f"max lambda {worst:.6g} vs limit {lim:.6g} at t={worst_t:.6g}"))

    worst_t, worst = min(((r.t, r.min_star_omega) for r in records),
                         key=lambda p: p[1])
    lim = monitors.star_omega_floor() - tol_grid
    clauses.append(ClauseResult(
        "star_omega_floor", worst >= lim, worst,
        f"min *Omega {worst:.6g} vs floor {lim:.6g} at t={worst_t:.6g}"))

    finite_p = [(r.t, r.min_p_eig) for r in records if np.isfinite(r.min_p_eig)]
    if finite_p:
        worst_t, worst = min(finite_p, key=lambda p: p[1])
        clauses.append(ClauseResult(
            "p_tensor_nonnegative", worst > -tol_grid, worst,
            f"min P eigenvalue {worst:.6g} vs -{tol_grid:.6g} at t={worst_t:.6g}"))
    else:
        clauses.append(ClauseResult("p_tensor_nonnegative", False, np.nan,
                                    "no finite strict-margin data recorded"))

    viol = 0.0
    for r in records:
        viol = max(viol, float((monitors.psi_lo - r.comp_min).max()),
                   float((r.comp_max - monitors.psi_hi).max()))
    clauses.append(ClauseResult(
        "max_principle", viol <= 1e-10, viol,
        f"worst component-range excursion {viol:.3g} vs 1e-10"))

    worst = 0.0
    detail = "fewer than two records"
    ok = True
    for r0, r1 in zip(records, records[1:]):
        if r1.t <= r0.t:
            continue
        rate = (r1.area - r0.area) / (r1.t - r0.t)
        mean_diss = (r1.dissipation_integral - r0.dissipation_integral) \
            / (r1.t - r0.t)
        err = abs(rate + mean_diss)
        if err > worst:
            worst = err
            detail = (f"|dA/dt + dissipation| = {err:.3g} vs "
                      f"{tol_consistency:.3g} over t in "
                      f"[{r0.t:.6g}, {r1.t:.6g}]")
        ok = ok and err <= tol_consistency
    clauses.append(ClauseResult("area_dissipation_consistency", ok, worst, detail))

    worst_t, worst = max(((r.t, r.boundary_grad_sup) for r in records),
                         key=lambda p: p[1])
    lim = monitors.report.boundary_bound + tol_grid
    clauses.append(ClauseResult(
        "boundary_gradient_bound", worst <= lim, worst,
        f"boundary gradient {worst:.6g} vs ceiling {lim:.6g} at t={worst_t:.6g}"))

    return InvariantReport(clauses=clauses)
