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
first-order Runge-Kutta-Legendre super-step of s ~ sqrt(2n) stages, each
at most dt long; one stage is the explicit step itself.  Super-steps
reach the next monitor record and grow geometrically from a single step,
so monitor_every = 1 is plain explicit Euler.

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

# _sup_hessian_norm keeps its private name: perfbench/make_reference.py
# patches it by that name
from .boundary import _sup_hessian_norm, barrier_nu
from .domains import estimate_c0_eta0
from .grid import Grid, axis_pairs

DEFAULT_LAMBDA_GUARD = 10.0


@dataclass
class GraphState:
    """Discrete flow state: interior values plus the pinned boundary trace.

    f is (K, m) over the grid's interior ordering.  pinned (P, m) holds
    the Dirichlet data at grid.pinned_pos, the ends of the clipped stencil
    arms; it never changes during the flow.  The data's range, which the
    maximum principle compares against, is frozen by FlowMonitors.
    """

    grid: Grid
    t: float
    f: np.ndarray
    pinned: np.ndarray
    psi: object                       # the boundary map family

    @property
    def m(self) -> int:
        return self.f.shape[1]

    def replace_values(self, f: np.ndarray, t: float) -> "GraphState":
        return GraphState(grid=self.grid, t=t, f=f, pinned=self.pinned,
                          psi=self.psi)


def make_state(grid: Grid, psi, t: float = 0.0) -> GraphState:
    """Initial state: the flow starts from the graph of the Dirichlet data."""
    f0 = psi.values(grid.interior_pos)
    # one batch: evaluating row subsets can round differently
    pinned = psi.values(grid.pinned_pos)
    return GraphState(grid=grid, t=t, f=f0, pinned=pinned, psi=psi)


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

def _row_put(rows: np.ndarray, m: int) -> np.ndarray:
    """Flat indices of whole rows of a C-ordered (K, m) array, for np.put
    (a flat put is several times faster than 2-D fancy assignment)."""
    return (rows[:, None] * m + np.arange(m)).ravel()


def _stencils(grid: Grid, m: int) -> tuple:
    """Static per-m row data, shared by all states on a grid.

    On a row whose arms all have theta = 1 (grid.full_stencil) the clipped
    three-point weights are exactly (0.5, -0.5, 0) and (1, 1, -2), so every
    row gets the uniform arithmetic and only the R rows with a clipped arm
    need their weights.  Returns (dep_put, rows, put, src, c1p, c1m, c10,
    c2p, c2m, c20): the flat indices (see _row_put) of the interpolated
    rows; the clipped rows (R,), their flat indices and their arm ends
    src (D, 2, R); their first-difference weights (c1p, c1m, c10) for the
    n axis directions, each (n, R, m), and their second-difference weights
    (c2p, c2m, c20) for every direction, each (D, R, m).  The weights are
    tiled so the kernel runs same-shape contiguous ufuncs (broadcasting
    along the last axis is slow on this scale).  Built once per m and kept
    on the grid.
    """
    if m not in grid.stencils:
        rows = np.nonzero(~grid.full_stencil)[0]
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


def _differences(state: GraphState) -> tuple[list, dict]:
    """One divided-difference pass over every stencil direction.

    Returns the Jacobian as n columns J[i] = df/dx_i and the Hessian as
    columns H[i, j] = d2f/dx_i dx_j for i <= j, each of shape (K, m).
    Every arm end is a row of the stacked array [f; pinned].  All rows
    take the uniform differences (0.5 (u+ - u-)) / h and (u+ + u-) - 2u;
    the clipped rows, whose weighted differences are formed for every
    direction at once, then overwrite theirs.  On a full-stencil row the
    two agree bit for bit: the weights only drop multiplications by 1 and
    additions of 0 u.
    """
    grid = state.grid
    hs, n = grid.hs, grid.n
    F = state.f
    FP = np.concatenate([F, state.pinned])
    _, rows, put, src, c1p, c1m, c10, c2p, c2m, c20 = _stencils(grid, state.m)
    F2 = 2.0 * F
    FR = F.take(rows, axis=0)
    ends = FP.take(src, axis=0)                      # (D, 2, R, m)
    d2_clip = c2p * ends[:, 0] + c2m * ends[:, 1] + c20 * FR
    jac_clip = (c1p * ends[:n, 0] + c1m * ends[:n, 1] + c10 * FR) \
        / hs[:, None, None]

    def arms(d):
        """Both arm ends of direction d on every row."""
        return (FP.take(grid.arm_src[d, 0], axis=0),
                FP.take(grid.arm_src[d, 1], axis=0))

    def second(d, up, um):
        """Second difference of direction d, formed in the buffer of up."""
        d2 = np.add(up, um, out=up)
        d2 -= F2
        np.put(d2, put, d2_clip[d])
        return d2

    # in-place updates: fewer temporaries and passes over memory
    J = [None] * n
    H = {}
    for i in range(n):
        up, um = arms(i)
        J[i] = up - um
        J[i] *= 0.5
        J[i] /= hs[i]
        np.put(J[i], put, jac_clip[i])
        H[i, i] = second(i, up, um)
        H[i, i] /= hs[i] * hs[i]
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
    lexicographic order.  lam_max_sq is computed from g on first read, so
    the super-step stages, which read only the residual, never pay for it.
    residual_sup only counts stepped unknowns: interpolated near-boundary
    nodes do not satisfy the discrete system, they satisfy their
    interpolation rule.
    """

    jac: list
    g: dict
    gi: dict
    detg: np.ndarray
    residual: np.ndarray      # (K, m) system residual g^{ij} f_ij
    stepped: np.ndarray

    @cached_property
    def lam_max_sq(self) -> np.ndarray:
        """(K,) largest eigenvalue of J^T J: that of g minus 1."""
        return np.maximum(_top_eigenvalue(self.g, len(self.jac)) - 1.0, 0.0)

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
        r = _coldot_sum(self.residual, self.residual)[self.stepped]
        return float(np.sqrt(r.max())) if r.size else 0.0

    @property
    def max_lambda(self) -> float:
        return float(np.sqrt(max(self.lam_max_sq.max(), 0.0))) \
            if self.lam_max_sq.size else 0.0


def compute_fields(state: GraphState) -> FieldBundle:
    """Metric, inverse metric and system residual; the bundle computes the
    top singular value when it is first read."""
    J, H = _differences(state)
    g = _metric(J)
    gi, detg = _metric_inverse(g, state.grid.n)
    weights = _pair_weights(gi)
    residual = np.empty_like(state.f)
    for A in range(state.m):
        residual[:, A] = _accumulate(w * H[p][:, A] for p, w in weights.items())
    return FieldBundle(jac=J, g=g, gi=gi, detg=detg, residual=residual,
                       stepped=state.grid.stepped)


def pinned_boundary_cells(state: GraphState):
    """Graph points and quadrature weights of flat-face boundary nodes.

    Lattice nodes on flat boundary faces carry the cell fraction that
    makes box quadratures exact (1/2 per face, 1/4 on edges, ...).  Their
    area element comes from the pinned data's Jacobian, which is the only
    derivative information available on the boundary itself; it is static
    for the whole run.  Returns (points in R^(n+m), weights), possibly
    empty.
    """
    grid = state.grid
    n = grid.n
    sel = grid.boundary_nodes_frac > 0
    if not sel.any():
        return np.zeros((0, n + state.m)), np.zeros(0)
    bp = grid.boundary_nodes_pos[sel]
    vals, jac, _ = state.psi.jets(bp)
    z = np.concatenate([bp, vals], axis=1)
    _, detb = _metric_inverse(_metric([jac[:, :, i] for i in range(n)]), n)
    w = grid.boundary_nodes_frac[sel] * grid.cellvol * np.sqrt(detb)
    return z, w


def dissipation_rate(state: GraphState, bundle: FieldBundle) -> float:
    """Instantaneous dissipation integral sum |H|^2 sqrt(det g) cellvol."""
    R = bundle.residual
    grid = state.grid
    JtR = [_coldot_sum(col, R) for col in bundle.jac]
    quad = _accumulate(w * JtR[i] * JtR[j]
                       for (i, j), w in _pair_weights(bundle.gi).items())
    hsq = _coldot_sum(R, R) - quad
    # Second derivatives at interpolated nodes are unreliable by
    # construction; borrow the inward neighbor's dissipation density.
    hsq[grid.dep_idx] = hsq[grid.dep_opp]
    return float((hsq * np.sqrt(bundle.detg) * grid.cell_frac).sum()
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
    against but the boundary-gradient ceiling (the hypothesis report's
    boundary_bound), frozen at construction from the given state and one
    sample of the data (psi) on the grid's closure: the margin eps (None
    when the hypothesis left no margin), the grid spacing h, the
    per-component range psi_lo / psi_hi of the state's values, its pinned
    arm ends and the closure's boundary samples, the *Omega floor, and
    the barrier's band geometry and data sup-norms.  Every program caller
    builds them from the initial state, so the range is that of the data.
    Records are then pure functions of the state.  delta, the barrier's
    band width, must lie in (0, eta0].
    """

    def __init__(self, state: GraphState, delta: float,
                 eps: float | None = None):
        grid = state.grid
        self.eps = eps
        self.delta = delta
        self.h = grid.h
        self.boundary_adjacent = np.nonzero(
            (grid.arm_src >= grid.num_interior).any(axis=(0, 1)))[0]
        _, wb = pinned_boundary_cells(state)
        self.static_boundary_area = float(wb.sum())
        geom = estimate_c0_eta0(grid.spec)
        if not 0.0 < delta <= geom.eta0:
            raise ValueError(f"delta = {delta} outside (0, eta0 = {geom.eta0}]")
        vals, self._closure_jac, hess = state.psi.jets(grid.closure_points())
        data = np.vstack([state.f, state.pinned, vals[grid.num_interior:]])
        self.psi_lo, self.psi_hi = data.min(axis=0), data.max(axis=0)
        # closure rows start with the interior nodes in grid order
        self.band_idx = np.nonzero(grid.band_mask(delta))[0]
        band_d = grid.d_bdry[self.band_idx]
        self.band_psi = vals[self.band_idx]
        # per-component oscillation and band Hessian sup (the direction
        # rule at m = 1: the largest |eigenvalue|)
        self.omega = vals.max(axis=0) - vals.min(axis=0)
        hb = hess[grid.closure_band_mask(delta)]
        self.nu = np.array([
            barrier_nu(self.omega[A], delta, geom.c0, grid.n,
                       _sup_hessian_norm(hb[:, A:A + 1]))
            for A in range(state.m)])
        # static barrier part nu log(1 + k d) + (omega / delta) d, k = 1/delta
        k = 1.0 / delta
        self.band_base = self.nu[None, :] * np.log1p(k * band_d)[:, None] \
            + (self.omega[None, :] / delta) * band_d[:, None]

    def star_omega_floor(self) -> float:
        """min over the sampled closure of *Omega of the initial graph."""
        jac = self._closure_jac
        n = jac.shape[2]
        _, detg = _metric_inverse(_metric([jac[:, :, i] for i in range(n)]), n)
        return float((1.0 / np.sqrt(detg)).min())

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
        detg = bundle.detg
        area = float((np.sqrt(detg) * grid.cell_frac).sum()
                     * grid.cellvol) + self.static_boundary_area

        if self.eps is not None and 0.0 < self.eps <= 1.0:
            r = (1.0 - self.eps) ** 2
            eps_prime = (1.0 - r) / (1.0 + r)
            p_min = float(((1.0 - lam_sq) - eps_prime * (1.0 + lam_sq)).min()) \
                if lam_sq.size else np.nan
        else:
            p_min = np.nan

        bgrad = float(np.sqrt(lam_sq[self.boundary_adjacent].max())) \
            if self.boundary_adjacent.size else 0.0

        barrier_min = np.nan        # an empty band has no barrier
        if self.band_idx.size:
            S, S_mirror = self.barrier_fields(state)
            barrier_min = float(np.minimum(S, S_mirror).min())

        return MonitorRecord(
            t=state.t,
            max_lambda=bundle.max_lambda,
            min_star_omega=float((1.0 / np.sqrt(detg)).min()) if detg.size else 1.0,
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


def euler_step(state: GraphState, bundle: FieldBundle, dt: float,
               t: float) -> GraphState:
    """The state at time t after one explicit update of the stepped unknowns.

    bundle is compute_fields(state) and dt at most stable_dt(grid, cfl).
    Interpolated nodes then follow their rule.
    """
    f_new = state.f + dt * bundle.residual
    _interpolate_dependent(f_new, state)
    return state.replace_values(f_new, t)


def super_step(state: GraphState, bundle: FieldBundle, dt: float, n: int,
               t: float) -> GraphState:
    """The state at time t after one RKL1 super-step as long as n steps of dt.

    First-order Runge-Kutta-Legendre (Meyer, Balsara & Aslam, J. Comput.
    Phys. 257, 2014) with s stages is stable over s(s+1)/2 explicit steps.
    The fewest such stages run at stage step w = 2 n dt / (s(s+1)) <= dt:

        Y_0 = f,   Y_1 = Y_0 + w L(Y_0),
        Y_j = mu_j Y_{j-1} + (1 - mu_j) Y_{j-2} + mu_j w L(Y_{j-1}),
        mu_j = (2j - 1) / j,

    with L the system residual and the interpolation rule applied after
    every stage.  A mode with L Y = lambda Y is multiplied by the Legendre
    polynomial P_s(1 + w lambda), which stays in [-1, 1]; it tracks the
    exact exp(n dt lambda) only while |lambda| n dt is at most about 1.
    With n = 1 this is euler_step.  bundle is compute_fields(state); the
    stages call compute_fields s - 1 more times.
    """
    s = 1
    while s * (s + 1) // 2 < n:
        s += 1
    w = 2.0 * n * dt / (s * (s + 1))
    prev, cur = state, euler_step(state, bundle, w, t)
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j
        f = mu * cur.f + (1.0 - mu) * prev.f \
            + (mu * w) * compute_fields(cur).residual
        _interpolate_dependent(f, state)
        prev, cur = cur, state.replace_values(f, t)
    return cur


def run_to_steady(state0: GraphState, tol_residual: float, max_steps: int,
                  monitor_every: int, monitors: FlowMonitors,
                  cfl: float = 0.9,
                  lambda_guard: float = DEFAULT_LAMBDA_GUARD
                  ) -> tuple[GraphState, list, str]:
    """Iterate the flow until the system residual drops below tolerance.

    Returns (final state, monitor records, outcome) with outcome one of
    'Converged', 'MaxSteps', 'BlowUp'.  Time advances in explicit steps
    of dt = stable_dt(grid, cfl), at most max_steps of them, grouped into
    super-steps: each one ends at the next multiple of monitor_every
    steps, at the budget, or after as many steps as have already been
    taken, whichever comes first.  Super-steps thus grow geometrically
    from one explicit step, and monitor_every = 1 is plain explicit Euler.
    monitors, built from state0, take the records at t = 0, every
    monitor_every-th step, and at the final step; the residual, the guard
    and finiteness are checked after every super-step.  Guard violations
    and non-finite values terminate the run with the BlowUp outcome.
    """
    if tol_residual <= 0:
        raise ValueError(f"tol_residual must be positive, got {tol_residual}")
    dt = stable_dt(state0.grid, cfl)
    state = state0
    bundle = compute_fields(state)
    diss = dissipation_rate(state, bundle)
    diss_integral = 0.0
    records = [monitors.record(state, bundle, dt, diss, diss_integral)]
    if bundle.max_lambda > lambda_guard:
        return state, records, "BlowUp"
    if bundle.residual_sup < tol_residual:
        return state, records, "Converged"     # already stationary
    outcome = "MaxSteps"
    k = 0
    while k < max_steps:
        n = min(monitor_every - k % monitor_every, max(1, k), max_steps - k)
        new = super_step(state, bundle, dt, n, state0.t + (k + n) * dt)
        if not np.isfinite(new.f).all():
            outcome = "BlowUp"
            break
        k += n
        state = new
        bundle = compute_fields(state)
        diss_prev, diss = diss, dissipation_rate(state, bundle)
        diss_integral += 0.5 * (n * dt) * (diss_prev + diss)
        done = bundle.residual_sup < tol_residual
        if done or k % monitor_every == 0 or k == max_steps:
            records.append(monitors.record(state, bundle, dt, diss, diss_integral))
        if done:
            outcome = "Converged"
            break
        if bundle.max_lambda > lambda_guard:
            outcome = "BlowUp"
            break
    return state, records, outcome


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


def check_invariants(records: list, monitors: FlowMonitors,
                     boundary_bound: float) -> InvariantReport:
    """Evaluate the six monitored invariants over a monitor series.

    Every limit but the boundary-gradient ceiling (the hypothesis report's
    boundary_bound) comes from the monitors that took the records, with
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
    (vi)  the boundary gradient stays below boundary_bound + tol_grid.
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
    lim = boundary_bound + tol_grid
    clauses.append(ClauseResult(
        "boundary_gradient_bound", worst <= lim, worst,
        f"boundary gradient {worst:.6g} vs ceiling {lim:.6g} at t={worst_t:.6g}"))

    return InvariantReport(clauses=clauses)
