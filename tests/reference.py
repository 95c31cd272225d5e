"""Test-side reference code: everything the tests check the program against
that no program mode runs.

- Pointwise differential geometry of a graph in R^(n+m).  Everything in
  this part operates on a single second-order jet of a map f: R^n -> R^m,
  i.e. the triple (value, Jacobian, Hessian) at one point, together with
  the base position.  The graph x -> (x, f(x)) is a n-dimensional
  submanifold of Euclidean R^(n+m); the routines below compute its
  induced metric, singular values, projection factor *Omega,
  strict-margin tensor minimum, mean curvature and the residuals of the
  minimal-surface and self-shrinker systems.  The ambient metric is flat
  (all Christoffel symbols vanish), so second derivatives of f are plain
  partial derivatives.  The matrices involved are tiny (n, m <= 8);
  clarity wins over speed here.  The program's field kernel has its own
  vectorized path; this is the independent pointwise reference the tests
  check that kernel against.
- `jets_all`, the kernel's discrete jets as (K, m, n) and (K, m, n, n)
  stacks.
- `sampled_monitor_figures`, what the flow's monitors read of the data,
  sampled and reduced as the monitors did before they read the checker's
  report; `flat_face_area`, the flat-face boundary area node by node, as
  the monitors took it before it came from the checker's sample; and
  `flow_monitors`, monitors on a report built from the checker's pass at
  h alone, for flow tests that need no h/2 pass.
- `write_field_dat_rows`, the field dump written one row at a time, which
  the program's block writer must match byte for byte.
- `dependent_nodes_loop`, the interpolation split taken node by node in
  arm-length order, which the program's array split must match.
- The Scherk graph, a closed-form minimal graph (criterion 2).
- The odd reflection of a half-space graph across its flat edge and the
  sloped half-plane it is tested on (criterion 8).
- Closed-form evaluations of linear and sphere-to-sphere data (a matmul
  and an einsum) and of one quartic written out by hand, which the
  program's polynomial term lists are checked against.

The package never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mssflow.boundary import HypothesisReport, barrier_nu, linear_map, sup_norms
from mssflow.domains import DomainSpec, estimate_c0_eta0
from mssflow.driver import _domain_echo, _fmt
from mssflow.flow import (FlowMonitors, GraphState, _differences, _metric,
                          _metric_inverse, _symmetric, make_state)
from mssflow.grid import CLS_BOUNDARY, CLS_TOL, THETA_DEP, build_grid
from mssflow.oracles import half_plane_state

# ---------------------------------------------------------------------------
# pointwise geometry
# ---------------------------------------------------------------------------

MAX_DIM = 8


class JetError(ValueError):
    """Raised for malformed jets (bad shapes, asymmetric Hessian)."""


@dataclass(frozen=True)
class PointJet:
    """Second-order data of a map at one base point.

    x     : base position, shape (n,)
    value : f(x), shape (m,)
    jac   : J[A, i] = df^A/dx_i, shape (m, n)
    hess  : H[A, i, j] = d2 f^A / dx_i dx_j, shape (m, n, n), symmetric in (i, j)
    """

    x: np.ndarray
    value: np.ndarray
    jac: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.value, dtype=float)
        J = np.asarray(self.jac, dtype=float)
        H = np.asarray(self.hess, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "jac", J)
        object.__setattr__(self, "hess", H)
        n, m = x.size, v.size
        if not (1 <= n <= MAX_DIM and 1 <= m <= MAX_DIM):
            raise JetError(f"dimensions out of range: n={n}, m={m}")
        if J.shape != (m, n):
            raise JetError(f"jac shape {J.shape} != ({m}, {n})")
        if H.shape != (m, n, n):
            raise JetError(f"hess shape {H.shape} != ({m}, {n}, {n})")
        if not np.isfinite(x).all() or not np.isfinite(v).all() \
                or not np.isfinite(J).all() or not np.isfinite(H).all():
            raise JetError("non-finite jet data")
        if np.abs(H - H.transpose(0, 2, 1)).max() > 1e-12 * max(1.0, np.abs(H).max()):
            raise JetError("hess not symmetric in its last two indices")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.value.size


@dataclass(frozen=True)
class MetricPair:
    """Induced metric g = I + J^T J, its inverse and determinant."""

    g: np.ndarray
    ginv: np.ndarray
    detg: float


def induced_metric(jet: PointJet) -> MetricPair:
    """Metric of the graph pulled back to the base: g = I + J^T J."""
    J = jet.jac
    g = np.eye(jet.n) + J.T @ J
    ginv = np.linalg.inv(g)
    detg = float(np.linalg.det(g))
    return MetricPair(g=g, ginv=ginv, detg=detg)


def singular_values(jet: PointJet) -> np.ndarray:
    """The n singular values of the differential, sorted descending.

    Zero-padded when m < n.  Taken from the SVD of J directly, which keeps
    small singular values to full relative accuracy.
    """
    lam = np.zeros(jet.n)
    sv = np.linalg.svd(jet.jac, compute_uv=False)
    lam[:sv.size] = sv
    return lam


def star_omega(lambdas: np.ndarray) -> float:
    """Jacobian of the projection of the graph onto the base.

    Equals 1 / sqrt(prod(1 + lambda_i^2)); lies in (0, 1] and stays
    positive exactly as long as the surface remains graphical.
    """
    lam = np.asarray(lambdas, dtype=float)
    return float(1.0 / np.sqrt(np.prod(1.0 + lam * lam)))


def p_tensor_min_eig(lambdas: np.ndarray, eps: float) -> float:
    """Smallest eigenvalue of the strict length-decreasing margin tensor.

    In the singular-value frame of J the tensor is diagonal with entries
    (1 - lambda_i^2) - eps' * (1 + lambda_i^2), where
    eps' = (1 - (1-eps)^2) / (1 + (1-eps)^2).  The minimum is positive iff
    every singular value stays strictly below 1 - eps.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    lam2 = np.asarray(lambdas, dtype=float) ** 2
    r = (1.0 - eps) ** 2
    eps_prime = (1.0 - r) / (1.0 + r)
    return float(np.min((1.0 - lam2) - eps_prime * (1.0 + lam2)))


def mss_residual(jet: PointJet) -> np.ndarray:
    """Residual of the minimal surface system: R^A = g^{ij} H[A, i, j]."""
    mp = induced_metric(jet)
    return np.einsum("ij,Aij->A", mp.ginv, jet.hess)


def mean_curvature(jet: PointJet) -> tuple[np.ndarray, float]:
    """Mean curvature vector of the graph and its squared norm.

    The vector (0, g^{ij} H[., i, j]) in R^(n+m) is projected onto the
    normal bundle by removing its tangential part; the tangent space is
    spanned by the columns of B = [I; J].
    """
    mp = induced_metric(jet)
    R = np.einsum("ij,Aij->A", mp.ginv, jet.hess)
    w = mp.ginv @ (jet.jac.T @ R)
    H_vec = np.concatenate([-w, R - jet.jac @ w])
    normsq = float(R @ R - (jet.jac.T @ R) @ w)
    return H_vec, normsq


def shrinker_residual(jet: PointJet, c: float) -> np.ndarray:
    """Residual of the c-minimal system: H + (c/2) * Fperp.

    F = (x, f(x)) is the position of the graph point and Fperp its
    projection onto the normal bundle.  c = 0 recovers the mean curvature
    vector, c = 1 the self-shrinker equation.
    """
    if c < 0:
        raise ValueError(f"c must be non-negative, got {c}")
    mp = induced_metric(jet)
    H_vec, _ = mean_curvature(jet)
    F = np.concatenate([jet.x, jet.value])
    w = mp.ginv @ (jet.x + jet.jac.T @ jet.value)
    F_tan = np.concatenate([w, jet.jac @ w])
    return H_vec + 0.5 * c * (F - F_tan)


# ---------------------------------------------------------------------------
# discrete jets
# ---------------------------------------------------------------------------

def jets_all(state: GraphState) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian (K, m, n) and Hessian (K, m, n, n) at every interior node."""
    J, H = _differences(state)
    return np.stack(J, axis=-1), _symmetric(H, state.grid.n)


# ---------------------------------------------------------------------------
# the data's figures for the flow's monitors
# ---------------------------------------------------------------------------

def sampled_monitor_figures(state: GraphState, psi, delta: float) -> dict:
    """The monitors' figures from a jets call of their own on the closure,
    psi the state's data.

    psi_lo / psi_hi: the range of the state's values, its pinned arm ends
    and the closure's boundary samples; omega, the closure sample's
    per-component range; nu, the barrier weights with sup|D^2 psi^A| the
    largest |eigenvalue| (LAPACK on every row) over
    closure_band_mask(delta); band_psi, the sample's band rows, and
    band_base, the static barrier part over them; star_omega_floor, the
    least 1 / sqrt(det g) over the closure.
    """
    grid = state.grid
    vals, jac, hess = psi.jets(grid.closure_points())
    _, detg = _metric_inverse(
        _metric([jac[:, :, i] for i in range(grid.n)]), grid.n)
    data = np.vstack([state.f, state.pinned, vals[grid.num_interior:]])
    omega = vals.max(axis=0) - vals.min(axis=0)
    hb = hess[grid.closure_band_mask(delta)]
    c0 = estimate_c0_eta0(grid.spec).c0
    nu = np.array([barrier_nu(omega[A], delta, c0, grid.n,
                              np.abs(np.linalg.eigvalsh(hb[:, A])).max())
                   for A in range(state.m)])
    band = grid.band_mask(delta)
    band_d = grid.d_bdry[band]
    k = 1.0 / delta
    return {"psi_lo": data.min(axis=0), "psi_hi": data.max(axis=0),
            "omega": omega, "nu": nu, "band_psi": vals[:grid.num_interior][band],
            "band_base": nu[None, :] * np.log1p(k * band_d)[:, None]
            + (omega[None, :] / delta) * band_d[:, None],
            "star_omega_floor": float((1.0 / np.sqrt(detg)).min())}


def flat_face_area(grid, psi) -> float:
    """Area of the flat-face boundary cells of the graph of psi, node by
    node: the lattice nodes classified as boundary, each with the cell
    fraction 1/2 per box face it lies on (none off a box), jets at those
    nodes alone, and det g by `_metric_inverse`."""
    nodes = grid.lattice_positions()[grid.cls.ravel() == CLS_BOUNDARY]
    if grid.spec.kind != "box" or not nodes.size:
        return 0.0
    lo, hi = grid.spec.bounding_box()
    scale = max(1.0, float(np.abs(grid.lattice_positions()).max()))
    on_face = (np.abs(nodes - lo) < CLS_TOL * scale) | \
              (np.abs(nodes - hi) < CLS_TOL * scale)
    frac = 0.5 ** on_face.sum(axis=1)
    _, jac, _ = psi.jets(nodes)
    _, detg = _metric_inverse(
        _metric([jac[:, :, i] for i in range(grid.n)]), grid.n)
    return float((frac * grid.cellvol * np.sqrt(detg)).sum())


def flow_monitors(state: GraphState, psi, delta: float = 0.1,
                  eps: float = 0.0) -> FlowMonitors:
    """FlowMonitors(state, rep), psi the state's data, with rep holding
    the figures the checker's pass at h forms (sup_norms, then barrier_nu
    as the checker applies it), the margin eps (none unless positive)
    and nan for every figure the monitors do not read."""
    grid = state.grid
    lo, hi, d2, floor, area = sup_norms(psi, grid, delta, delta)[2]
    nu = barrier_nu(hi - lo, delta, estimate_c0_eta0(grid.spec).c0, grid.n, d2)
    nan = float("nan")
    rep = HypothesisReport(
        condition="A", w_psi=nan, sup_dpsi_band=nan, sup_d2psi_band=nan,
        sup_dpsi_global=nan, delta=delta, delta0=nan, lhs_condition=nan,
        boundary_bound=nan, passed=eps > 0.0, eps=eps, psi_lo=lo, psi_hi=hi,
        nu=nu, star_omega_floor=floor, boundary_area=area)
    return FlowMonitors(state, rep)


# ---------------------------------------------------------------------------
# field dump
# ---------------------------------------------------------------------------

def write_field_dat_rows(path: str, state: GraphState) -> None:
    """field.dat with one write per row: the header, then per interior node
    its flat index and the reprs of its position and values."""
    grid = state.grid
    with open(path, "w") as fh:
        fh.write("# mssflow field dump\n")
        fh.write(f"# n = {grid.n}  m = {state.m}\n")
        fh.write(f"# dims = {' '.join(str(d) for d in grid.dims)}\n")
        fh.write(f"# h = {' '.join(_fmt(h) for h in grid.hs)}\n")
        fh.write(f"# domain = {_domain_echo(grid.spec)}\n")
        fh.write(f"# t = {_fmt(state.t)}\n")
        fh.write("# columns: flat_index x_1..x_n f_1..f_m\n")
        for flat, pos, f in zip(grid.interior_flat.tolist(),
                                grid.interior_pos.tolist(), state.f.tolist()):
            fh.write(" ".join([str(flat), *map(repr, pos), *map(repr, f)])
                     + "\n")


# ---------------------------------------------------------------------------
# interpolation split
# ---------------------------------------------------------------------------

def dependent_nodes_loop(arm_src: np.ndarray, arm_theta: np.ndarray) -> dict:
    """The stepped / interpolated split, one node at a time.

    Nodes with an arm shorter than THETA_DEP are taken by increasing
    shortest arm (stable), each interpolated along its shortest arm (the
    first on a tie) from the node opposite; a node whose opposite row is
    pinned or already interpolated raises ValueError.  Returns the `Grid`
    fields of the split.
    """
    K = arm_src.shape[-1]
    src = arm_src.reshape(-1, K)
    theta = arm_theta.reshape(-1, K)
    min_t = theta.min(axis=0)
    argmin = theta.argmin(axis=0)
    dependent = np.zeros(K, dtype=bool)
    rows = []
    low = np.nonzero(min_t < THETA_DEP)[0]
    for k in low[np.argsort(min_t[low], kind="stable")]:
        arm = argmin[k]
        q = src[arm ^ 1, k]
        if q >= K or dependent[q]:
            raise ValueError(f"row {k} has no stepped node opposite it")
        dependent[k] = True
        rows.append((k, q, min_t[k], src[arm, k] - K))
    return dict(stepped=~dependent,
                dep_idx=np.array([r[0] for r in rows], dtype=np.int64),
                dep_opp=np.array([r[1] for r in rows], dtype=np.int64),
                dep_t=np.array([r[2] for r in rows], dtype=float),
                dep_pin=np.array([r[3] for r in rows], dtype=np.int64))


# ---------------------------------------------------------------------------
# Scherk graph
# ---------------------------------------------------------------------------

class ScherkMap:
    """Scherk graph f(x) = log(cos x_1 / cos x_2), a minimal graph on the
    square |x_i| < pi/2."""

    n = 2
    m = 1

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        t0, t1 = np.tan(pts[:, 0]), np.tan(pts[:, 1])
        vals = (np.log(np.cos(pts[:, 0])) - np.log(np.cos(pts[:, 1])))[:, None]
        jac = np.stack([-t0, t1], axis=1)[:, None, :]
        hess = np.zeros((pts.shape[0], 1, 2, 2))
        hess[:, 0, 0, 0] = -(1.0 + t0 * t0)
        hess[:, 0, 1, 1] = 1.0 + t1 * t1
        return vals, jac, hess


def scherk_state(h: float, halfwidth: float) -> GraphState:
    """Scherk minimal graph over a centered square inside its singular frame."""
    spec = DomainSpec.box(np.full(2, 2.0 * halfwidth),
                          lo=np.full(2, -halfwidth))
    grid = build_grid(spec, h)
    return make_state(grid, ScherkMap())


# ---------------------------------------------------------------------------
# half-space reflection
# ---------------------------------------------------------------------------

class OddReflectionMap:
    """Odd extension of a half-space map across the hyperplane x_n = 0.

    The reflection fixes the first n-1 base coordinates and negates both
    x_n and every fiber coordinate.  Jets on the mirror side follow by the
    chain rule; on the hyperplane itself the upper-side convention is used
    (any second-derivative jump there is reported, not hidden).
    """

    def __init__(self, psi, n: int):
        self.psi = psi
        self.n = n

    def _split(self, pts):
        pts = np.atleast_2d(pts)
        lower = pts[:, self.n - 1] < 0.0
        flipped = pts.copy()
        flipped[lower, self.n - 1] *= -1.0
        return lower, flipped

    def jets(self, pts):
        lower, flipped = self._split(pts)
        vals, jac, hess = self.psi.jets(flipped)
        vals[lower] *= -1.0
        jac[lower] *= -1.0
        jac[lower, :, self.n - 1] *= -1.0
        hess[lower] *= -1.0
        hess[lower, :, self.n - 1, :] *= -1.0
        hess[lower, :, :, self.n - 1] *= -1.0
        return vals, jac, hess


def reflect_halfspace(state: GraphState, psi) -> tuple[GraphState, float]:
    """Odd doubling of a graph over a box resting on the hyperplane x_n = 0,
    psi the state's data.

    The trace on the reflecting face must vanish (tolerance 1e-10).  The
    doubled state lives on the mirrored box; values on the mirror half are
    the negated originals at reflected base points.  Returns the doubled
    state and a kink diagnostic: an estimate of the jump in the normal
    second derivative across the interface (zero for genuinely odd data,
    e.g. odd linear maps double to global linear maps).
    """
    grid = state.grid
    spec = grid.spec
    n = grid.n
    if spec.kind != "box" or abs(spec.lo[n - 1]) > CLS_TOL:
        raise ValueError("reflection needs a box domain resting on x_n = 0")

    lo, hi = spec.bounding_box()
    face = np.abs(grid.boundary_samples[:, n - 1]) <= CLS_TOL
    if face.any():
        trace = psi.jets(grid.boundary_samples[face])[0]
        worst = float(np.abs(trace).max())
        if worst > 1e-10:
            raise ValueError(
                f"trace on the reflecting hyperplane is {worst:.3g} > 1e-10")

    doubled_lo = lo.copy()
    doubled_lo[n - 1] = -hi[n - 1]
    doubled = DomainSpec.box(hi - doubled_lo, lo=doubled_lo)
    grid2 = build_grid(doubled, float(grid.hs.max()))
    if not np.array_equal(grid2.hs, grid.hs):
        raise ValueError(f"the doubled box is meshed at {grid2.hs}, not at the "
                         f"state's spacing {grid.hs}")
    odd = OddReflectionMap(psi, n)
    out = make_state(grid2, odd, t=state.t)

    # Carry the evolved interior values across (make_state seeded them
    # with the boundary family itself, which is only right at t = 0).
    # Both lattices have x_n = 0 as their coordinate plane c_n = 0.
    mirror = grid2.lattice_coords()
    cn = mirror[:, n - 1].copy()
    mirror[:, n - 1] = np.abs(cn)
    k = grid.lattice_index(mirror)
    f2 = np.zeros_like(out.f)
    f2[cn > 0] = state.f[k[cn > 0]]
    f2[cn < 0] = -state.f[k[cn < 0]]
    out = out.replace_values(f2, state.t)

    # Kink estimate: 2 |f_nn(0+)| from the first two interior layers.
    kink = np.nan
    coords = grid.lattice_coords()
    first = np.nonzero(coords[:, n - 1] == 1)[0]
    second = coords[first]
    second[:, n - 1] = 2
    k2 = grid.lattice_index(second)
    hit = k2 >= 0
    if hit.any():
        h_n = grid.hs[n - 1]
        kink = 2.0 * float(np.abs(state.f[k2[hit]] - 2.0 * state.f[first[hit]])
                           .max()) / (h_n * h_n)
    return out, kink


def sloped_half_plane_state(h: float, halfwidth: float,
                            slope) -> tuple[GraphState, object]:
    """Linear graph x -> slope x over the half-plane oracle's rectangle,
    and its data map."""
    psi = linear_map(slope)
    return half_plane_state(h=h, halfwidth=halfwidth, psi=psi), psi


# ---------------------------------------------------------------------------
# closed-form data
# ---------------------------------------------------------------------------

class LinearMap:
    """x -> A x + b by a matmul; A zero gives constant data."""

    family = "linear"

    def __init__(self, matrix, offset=None):
        self.A = np.atleast_2d(np.asarray(matrix, float))
        self.m, self.n = self.A.shape
        self.b = np.zeros(self.m) if offset is None else np.asarray(offset, float)

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        B = pts.shape[0]
        jac = np.broadcast_to(self.A, (B, self.m, self.n)).copy()
        return (pts @ self.A.T + self.b, jac,
                np.zeros((B, self.m, self.n, self.n)))


class LawsonOssermanMap:
    """R (x1^2 + x2^2 - x3^2 - x4^2, 2 (x1 x3 + x2 x4), 2 (x2 x3 - x1 x4))
    as three quadratic forms x^T Q_A x."""

    family = "lawson_osserman_scaled"
    n = 4
    m = 3

    def __init__(self, scale):
        Q = np.zeros((3, 4, 4))
        Q[0] = np.diag([1.0, 1.0, -1.0, -1.0])
        Q[1, 0, 2] = Q[1, 2, 0] = 1.0
        Q[1, 1, 3] = Q[1, 3, 1] = 1.0
        Q[2, 1, 2] = Q[2, 2, 1] = 1.0
        Q[2, 0, 3] = Q[2, 3, 0] = -1.0
        self._Q = Q * float(scale)

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        vals = np.einsum("bi,Aij,bj->bA", pts, self._Q, pts)
        jac = 2.0 * np.einsum("Aij,bj->bAi", self._Q, pts)
        hess = np.broadcast_to(2.0 * self._Q, (pts.shape[0], 3, 4, 4)).copy()
        return vals, jac, hess


class QuarticMap:
    """0.1 (x1^4 + x1^3 x2 + x1^2 x2^2 + x1^2 x2 x3 + x1 x2 x3 x4) on R^4,
    written out: every derivative factor degree 4 allows (1, 2, 3, 4, 6
    and 12), each multiplied into the coefficient first, and every sum in
    the order of the five monomials."""

    family = "polynomial"
    n = 4
    m = 1

    def jets(self, pts):
        x1, x2, x3, x4 = np.atleast_2d(pts).T
        c = 0.1
        val = (c * x1 ** 4 + c * (x1 ** 3 * x2) + c * (x1 ** 2 * x2 ** 2)
               + c * (x1 ** 2 * x2 * x3) + c * (x1 * x2 * x3 * x4))
        d1 = ((c * 4) * x1 ** 3 + (c * 3) * (x1 ** 2 * x2)
              + (c * 2) * (x1 * x2 ** 2) + (c * 2) * (x1 * x2 * x3)
              + c * (x2 * x3 * x4))
        d2 = (c * x1 ** 3 + (c * 2) * (x1 ** 2 * x2) + c * (x1 ** 2 * x3)
              + c * (x1 * x3 * x4))
        d3 = c * (x1 ** 2 * x2) + c * (x1 * x2 * x4)
        d4 = c * (x1 * x2 * x3)
        h11 = ((c * 12) * x1 ** 2 + (c * 6) * (x1 * x2) + (c * 2) * x2 ** 2
               + (c * 2) * (x2 * x3))
        h12 = ((c * 3) * x1 ** 2 + (c * 4) * (x1 * x2) + (c * 2) * (x1 * x3)
               + c * (x3 * x4))
        h13 = (c * 2) * (x1 * x2) + c * (x2 * x4)
        h14 = c * (x2 * x3)
        h22 = (c * 2) * x1 ** 2
        h23 = c * x1 ** 2 + c * (x1 * x4)
        h24 = c * (x1 * x3)
        h34 = c * (x1 * x2)
        zero = np.zeros_like(x1)
        jac = np.stack([d1, d2, d3, d4], axis=1)[:, None]
        hess = np.stack([np.stack(row, axis=1) for row in (
            (h11, h12, h13, h14), (h12, h22, h23, h24),
            (h13, h23, zero, h34), (h14, h24, h34, zero))], axis=1)[:, None]
        return val[:, None], jac, hess
