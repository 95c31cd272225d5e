"""Boundary map families, norms, and solvability checker arithmetic."""

import numpy as np
import pytest

import reference
from mssflow import boundary as bd, flow
from mssflow.domains import BoundaryGeometry, DomainSpec, estimate_c0_eta0
from mssflow.grid import build_closure, build_grid

BALL = DomainSpec.ball(1.0, 2)
BOX = DomainSpec.box([1.0, 1.0])


@pytest.fixture(scope="module")
def ball_grid():
    return build_grid(BALL, 1.0 / 16)


@pytest.fixture(scope="module")
def box_grid():
    return build_grid(BOX, 1.0 / 32)


def all_families():
    return [
        bd.constant_map([0.3, -0.1], 2),
        bd.linear_map([[0.2, -0.3], [0.1, 0.05]], offset=[1.0, -2.0]),
        bd.PolynomialMap([([0.5, -0.2, 0.1], [[2, 0], [1, 1], [0, 4]]),
                          ([0.3], [[3, 1]])], 2),
        bd.TrigMap([0.4, 0.2], [[1.5, -2.0], [0.7, 0.3]], [0.2, -0.4]),
        bd.lawson_osserman_map(0.7),
    ]


# ---------------------------------------------------------------------------
# analytic jets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("psi", all_families(),
                         ids=lambda p: p.family)
def test_family_jets_match_finite_differences(psi):
    rng = np.random.default_rng(5)
    n = psi.n
    pts = rng.uniform(-0.8, 0.8, (12, n))
    _, jac, hess = psi.jets(pts)

    def values(x):
        return psi.jets(x)[0]

    def fd_errors(h):
        jac_err = hess_err = 0.0
        for k, x in enumerate(pts):
            for i in range(n):
                ei = np.zeros(n)
                ei[i] = h
                d1 = (values(x + ei) - values(x - ei))[0] / (2 * h)
                jac_err = max(jac_err, np.abs(d1 - jac[k, :, i]).max())
                d2 = (values(x + ei) - 2 * values(x[None])
                      + values(x - ei))[0] / h ** 2
                hess_err = max(hess_err, np.abs(d2 - hess[k, :, i, i]).max())
        return jac_err, hess_err

    j1, h1 = fd_errors(2e-3)
    j2, h2 = fd_errors(1e-3)
    assert j1 <= max(4.5 * j2, 1e-11)   # O(h^2), exact families hit zero
    assert h1 <= max(4.5 * h2, 1e-8)


# ---------------------------------------------------------------------------
# oscillation and sup-norms
# ---------------------------------------------------------------------------

def test_oscillation_examples(box_grid, ball_grid):
    def w(psi, grid, delta=None):
        return bd.sup_norms(psi, grid, delta)[0].w

    assert w(bd.constant_map([2.0], 2), ball_grid) == 0.0
    lin = bd.linear_map([[0.2, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(w(lin, box_grid), 0.2, rtol=1e-15)
    two = bd.linear_map([[0.1, 0.0], [0.3, 0.0]])
    np.testing.assert_allclose(w(two, box_grid), 0.3, rtol=1e-15)
    # the oscillation always spans the whole closure, whatever the band
    assert w(two, box_grid, 0.1) == w(two, box_grid)


# psi = s - s^2 / 2 with s = |x|^2: |Dpsi| = 2 r (1 - r^2) peaks at
# r = 1/sqrt(3), deep inside the unit disk, and vanishes on the circle
BUMP = bd.PolynomialMap([([1.0, 1.0, -0.5, -1.0, -0.5],
                          [[2, 0], [0, 2], [4, 0], [2, 2], [0, 4]])], 2)


def test_sup_norms_examples(box_grid, ball_grid):
    norms, glob, _ = bd.sup_norms(bd.linear_map(np.diag([0.3, 0.1])), box_grid, None)
    np.testing.assert_allclose([norms.sup_dpsi, norms.sup_d2psi, glob],
                               [0.3, 0.0, 0.3], atol=1e-14)
    trig = bd.TrigMap([0.1, 0.0], [[np.pi, 0.0], [0.0, 0.0]])
    norms, glob, _ = bd.sup_norms(trig, box_grid, None)
    np.testing.assert_allclose(norms.sup_dpsi, np.pi / 10, rtol=1e-12)
    np.testing.assert_allclose(norms.sup_d2psi, np.pi ** 2 / 10, rtol=1e-12)
    assert glob == norms.sup_dpsi
    norms, glob, _ = bd.sup_norms(bd.constant_map([5.0], 2), box_grid, None)
    assert norms.sup_dpsi == norms.sup_d2psi == glob == 0.0
    # n = 3, m = 2: zero Hessians are screened out before any eigensolve
    A = np.array([[0.3, 0.1, 0.0], [0.0, 0.2, -0.1]])
    cube = build_grid(DomainSpec.box([1.0, 1.0, 1.0]), 1.0 / 10)
    norms, _, _ = bd.sup_norms(bd.linear_map(A), cube, None)
    np.testing.assert_allclose(norms.sup_dpsi, np.linalg.svd(A)[1][0], rtol=1e-14)
    assert norms.sup_d2psi == 0.0

    # band rows: band nodes plus every boundary sample; global: every row
    pts = ball_grid.closure_points()
    r = np.linalg.norm(pts, axis=1)
    slope = 2.0 * r * (1.0 - r * r)
    band = ball_grid.closure_band_mask(0.1)
    assert band.sum() == (ball_grid.d_bdry < 0.1).sum() \
        + ball_grid.boundary_samples.shape[0]
    norms, glob, _ = bd.sup_norms(BUMP, ball_grid, 0.1)
    np.testing.assert_allclose(norms.sup_dpsi, slope[band].max(), rtol=1e-12)
    np.testing.assert_allclose(glob, slope.max(), rtol=1e-12)
    assert norms.sup_dpsi < 0.5 < glob


def _sample_hessians(psi, grid):
    pts = np.vstack([grid.interior_pos, grid.boundary_samples])
    return psi.jets(pts)[2]


def _random_hessians(m, seed=11, count=200):
    h = np.random.default_rng(seed).standard_normal((count, m, 2, 2))
    return h + h.transpose(0, 1, 3, 2)


def _isotropic_hessians():
    c = np.random.default_rng(12).standard_normal((50, 3))
    return c[:, :, None, None] * np.eye(2)


def _circular_hessians():
    # sum beta^2 = sum gamma^2 and sum beta gamma = 0: |q|^2 is first
    # order in s = 2t, a degenerate case for closed forms in s
    rng = np.random.default_rng(15)
    alpha, r = rng.standard_normal((50, 2)), rng.standard_normal(50)
    h = alpha[:, :, None, None] * np.eye(2)
    h[:, 0] += r[:, None, None] * np.diag([1.0, -1.0])
    h[:, 1] += r[:, None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])
    return h


def _one_component_hessians():
    h = np.zeros((50, 2, 2, 2))
    h[:, 1] = _random_hessians(1, seed=13, count=50)[:, 0]
    return h


def _rank_one_hessians():
    rng = np.random.default_rng(14)
    v = rng.standard_normal((50, 3, 2))
    return rng.standard_normal((50, 3, 1, 1)) * v[:, :, :, None] * v[:, :, None, :]


def _direction_values(hess, angles):
    """|D^2 psi(tau, tau)| at tau = (cos t, sin t); angles (T,) or (B, T)."""
    c, s = np.atleast_2d(np.cos(angles)), np.atleast_2d(np.sin(angles))
    q = (hess[:, :, 0, 0, None] * (c * c)[:, None]
         + 2.0 * hess[:, :, 0, 1, None] * (c * s)[:, None]
         + hess[:, :, 1, 1, None] * (s * s)[:, None])
    return np.linalg.norm(q, axis=1)


def _swept_direction_max(hess):
    """Brute-force sup over points and directions of |D^2 psi(tau, tau)|.

    A 20,001-angle sweep of [0, pi] per point, refined by a 2,001-angle
    sweep across the two coarse cells around that point's best angle: the
    coarse sweep alone can sit ~1e-8 below the maximum on O(10) data.
    """
    coarse = np.linspace(0.0, np.pi, 20001)
    best = 0.0
    for block in np.array_split(hess, -(-hess.shape[0] // 64)):
        t0 = coarse[np.argmax(_direction_values(block, coarse), axis=1)]
        fine = t0[:, None] + np.linspace(-coarse[1], coarse[1], 2001)
        best = max(best, float(_direction_values(block, fine).max()))
    return best


POLY = bd.PolynomialMap([([0.4, -0.3], [[2, 0], [1, 1]]),
                         ([0.25, 0.35], [[0, 2], [2, 0]])], 2)
# ball-solve's trigonometric data; on its h = 1/16 sample the projected
# power iteration that the direction rule replaced returned this value
BALL_TRIG = bd.TrigMap([0.01, 0.005], [[2.0, 1.0], [0.0, 2.0]], [0.0, 0.5])
BALL_TRIG_ITERATION = 0.050166301685529345


@pytest.mark.parametrize("make_hessians, against_iteration", [
    pytest.param(lambda g: _sample_hessians(POLY, g), False, id="polynomial"),
    pytest.param(lambda g: _random_hessians(2), False, id="random_m2"),
    pytest.param(lambda g: _random_hessians(3), False, id="random_m3"),
    pytest.param(lambda g: _random_hessians(4), False, id="random_m4"),
    pytest.param(lambda g: _isotropic_hessians(), False, id="isotropic"),
    pytest.param(lambda g: _circular_hessians(), False, id="circular"),
    pytest.param(lambda g: _one_component_hessians(), False,
                 id="one_component"),
    pytest.param(lambda g: _rank_one_hessians(), False, id="rank_one"),
    pytest.param(lambda g: np.zeros((20, 2, 2, 2)), False, id="zero"),
    pytest.param(lambda g: _sample_hessians(BALL_TRIG, g), True,
                 id="ball_trig"),
])
def test_vector_hessian_norm_against_dense_sampling(ball_grid, make_hessians,
                                                    against_iteration):
    # n = 2, m >= 2 stacked quadratic forms: the certified direction
    # maximum must agree with a brute-force direction sweep
    hess = make_hessians(ball_grid)
    value = bd._sup_hessian_norm(hess)
    dense = _swept_direction_max(hess)
    assert dense - 1e-12 <= value <= dense + 1e-9
    if against_iteration:
        upper, lower = bd._direction_max(hess)
        assert lower <= BALL_TRIG_ITERATION <= upper == value


@pytest.mark.parametrize("shape", [(1212, 1, 2, 2), (1212, 2, 2, 2),
                                   (3644, 2, 2, 2), (0, 2, 2, 2)])
def test_direction_max_skips_the_screen_on_zero_stacks(monkeypatch, shape):
    # linear data's Hessian stacks (check-linear's shapes): (0, 0) with no
    # screen over the samples
    calls = []

    def counted(mats):
        calls.append(mats.shape)
        return norm2_bounds(mats)
    norm2_bounds = bd._norm2_bounds
    monkeypatch.setattr(bd, "_norm2_bounds", counted)
    assert bd._direction_max(np.zeros(shape)) == (0.0, 0.0)
    assert calls == []


def _seeded_hessians(n, m, seed, count=40):
    h = np.random.default_rng(seed).standard_normal((count, m, n, n))
    return h + np.swapaxes(h, -1, -2)


@pytest.mark.parametrize("n, m, iteration", [
    (3, 2, 7.712819476245532),
    (3, 3, 8.22890299164495),
    (4, 2, 9.74135988817718),
    (4, 3, 9.327006585589023),
])
def test_direction_max_brackets_the_power_iteration(n, m, iteration):
    # the values of the 32-restart projected power iteration that the
    # direction rule replaced, on the same seeded stacks: each lies in
    # the certified interval [F, U], which is 1e-12 relative wide
    hess = _seeded_hessians(n, m, seed=10 * n + m)
    upper, lower = bd._direction_max(hess)
    assert lower <= iteration <= upper
    assert upper <= lower * (1.0 + 1e-12)
    assert bd._sup_hessian_norm(hess) == upper


def _disk_band_hessians(psi):
    grid = build_grid(BALL, 1.0 / 32)
    pts = grid.closure_points()
    band = grid.closure_band_mask(0.1)
    return psi.jets(pts[band])[2], np.linalg.norm(pts[band], axis=1).max()


def _lawson_osserman(scale):
    psi = bd.lawson_osserman_map(scale)
    pts = np.random.default_rng(31).uniform(-0.5, 0.5, (50, 4))
    return psi.jets(pts)[2], 2.0 * scale


def _square(eps):
    # eps (x^2 - y^2, 2xy) = eps z^2: |D^2 psi(tau, tau)| = 2 eps, any tau
    psi = bd.PolynomialMap([([eps, -eps], [[2, 0], [0, 2]]),
                            ([2.0 * eps], [[1, 1]])], 2)
    return psi.jets(np.zeros((1, 2)))[2], 2.0 * eps


def _cube(eps):
    # eps z^3: |D^2 psi(tau, tau)| = 6 eps |z| for every tau
    psi = bd.PolynomialMap([([eps, -3.0 * eps], [[3, 0], [1, 2]]),
                            ([3.0 * eps, -eps], [[2, 1], [0, 3]])], 2)
    hess, rmax = _disk_band_hessians(psi)
    return hess, 6.0 * eps * rmax


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _lawson_osserman(0.3), id="lawson_osserman"),
    pytest.param(lambda: _square(0.01), id="holomorphic_z2"),
    pytest.param(lambda: _cube(0.01), id="holomorphic_z3_band"),
])
def test_direction_max_on_flat_data(monkeypatch, make):
    # |D^2 psi(tau, tau)| takes its maximum in every direction: no cell
    # can be dropped, so refinement stops at the vertex budget and the
    # certified interval keeps that round's width.  Every vertex value
    # equals the maximum up to rounding, hence the slack on F.
    hess, exact = make()
    B, m = hess.shape[:2]
    lower = bd._direction_max(hess)[1]
    counts = _RowCount(monkeypatch)
    value = bd._sup_hessian_norm(hess)
    assert lower <= exact * (1.0 + 1e-14) and exact <= value
    assert value / exact - 1.0 <= 1e-3
    # the first round solves m 3^(m-1) vertices per point; after it the
    # live cells (about) double per round up to the budget, so the later
    # rounds sum to under two budgets
    assert sum(counts.rows["eigvalsh"]) <= B * m * 3 ** (m - 1) \
        + 2 * bd._VERTEX_BUDGET
    assert max(counts.rows["eigvalsh"]) <= bd._EIG_CHUNK


# ---------------------------------------------------------------------------
# delta0 and the checkers
# ---------------------------------------------------------------------------

def test_delta0_cases():
    ball_geom = estimate_c0_eta0(DomainSpec.ball(1.0, 2))
    np.testing.assert_allclose(bd.delta0(ball_geom), 0.5)
    geom = BoundaryGeometry(eta0=10.0, c0=1.0, hess_d_bound=0.5)
    np.testing.assert_allclose(bd.delta0(geom), 1.0 / 32)
    prev = np.inf
    for c0 in (1.0, 10.0, 100.0, 1e4):
        cur = bd.delta0(BoundaryGeometry(eta0=10.0, c0=c0, hess_d_bound=c0))
        assert cur < prev
        prev = cur
    assert prev < 1e-5


def test_condition_A_worked_examples(ball_grid):
    geom = estimate_c0_eta0(BALL)
    rep = bd.check_condition_A(bd.linear_map([[0.2, 0.0], [0.0, 0.0]]),
                               ball_grid, geom, 0.25)
    assert not rep.passed
    assert abs(rep.lhs_condition - 1.8) <= 1e-12
    assert abs(rep.w_psi - 0.4) <= 1e-12

    rep2 = bd.check_condition_A(bd.linear_map([[0.02, 0.0], [0.0, 0.0]]),
                                ball_grid, geom, 0.25)
    assert rep2.passed
    assert abs(rep2.lhs_condition - 0.18) <= 1e-12

    rep3 = bd.check_condition_A(bd.constant_map([1.0, 2.0], 2), ball_grid,
                                geom, 0.25)
    assert rep3.passed and rep3.lhs_condition == 0.0 and rep3.eps == 1.0


def test_condition_A_rejects_bad_delta(ball_grid):
    geom = estimate_c0_eta0(BALL)
    psi = bd.constant_map([0.0], 2)
    with pytest.raises(bd.HypothesisError):
        bd.check_condition_A(psi, ball_grid, geom, 0.5)     # delta = delta0
    with pytest.raises(bd.HypothesisError):
        bd.check_condition_A(psi, ball_grid, geom, 0.0)


def test_condition_A_monotone_under_scaling(ball_grid):
    geom = estimate_c0_eta0(BALL)
    psi = bd.TrigMap([0.05, 0.02], [[2.0, 1.0], [0.0, 2.0]])
    rep1 = bd.check_condition_A(psi, ball_grid, geom, 0.1)
    for s in (0.5, 0.25, 0.1):
        scaled = bd.TrigMap([0.05 * s, 0.02 * s], [[2.0, 1.0], [0.0, 2.0]])
        rep_s = bd.check_condition_A(scaled, ball_grid, geom, 0.1)
        np.testing.assert_allclose(rep_s.lhs_condition,
                                   s * rep1.lhs_condition, rtol=1e-12)
        if rep1.passed:
            assert rep_s.passed


def test_condition_B_examples(box_grid):
    geom = estimate_c0_eta0(BOX)
    rep = bd.check_condition_B(bd.constant_map([3.0], 2), box_grid, geom,
                               0.1, 0.5)
    assert rep.passed and rep.lhs_condition == 0.0

    # assembled arithmetic: the whole closure at h and h/2, each figure
    # Richardson-extrapolated, plugged into the rule
    trig = bd.TrigMap([0.01, 0.004], [[2.0, 0.0], [1.0, 1.0]])
    fine = build_grid(BOX, box_grid.h / 2.0)
    (co, _, _), (fi, _, _) = (bd.sup_norms(trig, g, None) for g in (box_grid, fine))
    rep2 = bd.check_condition_B(trig, box_grid, geom, 0.1, 0.5)
    assert rep2.w_psi == bd._richardson(co.w, fi.w)
    assert rep2.sup_dpsi_band == rep2.sup_dpsi_global \
        == bd._richardson(co.sup_dpsi, fi.sup_dpsi)
    assert rep2.sup_d2psi_band == bd._richardson(co.sup_d2psi, fi.sup_d2psi)
    expected = rep2.w_psi / 0.1 + rep2.sup_dpsi_band \
        + 32 * 2 * 0.1 * rep2.sup_d2psi_band
    np.testing.assert_allclose(rep2.lhs_condition, expected, rtol=1e-14)

    # strictness: lhs exactly 1 - c fails (dyadic values keep it exact)
    lin = bd.linear_map([[0.0625, 0.0], [0.0, 0.0]])
    rep3 = bd.check_condition_B(lin, box_grid, geom, 0.125, 0.4375)
    assert rep3.lhs_condition == 1.0 - 0.4375
    assert not rep3.passed


def test_boundary_gradient_bound_values():
    norms = bd.PsiNorms(w=0.1, sup_dpsi=0.3, sup_d2psi=0.05)
    assert abs(bd.boundary_gradient_bound(norms, 0.2, 2) - 1.44) <= 1e-12
    zero = bd.PsiNorms(w=0.0, sup_dpsi=0.0, sup_d2psi=0.0)
    assert bd.boundary_gradient_bound(zero, 0.2, 2) == 0.0


def test_condition_A_pass_implies_gradient_bound_below_one(ball_grid):
    # the mu = 1 boundary estimate is exactly the first branch of the check,
    # and all of condition B's left-hand side
    geom = estimate_c0_eta0(BALL)
    rng = np.random.default_rng(19)
    for _ in range(5):
        amp = rng.uniform(0.001, 0.03, 2)
        psi = bd.TrigMap(amp, rng.uniform(-2, 2, (2, 2)))
        delta = rng.uniform(0.05, 0.4)
        rep = bd.check_condition_A(psi, ball_grid, geom, delta)
        band = bd.PsiNorms(rep.w_psi, rep.sup_dpsi_band, rep.sup_d2psi_band)
        bound = bd.boundary_gradient_bound(band, delta, 2)
        assert rep.boundary_bound == bound
        assert max(bound, rep.sup_dpsi_global) == rep.lhs_condition
        if rep.passed:
            assert bound < 1.0
    rep_b = bd.check_condition_B(psi, ball_grid, geom, delta, 0.5)
    glob = bd.PsiNorms(rep_b.w_psi, rep_b.sup_dpsi_band, rep_b.sup_d2psi_band)
    bound_b = bd.boundary_gradient_bound(glob, delta, 2)
    assert rep_b.boundary_bound == bound_b == rep_b.lhs_condition


def test_barrier_nu():
    # c0 = 0 branch drops the denominator entirely
    nu = bd.barrier_nu(0.5, 0.1, 0.0, 2, 0.3)
    np.testing.assert_allclose(nu, 4 * 2 * 0.01 * 2 * 0.3, rtol=1e-14)
    assert bd.barrier_nu(0.5, 0.1, 0.0, 2, 0.0) == 0.0
    nu2 = bd.barrier_nu(0.1, 1.0 / 32, 1.0, 2, 1.0)
    np.testing.assert_allclose(nu2, (4 * 2 * (1 / 1024) / 0.75) * (3.2 + 2),
                               rtol=1e-13)
    with pytest.raises(bd.HypothesisError):
        bd.barrier_nu(0.1, 0.5, 1.0, 2, 1.0)   # 1 - 8 c0 delta < 0


def test_refinement_pass_is_conservative(ball_grid):
    # sampled sup-norms grow on nested refinements, but the snapped h/2
    # lattice of a box is not nested (there the fine maxima of w and
    # |D2psi| fall below the coarse ones); either way the reported value
    # must dominate the raw coarse estimate
    box = DomainSpec.box([1.0, 0.7])
    k = np.array([3.0, 2.0])
    for spec, grid, psi in (
            (BALL, ball_grid, bd.TrigMap([0.3], [k])),
            (box, build_grid(box, 0.045), bd.TrigMap([0.3], [k], [0.4]))):
        geom = estimate_c0_eta0(spec)
        for delta, rep in (
                (0.1, bd.check_condition_A(psi, grid, geom, 0.1)),
                (None, bd.check_condition_B(psi, grid, geom, 0.1, 0.5))):
            coarse, glob, _ = bd.sup_norms(psi, grid, delta)
            assert rep.w_psi >= coarse.w
            assert rep.sup_dpsi_band >= coarse.sup_dpsi
            assert rep.sup_d2psi_band >= coarse.sup_d2psi
            assert rep.sup_dpsi_global >= glob
            # and, on nested lattices, stays below the analytic sup
            if spec is BALL:
                assert rep.sup_dpsi_band <= 0.3 * np.linalg.norm(k) + 1e-12


class _Counted:
    """A boundary map that tallies its jets calls."""

    def __init__(self, psi):
        self._psi = psi
        self.n, self.m, self.family = psi.n, psi.m, psi.family
        self.calls = 0

    def jets(self, pts):
        self.calls += 1
        return self._psi.jets(pts)


def test_one_sample_of_the_data_per_grid(ball_grid):
    # each checker samples psi once on the working grid and once at h/2;
    # the initial state takes its interior and pinned values in two
    # batches; monitor setup reads the checker's report and samples
    # nothing, on a box with flat faces too
    geom = estimate_c0_eta0(BALL)
    psi = _Counted(BALL_TRIG)
    rep = bd.check_condition_A(psi, ball_grid, geom, 0.1)
    assert psi.calls == 2
    psi.calls = 0
    bd.check_condition_B(psi, ball_grid, geom, 0.1, 0.5)
    assert psi.calls == 2

    psi.calls = 0
    state = flow.make_state(ball_grid, psi)
    assert psi.calls == 2
    psi.calls = 0
    flow.FlowMonitors(state, rep).star_omega_floor()
    assert psi.calls == 0

    box3 = DomainSpec.box([1.0, 0.9, 1.1], [-0.5, 0.2, 0.05])
    grid = build_grid(box3, 0.1)
    psi = _Counted(TRIG3)
    rep = bd.check_condition_A(psi, grid, estimate_c0_eta0(box3), 0.1)
    state = flow.make_state(grid, psi)
    assert rep.boundary_area > 0.0
    psi.calls = 0
    flow.FlowMonitors(state, rep)
    assert psi.calls == 0


def test_reports_compare_by_identity(ball_grid):
    # a report holds arrays: equality and hashing go by identity and
    # never raise
    geom = estimate_c0_eta0(BALL)
    rep = bd.check_condition_A(BALL_TRIG, ball_grid, geom, 0.1)
    other = bd.check_condition_A(BALL_TRIG, ball_grid, geom, 0.1)
    assert rep == rep
    assert (rep == other) is False
    assert len({rep, other}) == 2


# ---------------------------------------------------------------------------
# the screen in front of LAPACK
# ---------------------------------------------------------------------------

def test_direction_tolerance_is_relative():
    # small data is what condition A admits: the certified interval is as
    # tight, relatively, at 1e-9 as at 1
    hess = _random_hessians(3, count=20)
    for scale in (1.0, 1e-9):
        upper, lower = bd._direction_max(scale * hess)
        assert lower <= upper <= lower * (1.0 + 1e-12)
    np.testing.assert_allclose(bd._sup_hessian_norm(1e-9 * hess),
                               1e-9 * bd._sup_hessian_norm(hess), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("count", ["dense", "restarts"])
def test_direction_set(n, count):
    # the certified interval against two direction sets: a dense seeded
    # sample of unit directions (a lower bound at every point) and the
    # local maxima of a projected power iteration from 32 restarts
    m = 2 if n > 1 else 3
    hess = _seeded_hessians(n, m, seed=50 + n, count=10)
    # per point: the rule on that point's one-row stack
    upper = np.array([bd._direction_max(h[None])[0] for h in hess])
    lower = bd._direction_max(hess)[1]
    rng = np.random.default_rng(n)
    if count == "dense":
        taus = np.broadcast_to(rng.standard_normal((10_000, n)), (10, 10_000, n))
    else:
        taus = rng.standard_normal((10, 32, n))
        for _ in range(300):
            q = np.einsum("bAij,bsi,bsj->bsA", hess, taus, taus)
            taus = np.einsum("bsA,bAij,bsj->bsi", q, hess, taus)
            taus /= np.linalg.norm(taus, axis=2, keepdims=True)
    taus = taus / np.linalg.norm(taus, axis=2, keepdims=True)
    q = np.einsum("bAij,bsi,bsj->bsA", hess, taus, taus)
    found = np.linalg.norm(q, axis=2).max(axis=1)
    # (U is certified up to the rounding of its own arithmetic)
    assert (found <= upper * (1.0 + 1e-14)).all()
    if count == "restarts":
        # from 32 restarts the iteration finds the global maximum
        assert lower * (1.0 - 1e-9) <= found.max()


def _lapack_sigma(mats):
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def _lapack_abs_eig(sym):
    return np.abs(np.linalg.eigvalsh(sym)).max(axis=-1)


def _lapack_d2(hess):
    """sup|D2psi| with the direction rule run on every nonzero row: no
    lower bound lies in the screen's range, so nothing is screened."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bd, "_SCREEN_RANGE", (np.inf, np.inf))
        return bd._direction_max(hess)[0]


# the seed-0 data of the three benchmark workloads (perfbench/workloads.py):
# (psi, domains, h, delta given to sup_norms, delta of the monitors)
WORKLOADS = {
    "ball-solve": (BALL_TRIG, [BALL], 1.0 / 32, 0.1, 0.1),
    "exterior-shells": (bd.TrigMap([0.002], [[2.0, 0.5]]),
                        [DomainSpec.exterior(1.0, r, 2) for r in (9.0, 11.0, 13.0)],
                        0.203125, None, 0.012),
    "check-linear": (bd.linear_map([[0.02, -0.03], [0.01, 0.005]]), [BALL],
                     1.0 / 32, 0.1, 0.1),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_screened_reductions_match_lapack_on_every_row(name):
    # every figure the screen feeds equals, bit for bit, the reduction with
    # LAPACK run on every sample point, at the working h and at h/2
    psi, specs, h, delta, monitor_delta = WORKLOADS[name]
    for spec in specs:
        for grid in (build_grid(spec, h), build_grid(spec, h / 2)):
            vals, jac, hess = psi.jets(grid.closure_points())
            band = grid.closure_band_mask(delta)
            d1 = _lapack_sigma(jac)
            norms, glob, monitor = bd.sup_norms(psi, grid, delta,
                                                monitor_delta)
            assert norms.w == float(np.max(vals.max(axis=0) - vals.min(axis=0)))
            assert norms.sup_dpsi == float(d1[band].max())
            assert glob == float(d1.max())
            assert norms.sup_d2psi == _lapack_d2(hess[band])

            hb = hess[grid.closure_band_mask(monitor_delta)]
            d2 = [_lapack_abs_eig(hb[:, A]).max() for A in range(psi.m)]
            assert monitor[2].tolist() == d2
        # the barrier weights the report carries for the flow at h
        geom = estimate_c0_eta0(spec)
        grid = build_grid(spec, h)
        rep = (bd.check_condition_A(psi, grid, geom, monitor_delta)
               if delta is not None
               else bd.check_condition_B(psi, grid, geom, monitor_delta, 0.5))
        hb = psi.jets(grid.closure_points())[2][
            grid.closure_band_mask(monitor_delta)]
        nu = [bd.barrier_nu(rep.psi_hi[A] - rep.psi_lo[A], monitor_delta,
                            geom.c0, grid.n, _lapack_abs_eig(hb[:, A]).max())
              for A in range(psi.m)]
        assert rep.nu.tolist() == nu


def _tied(shape):
    return np.broadcast_to(np.random.default_rng(21).standard_normal(shape[1:]),
                           shape).copy()


def _tied_but_one_ulp(shape):
    # the last row's last entry one ulp up: no longer a tied stack
    mats = _tied(shape)
    mats[-1].flat[-1] = np.nextafter(mats[-1].flat[-1], np.inf)
    return mats


def _symmetric(mats):
    return mats + np.swapaxes(mats, -1, -2)


def _outside_band(shape):
    # the band rows (the first half) are a hundred times smaller
    mats = np.random.default_rng(22).standard_normal(shape)
    mats[:shape[0] // 2] *= 1e-2
    return mats


def _rank_one(shape):
    # per row a v^T (v v^T for square rows), scaled
    rng = np.random.default_rng(23)
    v = rng.standard_normal(shape[:-1])
    w = v if shape[-2] == shape[-1] else rng.standard_normal(shape[:-2] + shape[-1:])
    scale = rng.standard_normal(shape[:-2] + (1, 1))
    return scale * v[..., :, None] * w[..., None, :]


def _scaled(scale):
    return lambda shape: scale * np.random.default_rng(24).standard_normal(shape)


@pytest.mark.parametrize("make", [
    pytest.param(_tied, id="ties"),
    pytest.param(_tied_but_one_ulp, id="ties_but_one_ulp"),
    pytest.param(np.zeros, id="zero"),
    pytest.param(_outside_band, id="max_outside_band"),
    pytest.param(_rank_one, id="rank_one"),
    pytest.param(_scaled(1e-8), id="small"),
    pytest.param(_scaled(1e8), id="large"),
])
def test_screened_helpers_match_lapack_on_synthetic_stacks(make):
    B = 300
    band = np.arange(B) < B // 2
    for shape in ((B, 2, 2), (B, 2, 3), (B, 3, 3), (B, 1, 3)):
        jac = make(shape)
        d1 = bd.top_singular_values(jac, band)
        assert d1.max() == _lapack_sigma(jac).max()
        assert d1[band].max() == _lapack_sigma(jac[band]).max()
        assert (d1 <= _lapack_sigma(jac) * (1.0 + 1e-12)).all()
        if shape[1] == shape[2]:
            # the direction rule at m = 1: the largest |eigenvalue|
            sym = _symmetric(jac)
            assert (bd._sup_hessian_norm(sym[:, None])
                    == _lapack_abs_eig(sym).max())
    for m in (1, 2, 3):
        hess = _symmetric(make((B, m, 2, 2)))
        assert bd._sup_hessian_norm(hess) == _lapack_d2(hess)


@pytest.mark.parametrize("make, rows", [
    pytest.param(_tied, 1, id="ties"),
    pytest.param(_tied_but_one_ulp, 300, id="ties_but_one_ulp"),
])
def test_tied_stack_reaches_lapack_once(monkeypatch, make, rows):
    # every row of a tied stack survives the screen; LAPACK then solves one
    # of them, unless a single bit differs anywhere
    counts = _RowCount(monkeypatch)
    for shape in ((300, 2, 2), (300, 2, 3), (300, 1, 3)):
        bd.top_singular_values(make(shape), np.arange(300) < 150)
    bd._sup_hessian_norm(_symmetric(make((300, 1, 3, 3))))
    bd._sup_hessian_norm(_symmetric(make((300, 2, 2, 2))))
    assert counts.rows["svd"] == [rows] * 3
    # m = 2: the direction rule's first round solves 2 faces x 3 vertices
    assert counts.rows["eigvalsh"][:2] == [rows, 6 * rows]


class _RowCount:
    """Rows handed to each np.linalg solver, one list entry per call."""

    def __init__(self, monkeypatch):
        self.rows = {"svd": [], "eigvalsh": []}
        for name, rows in self.rows.items():
            solver = getattr(np.linalg, name)

            def counted(a, *args, _solver=solver, _rows=rows, **kwargs):
                _rows.append(a.shape[0])
                return _solver(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (3, 4)])
def test_empty_stack_reaches_no_solver(monkeypatch, m, n):
    # an empty band (no sample within delta) has sup|D2psi| = 0
    counts = _RowCount(monkeypatch)
    assert bd._sup_hessian_norm(np.zeros((0, m, n, n))) == 0.0
    assert counts.rows["eigvalsh"] == []


def test_screen_prunes_lapack_rows(monkeypatch):
    counts = _RowCount(monkeypatch)
    # zero Hessians, the shape of linear data: no eigensolve at all, and
    # the tied Jacobians reach svd as one matrix at h and at h/2
    bd._sup_hessian_norm(np.zeros((500, 2, 2, 2)))
    bd.check_condition_A(WORKLOADS["check-linear"][0], build_grid(BALL, 1.0 / 32),
                         estimate_c0_eta0(BALL), 0.1)
    assert counts.rows["eigvalsh"] == []
    assert counts.rows["svd"] == [1, 1]

    # ball-solve seed 0 at h and h/2: svd sees fewer rows than were
    # sampled, and the whole direction rule (m = 2) solves fewer vertex
    # matrices than an unscreened first round alone (6 per band row)
    grid = build_grid(BALL, 1.0 / 32)
    for g in (grid, build_closure(BALL, 1.0 / 64)):
        band = g.closure_band_mask(0.1)
        counts.rows["svd"].clear()
        counts.rows["eigvalsh"].clear()
        bd.sup_norms(BALL_TRIG, g, 0.1)
        assert len(counts.rows["svd"]) == 1
        assert 0 < counts.rows["svd"][0] < band.size
        assert 0 < sum(counts.rows["eigvalsh"]) < 6 * band.sum()
    # the barrier weights' per-component sups, formed first at h: one
    # eigensolve per component, on fewer rows than the band
    counts.rows["eigvalsh"].clear()
    bd.sup_norms(BALL_TRIG, grid, 0.1)
    checker = len(counts.rows["eigvalsh"])
    counts.rows["eigvalsh"].clear()
    bd.sup_norms(BALL_TRIG, grid, 0.1, 0.1)
    assert len(counts.rows["eigvalsh"]) == checker + 2
    band_rows = grid.closure_band_mask(0.1).sum()
    assert all(0 < r < band_rows for r in counts.rows["eigvalsh"][:2])


# eps z1^2 z2 on C^2 = R^4, and the 3-D trigonometric data of ROADMAP's
# n = 3, m = 2 check
POLY4 = bd.PolynomialMap([
    ([0.004, -0.004, -0.008], [[2, 0, 1, 0], [0, 2, 1, 0], [1, 1, 0, 1]]),
    ([0.004, -0.004, 0.008], [[2, 0, 0, 1], [0, 2, 0, 1], [1, 1, 1, 0]])], 4)
TRIG3 = bd.TrigMap([0.01, 0.005], [[2.0, 1.0, 0.5], [0.0, 2.0, 1.0]])


@pytest.mark.parametrize("psi, dim, h, delta", [
    pytest.param(POLY4, 4, 0.2, None, id="n4_polynomial_closure"),
    pytest.param(TRIG3, 3, 0.1, 0.1, id="n3_trig_band"),
])
def test_direction_rule_memory_is_chunked(monkeypatch, psi, dim, h, delta):
    # the eigensolves run in chunks whatever the number of sample points
    closure = build_closure(DomainSpec.ball(1.0, dim), h)
    hess = psi.jets(closure.closure_points())[2][closure.closure_band_mask(delta)]
    counts = _RowCount(monkeypatch)
    bd._sup_hessian_norm(hess)
    assert sum(counts.rows["eigvalsh"]) > bd._EIG_CHUNK
    assert max(counts.rows["eigvalsh"]) <= bd._EIG_CHUNK


# ---------------------------------------------------------------------------
# the monitors' figures come from the checker's sample at h
# ---------------------------------------------------------------------------

# (domain, data, h, delta, condition-B gap c or None): the disk, an
# annulus, the offset boxes of CI in 2-D and 3-D, the 3- and 4-balls, and
# the r = 9 shell, whose condition-B checker figures use the whole closure
# while the barrier's use the delta band
MONITOR_CASES = {
    "disk": (BALL, BALL_TRIG, 1.0 / 32, 0.1, None),
    "annulus": (DomainSpec.annulus(0.5, 1.0, 2),
                bd.TrigMap([0.0015, 0.001], [[2.0, 1.0], [0.0, 2.0]]),
                1.0 / 32, 0.007, None),
    "box": (DomainSpec.box([1.0, 0.7], [-0.5, -0.35]), BALL_TRIG, 1.0 / 32,
            0.1, None),
    "box3": (DomainSpec.box([1.0, 0.9, 1.1], [-0.5, 0.2, 0.05]), TRIG3, 0.1,
             0.1, None),
    "ball3": (DomainSpec.ball(1.0, 3), TRIG3, 0.1, 0.1, None),
    "ball4": (DomainSpec.ball(1.0, 4), POLY4, 1.0 / 6, 0.1, None),
    "shell9": (DomainSpec.exterior(1.0, 9.0, 2),
               WORKLOADS["exterior-shells"][0], 0.203125, 0.012, 0.5),
}


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", list(MONITOR_CASES))
def test_monitor_figures_equal_their_own_sample(monkeypatch, case):
    # the monitors read from the report what a jets call of their own on
    # the closure gives, bit for bit; the h/2 pass, which adds nothing to
    # these figures, resamples the grid itself to keep the 4-ball cheap
    spec, psi, h, delta, c = MONITOR_CASES[case]
    grid = build_grid(spec, h)
    monkeypatch.setattr(bd, "build_closure", lambda spec, h: grid)
    geom = estimate_c0_eta0(spec)
    rep = (bd.check_condition_A(psi, grid, geom, delta) if c is None
           else bd.check_condition_B(psi, grid, geom, delta, c))
    if c is not None:
        assert not grid.closure_band_mask(delta).all()
    state = flow.make_state(grid, psi)
    monitors = flow.FlowMonitors(state, rep)
    want = reference.sampled_monitor_figures(state, psi, delta)
    for name in ("nu", "omega", "psi_lo", "psi_hi", "band_psi", "band_base"):
        assert _same_bits(getattr(monitors, name), want[name]), name
    assert _same_bits(monitors.star_omega_floor(), want["star_omega_floor"])
    assert monitors.band_idx.size > 0
    # the flat-face area: the node-by-node sum on a box, 0.0 elsewhere
    area = reference.flat_face_area(grid, psi)
    assert _same_bits(rep.boundary_area, area)
    assert (area > 0.0) == (spec.kind == "box")


# (edges, lo, h): per n a box on lattice-aligned faces and an offset box
# whose spacing is snapped
AREA_BOXES = {
    "n1": ([1.0], [0.0], 0.1), "n1-offset": ([1.03], [-0.4], 0.1),
    "n2": ([1.0, 1.0], [0.0, 0.0], 1.0 / 16),
    "n2-offset": ([1.0, 0.7], [0.3, -1.2], 0.0225),
    "n3": ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 0.1),
    "n3-offset": ([1.0, 0.9, 1.1], [-0.5, 0.2, 0.05], 0.1),
    "n4": ([1.0] * 4, [0.0] * 4, 1.0 / 9),
    "n4-offset": ([1.0, 0.9, 1.1, 1.05], [-0.5, 0.2, 0.05, -0.3], 0.09),
}


@pytest.mark.parametrize("case", list(AREA_BOXES))
def test_boundary_area_is_the_node_by_node_sum(monkeypatch, case):
    # the report's flat-face area, from the checker's closure-wide jets
    # batch, equals jets at the boundary nodes alone summed node by node,
    # bit for bit; the h/2 pass resamples the grid itself
    edges, lo, h = AREA_BOXES[case]
    spec = DomainSpec.box(edges, lo)
    n = spec.dim
    psi = bd.TrigMap([0.01, 0.005], [[2.0, 1.0, 0.5, 0.3][:n],
                                     [0.0, 2.0, 1.0, 0.7][:n]], [0.0, 0.5])
    grid = build_grid(spec, h)
    monkeypatch.setattr(bd, "build_closure", lambda spec, h: grid)
    rep = bd.check_condition_A(psi, grid, estimate_c0_eta0(spec), 0.1)
    area = reference.flat_face_area(grid, psi)
    assert area > 0.0
    assert _same_bits(rep.boundary_area, area)


@pytest.mark.parametrize("c", [None, 0.5], ids=["A", "B"])
def test_h2_pass_forms_no_monitor_figure(monkeypatch, ball_grid, c):
    # the rows each direction-rule and metric call sees.  At h the barrier
    # weights add one rule call per component on the delta band and the
    # *Omega floor one metric call on the closure; the h/2 pass forms the
    # checker's figure alone
    calls = []
    rule, metric = bd._sup_hessian_norm, bd._metric_inverse
    monkeypatch.setattr(bd, "_sup_hessian_norm",
                        lambda hess: calls.append(hess.shape[:2]) or rule(hess))
    monkeypatch.setattr(bd, "_metric_inverse",
                        lambda g, n: calls.append(g[0, 0].size) or metric(g, n))
    geom = estimate_c0_eta0(BALL)
    if c is None:
        bd.check_condition_A(BALL_TRIG, ball_grid, geom, 0.1)
    else:
        bd.check_condition_B(BALL_TRIG, ball_grid, geom, 0.1, c)
    band_delta = 0.1 if c is None else None
    fine = build_closure(BALL, ball_grid.h / 2.0)
    band = ball_grid.closure_band_mask(0.1).sum()
    assert calls == [ball_grid.closure_band_mask(None).size,
                     (band, 1), (band, 1),
                     (ball_grid.closure_band_mask(band_delta).sum(), 2),
                     (fine.closure_band_mask(band_delta).sum(), 2)]
