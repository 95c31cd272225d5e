"""Time stepping, monitors, barrier fields and the invariant suite."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as jets
from mssflow import boundary as bd, flow, shrinker
from mssflow.domains import DomainSpec, estimate_c0_eta0
from mssflow.grid import build_grid

BALL = DomainSpec.ball(1.0, 2)
SMALL_TRIG = bd.TrigMap([0.01, 0.005], [[2.0, 1.0], [0.0, 2.0]], [0.0, 0.5])


@pytest.fixture(scope="module")
def ball_run():
    """Shared condition-(A) run on the ball, reused by several tests."""
    grid = build_grid(BALL, 1.0 / 16)
    geom = estimate_c0_eta0(BALL)
    rep = bd.check_condition_A(SMALL_TRIG, grid, geom, 0.1)
    assert rep.passed
    state = flow.make_state(grid, SMALL_TRIG)
    monitors = flow.FlowMonitors(state, eps=rep.eps, delta=0.1)
    final, records, outcome = flow.run_to_steady(
        state, 1e-6, 100_000, 25, monitors=monitors)
    assert outcome == "Converged"
    return grid, rep, state, monitors, final, records


# ---------------------------------------------------------------------------
# discrete jets
# ---------------------------------------------------------------------------

def test_jet_at_exact_on_affine_data():
    grid = build_grid(BALL, 1.0 / 16)
    A = [[0.25, -0.1], [0.0, 0.3]]
    state = flow.make_state(grid, bd.linear_map(A, offset=[0.2, 0.0]))
    J, H = jets.jets_all(state)
    k = grid.num_interior // 2
    np.testing.assert_allclose(J[k], A, atol=1e-12)
    np.testing.assert_allclose(H[k], 0.0, atol=1e-12)


@pytest.mark.parametrize("spec, h", [
    (DomainSpec.box([1.0, 1.0]), 1.0 / 16),
    (BALL, 1.0 / 8),                                # smallest arm 0.13 h
    (DomainSpec.annulus(0.5, 1.5, 2), 1.0 / 10),    # smallest arm 0.08 h
], ids=["box", "ball", "annulus"])
def test_jet_at_exact_on_quadratics(spec, h):
    # three-point differences, clipped or not, are exact on quadratics
    grid = build_grid(spec, h)
    poly = bd.PolynomialMap([([0.5, 0.25, -0.3], [[2, 0], [1, 1], [0, 2]]),
                             ([-0.2, 0.4, 0.1], [[2, 0], [1, 1], [0, 2]])], 2)
    state = flow.make_state(grid, poly)
    J, H = jets.jets_all(state)
    _, ja, ha = poly.jets(grid.interior_pos)
    np.testing.assert_allclose(J, ja, rtol=0, atol=1e-10)
    np.testing.assert_allclose(H, ha, rtol=0, atol=1e-10)


def test_jet_richardson_order_two():
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        grid = build_grid(DomainSpec.box([1.0, 1.0]), h)
        trig = bd.TrigMap([1.0], [[np.pi, 0.0]])
        state = flow.make_state(grid, trig)
        _, H = jets.jets_all(state)
        _, _, ha = trig.jets(grid.interior_pos)
        errs.append(np.abs(H - ha).max())
    assert errs[0] / errs[1] > 3.5


_ORACLE_GRIDS = {}


def _oracle_grid(kind, n):
    """Small box / ball grids, cached: box grids cut arms onto face nodes,
    ball grids clip arms and interpolate near-boundary nodes."""
    if (kind, n) not in _ORACLE_GRIDS:
        spec = DomainSpec.box([1.0] * n) if kind == "box" else DomainSpec.ball(1.0, n)
        h = {1: 1.0 / 16, 2: 1.0 / 10, 3: 1.0 / 9}[n] if kind == "box" \
            else {1: 1.0 / 8, 2: 1.0 / 8, 3: 0.2}[n]
        _ORACLE_GRIDS[(kind, n)] = build_grid(spec, h)
    return _ORACLE_GRIDS[(kind, n)]


@st.composite
def _oracle_maps(draw, n, m):
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        amps = [draw(st.floats(-0.6, 0.6)) for _ in range(m)]
        waves = [[draw(st.floats(-3.0, 3.0)) for _ in range(n)] for _ in range(m)]
        phases = [draw(st.floats(0.0, 2.0 * np.pi)) for _ in range(m)]
        return bd.TrigMap(amps, waves, phases)
    terms = []
    for _ in range(m):
        expos = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                              .filter(lambda e: sum(e) <= 4),
                              min_size=1, max_size=4))
        terms.append(([draw(unit) for _ in expos], expos))
    return bd.PolynomialMap(terms, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_field_kernel_matches_pointwise_reference(data):
    """compute_fields, FlowMonitors.record, shrinker_residual_field and
    dissipation_rate agree with the pointwise reference evaluated on the
    discrete jets."""
    kind = data.draw(st.sampled_from(["box", "ball"]))
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    grid = _oracle_grid(kind, n)
    psi = data.draw(_oracle_maps(n, m))
    c = data.draw(st.floats(0.0, 1.0))
    eps = data.draw(st.floats(0.05, 1.0))
    state = flow.make_state(grid, psi)
    bundle = flow.compute_fields(state)
    shrink = shrinker.shrinker_residual_field(state, c)
    J, H = jets.jets_all(state)
    pointwise = [jets.PointJet(x=grid.interior_pos[k], value=state.f[k],
                               jac=J[k], hess=H[k])
                 for k in range(grid.num_interior)]

    cut = (grid.arm_src >= grid.num_interior).any(axis=(0, 1))
    nodes = data.draw(st.lists(st.sampled_from(np.nonzero(cut)[0].tolist()),
                               min_size=1, max_size=3))
    nodes += data.draw(st.lists(st.integers(0, grid.num_interior - 1),
                                min_size=1, max_size=3))
    for k in nodes:
        jet = pointwise[k]
        metric = jets.induced_metric(jet)
        hscale = 1.0 + np.abs(jet.hess).max()
        np.testing.assert_allclose(bundle.residual[k], jets.mss_residual(jet),
                                   rtol=0, atol=1e-12 * hscale)
        np.testing.assert_allclose(bundle.detg[k], metric.detg, rtol=1e-12)
        np.testing.assert_allclose(bundle.ginv[k], metric.ginv, rtol=0, atol=1e-12)
        lam_sq = jets.singular_values(jet)[0] ** 2
        np.testing.assert_allclose(bundle.lam_max_sq[k], lam_sq,
                                   rtol=0, atol=1e-12 * (1.0 + lam_sq))
        xscale = hscale + np.abs(jet.x).max() + np.abs(jet.value).max()
        np.testing.assert_allclose(shrink[k], jets.shrinker_residual(jet, c),
                                   rtol=0, atol=1e-12 * xscale)

    # monitors: the minima of *Omega and of the strict-margin tensor
    lams = [jets.singular_values(jet) for jet in pointwise]
    diss = flow.dissipation_rate(state, bundle)
    rec = flow.FlowMonitors(state, eps=eps).record(state, bundle, 1.0, diss, 0.0)
    tol = 1e-12 * (1.0 + max(lam[0] ** 2 for lam in lams))
    assert abs(rec.min_star_omega - min(map(jets.star_omega, lams))) <= tol
    assert abs(rec.min_p_eig
               - min(jets.p_tensor_min_eig(lam, eps) for lam in lams)) <= tol

    # dissipation: the same cut-cell quadrature of the pointwise |H|^2
    hsq = np.array([jets.mean_curvature(jet)[1] for jet in pointwise])
    sqrt_detg = np.sqrt([jets.induced_metric(jet).detg for jet in pointwise])
    hmax_sq = np.abs(H).max(axis=(1, 2, 3)) ** 2
    hsq[grid.dep_idx] = hsq[grid.dep_opp]
    weights = sqrt_detg * grid.cell_frac * grid.cellvol
    scale = float((hmax_sq * weights).sum()) + 1e-290    # subnormal floor
    np.testing.assert_allclose(diss, float((hsq * weights).sum()),
                               rtol=0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_bundle_is_unchanged_by_later_calls():
    # the top eigenvalue is computed on first read, after other states ran
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, SMALL_TRIG)
    bundle = flow.compute_fields(state)
    dt = flow.stable_dt(grid, 0.9)
    other = flow.make_state(
        grid, bd.TrigMap([0.2, -0.1], [[1.0, 3.0], [2.0, 0.0]]))
    for _ in range(3):
        other = flow.super_step(other, flow.compute_fields(other), dt, 10,
                                other.t + 10 * dt)
    flow.super_step(state, flow.compute_fields(state), dt, 10, 10 * dt)
    fresh = flow.compute_fields(state)
    assert np.array_equal(bundle.lam_max_sq, fresh.lam_max_sq)
    assert np.array_equal(bundle.residual, fresh.residual)
    assert all(np.array_equal(a, b) for a, b in zip(bundle.jac, fresh.jac))
    assert bundle.gi.keys() == fresh.gi.keys()
    assert all(np.array_equal(bundle.gi[p], fresh.gi[p]) for p in bundle.gi)
    assert np.array_equal(bundle.detg, fresh.detg)


def test_step_linear_data_is_stationary():
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, bd.linear_map([[0.2, -0.1], [0.05, 0.3]]))
    dt = flow.stable_dt(grid, 0.9)
    new = flow.euler_step(state, flow.compute_fields(state), dt, dt)
    assert new.t == dt
    assert np.abs(new.f - state.f).max() <= 1e-14
    assert flow.compute_fields(new).residual_sup <= 1e-12


def test_step_constant_data_is_exact_fixed_point():
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, bd.constant_map([0.7, -0.2], 2))
    dt = flow.stable_dt(grid, 0.9)
    new = flow.euler_step(state, flow.compute_fields(state), dt, dt)
    assert np.array_equal(new.f, state.f)


def test_sin_decay_matches_heat_scheme_at_small_amplitude():
    amp = 1e-3
    grid = build_grid(DomainSpec.box([1.0]), 1.0 / 32)
    psi = bd.TrigMap([amp], [[np.pi]])
    state = flow.make_state(grid, psi)
    dt = flow.stable_dt(grid, 0.9)
    # reference: plain heat stepping with unit diffusion on the same grid
    x = grid.interior_pos[:, 0]
    u = amp * np.sin(np.pi * x)
    h = grid.hs[0]
    sup_prev = np.abs(state.f).max()
    for _ in range(200):
        state = flow.euler_step(state, flow.compute_fields(state), dt,
                                state.t + dt)
        up = np.concatenate([u[1:], [0.0]])
        um = np.concatenate([[0.0], u[:-1]])
        u = u + dt * (up - 2 * u + um) / h ** 2
        sup = np.abs(state.f).max()
        assert sup < sup_prev          # strict decay per step
        sup_prev = sup
    assert np.abs(state.f[:, 0] - u).max() <= 5e-4 * amp


@pytest.mark.parametrize("n, s", [(1, 1), (25, 7), (500, 32)])
def test_super_step_multiplies_sin_mode_by_legendre_value(n, s):
    """At small amplitude the flow is the heat equation, and the discrete
    sin mode is an eigenvector with lambda_h = -(4/h^2) sin^2(pi h/2); one
    RKL1 super-step of s stages multiplies it by P_s(1 + w lambda_h)."""
    amp = 1e-3
    grid = build_grid(DomainSpec.box([1.0]), 1.0 / 32)
    state = flow.make_state(grid, bd.TrigMap([amp], [[np.pi]]))
    bundle = flow.compute_fields(state)
    dt = flow.stable_dt(grid, 0.9)
    new = flow.super_step(state, bundle, dt, n, n * dt)
    h = grid.hs[0]
    lam = -(4.0 / h ** 2) * np.sin(np.pi * h / 2) ** 2
    w = 2.0 * n * dt / (s * (s + 1))
    factor = np.polynomial.legendre.Legendre.basis(s)(1.0 + w * lam)
    assert new.t == n * dt
    np.testing.assert_allclose(new.f, factor * state.f, rtol=0, atol=1e-6 * amp)
    if n == 1:
        assert np.array_equal(new.f, flow.euler_step(state, bundle, dt, dt).f)


def test_run_to_steady_constant_converges_in_zero_steps():
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, bd.constant_map([1.5], 2))
    final, records, outcome = flow.run_to_steady(state, 1e-6, 100, 10)
    assert outcome == "Converged"
    assert final.t == 0.0 and len(records) == 1


def test_blow_up_guard():
    grid = build_grid(BALL, 1.0 / 16)
    steep = flow.make_state(grid, bd.linear_map([[20.0, 0.0], [0.0, 0.0]]))
    _, _, outcome = flow.run_to_steady(steep, 1e-6, 100, 10)
    assert outcome == "BlowUp"


def test_blow_up_guard_checks_the_last_super_step():
    # the one-step budget ends on the first state above the guard
    ball = DomainSpec.ball(1.0, 4)
    state = flow.make_state(build_grid(ball, 0.2), bd.lawson_osserman_map(12.0))
    assert flow.compute_fields(state).max_lambda < 23.88
    _, _, outcome = flow.run_to_steady(state, 1e-6, 1, 1, lambda_guard=23.88)
    assert outcome == "BlowUp"


def test_converged_state_is_discrete_fixed_point(ball_run):
    _, _, _, _, final, records = ball_run
    dt = records[-1].step_dt
    stepped = flow.euler_step(final, flow.compute_fields(final), dt, final.t + dt)
    assert np.abs(stepped.f - final.f).max() < dt * 1e-6


def test_super_steps_converge_to_the_explicit_euler_state(ball_run):
    # monitor_every = 1 takes one explicit Euler step per super-step; both
    # runs stop within tol_residual / lambda_1 of the discrete steady state,
    # lambda_1 = 5.78 the unit disk's first Dirichlet eigenvalue
    grid, _, _, _, final, _ = ball_run
    euler, _, outcome = flow.run_to_steady(flow.make_state(grid, SMALL_TRIG),
                                           1e-6, 100_000, 1)
    assert outcome == "Converged"
    assert np.abs(final.f - euler.f).max() <= 1e-6 / 5.78


def test_step_budget_ends_on_the_last_explicit_step():
    grid = build_grid(BALL, 1.0 / 16)
    state0 = flow.make_state(grid, SMALL_TRIG, t=0.25)
    dt = flow.stable_dt(grid, 0.9)
    final, records, outcome = flow.run_to_steady(state0, 1e-9, 60, 25)
    assert outcome == "MaxSteps"
    assert final.t == state0.t + 60 * dt
    assert [r.t for r in records] == [state0.t + k * dt for k in (0, 25, 50, 60)]


def test_determinism_of_runs():
    grid = build_grid(BALL, 1.0 / 16)
    outs = []
    for _ in range(2):
        state = flow.make_state(grid, SMALL_TRIG)
        final, records, _ = flow.run_to_steady(state, 1e-4, 5000, 50)
        outs.append((final.f.copy(), [r.csv_row() for r in records]))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


# ---------------------------------------------------------------------------
# monitors, barrier, invariants
# ---------------------------------------------------------------------------

def test_monitor_record_csv_columns():
    assert flow.MonitorRecord.CSV_COLUMNS == (
        "t", "max_lambda", "min_star_omega", "min_p_eig", "area",
        "dissipation", "residual_sup", "boundary_grad_sup", "barrier_min",
        "dt")


def test_barrier_fields_at_initial_time():
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, SMALL_TRIG)
    monitors = flow.FlowMonitors(state, delta=0.1)
    S, S_mirror = monitors.barrier_fields(state)
    # with f = psi both fields reduce to nu log(1 + k d) + (omega/delta) d
    assert S.shape == S_mirror.shape == (monitors.band_idx.size, 2)
    assert monitors.band_idx.size > 0
    assert S.min() >= 0.0 and S_mirror.min() >= 0.0
    np.testing.assert_allclose(S, S_mirror, atol=1e-15)
    eta0 = estimate_c0_eta0(BALL).eta0
    for delta in (0.0, -0.1, eta0 * 1.01):
        with pytest.raises(ValueError, match="outside"):
            flow.FlowMonitors(state, delta=delta)


def test_barrier_stays_nonnegative_along_flow(ball_run):
    _, _, _, monitors, final, records = ball_run
    for rec in records:
        assert rec.barrier_min >= -1e-12
    S, S_mirror = monitors.barrier_fields(final)
    assert min(S.min(), S_mirror.min()) >= 0.0
    assert records[-1].barrier_min == min(S.min(), S_mirror.min())


def test_invariant_suite_passes_on_ball_run(ball_run):
    _, rep, _, monitors, _, records = ball_run
    report = flow.check_invariants(records, monitors, rep.boundary_bound)
    assert report.passed, [c.detail for c in report.clauses if not c.passed]
    assert len(report.clauses) == 6


FAULTS = {
    "max_lambda_le_1_minus_eps": lambda r, mon: {"max_lambda": 1.5},
    "star_omega_floor": lambda r, mon: {"min_star_omega": 0.0},
    "p_tensor_nonnegative": lambda r, mon: {"min_p_eig": -1.0},
    "max_principle": lambda r, mon: {"comp_max": mon.psi_hi + 1e-9},
    "area_dissipation_consistency": lambda r, mon: {"area": r.area + 1.0},
    "boundary_gradient_bound": lambda r, mon: {"boundary_grad_sup": 10.0},
}


@pytest.mark.parametrize("clause", FAULTS)
def test_invariant_fault_injection(ball_run, clause):
    # one corrupted record field trips exactly the clause that reads it
    _, rep, _, monitors, _, records = ball_run
    corrupted = list(records)
    corrupted[3] = dataclasses.replace(
        records[3], **FAULTS[clause](records[3], monitors))
    report = flow.check_invariants(corrupted, monitors, rep.boundary_bound)
    assert [c.name for c in report.clauses if not c.passed] == [clause]


def test_grid_refinement_second_order_interior():
    # steady states at h and h/2 against the h/4 reference; uniform
    # stencils keep the interior cleanly second order
    spec = DomainSpec.box([1.0, 1.0])
    psi = bd.TrigMap([0.02, 0.01], [[2.0, 1.0], [1.0, 2.0]])
    solutions = {}
    for h in (1.0 / 16, 1.0 / 32, 1.0 / 64):
        grid = build_grid(spec, h)
        state = flow.make_state(grid, psi)
        final, _, outcome = flow.run_to_steady(state, 1e-10, 400_000, 1000)
        assert outcome == "Converged"
        index = {tuple(c): k for k, c in enumerate(grid.lattice_coords().tolist())}
        solutions[h] = (final, index)

    coarse_coords = solutions[1.0 / 16][0].grid.lattice_coords()
    ref, ref_index = solutions[1.0 / 64]
    errs = {}
    for h, ratio in ((1.0 / 16, 1), (1.0 / 32, 2)):
        final, idx = solutions[h]
        worst = 0.0
        for c in coarse_coords.tolist():
            k = idx[tuple(ratio * a for a in c)]
            k_ref = ref_index[tuple(4 * a for a in c)]
            worst = max(worst, np.abs(final.f[k] - ref.f[k_ref]).max())
        errs[h] = worst
    assert errs[1.0 / 16] / errs[1.0 / 32] >= 3.5
