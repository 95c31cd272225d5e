"""Time stepping, monitors, barrier fields and the invariant suite."""

import dataclasses
import os
import pathlib
import subprocess
import sys

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
    monitors = flow.FlowMonitors(state, rep)
    final, records, outcome = flow.run_to_steady(
        state, 1e-6, 100_000, 25, monitors)
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
    rec = jets.flow_monitors(state, psi, eps=eps).record(state, bundle, 1.0,
                                                         diss, 0.0)
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
                                other.t + 10 * dt, 1.0)
    flow.super_step(state, flow.compute_fields(state), dt, 10, 10 * dt, 1.0)
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
    new = flow.super_step(state, flow.compute_fields(state), dt, 1, dt, 1.0)
    assert new.t == dt
    assert np.abs(new.f - state.f).max() <= 1e-14
    assert flow.compute_fields(new).residual_sup <= 1e-12


def test_step_constant_data_is_exact_fixed_point():
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, bd.constant_map([0.7, -0.2], 2))
    dt = flow.stable_dt(grid, 0.9)
    new = flow.super_step(state, flow.compute_fields(state), dt, 1, dt, 1.0)
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
        state = flow.super_step(state, flow.compute_fields(state), dt, 1,
                                state.t + dt, 1.0)
        up = np.concatenate([u[1:], [0.0]])
        um = np.concatenate([[0.0], u[:-1]])
        u = u + dt * (up - 2 * u + um) / h ** 2
        sup = np.abs(state.f).max()
        assert sup < sup_prev          # strict decay per step
        sup_prev = sup
    assert np.abs(state.f[:, 0] - u).max() <= 5e-4 * amp


@pytest.mark.parametrize("n, s, frac", [
    (1, 1, 1.0), (25, 7, 1.0), (500, 32, 1.0), (500, 27, 0.75),
], ids=["1-1", "25-7", "500-32", "500-27-frac0.75"])
def test_super_step_multiplies_sin_mode_by_legendre_value(n, s, frac):
    """At small amplitude the flow is the heat equation, and the discrete
    sin mode is an eigenvector with lambda_h = -(4/h^2) sin^2(pi h/2); one
    RKL1 super-step of s stages multiplies it by P_s(1 + w lambda_h)."""
    amp = 1e-3
    grid = build_grid(DomainSpec.box([1.0]), 1.0 / 32)
    state = flow.make_state(grid, bd.TrigMap([amp], [[np.pi]]))
    bundle = flow.compute_fields(state)
    dt = flow.stable_dt(grid, 0.9)
    assert flow.stage_count(n, frac) == s
    new = flow.super_step(state, bundle, dt, n, n * dt, frac)
    h = grid.hs[0]
    lam = -(4.0 / h ** 2) * np.sin(np.pi * h / 2) ** 2
    w = 2.0 * n * dt / (s * (s + 1))
    factor = np.polynomial.legendre.Legendre.basis(s)(1.0 + w * lam)
    assert new.t == n * dt
    np.testing.assert_allclose(new.f, factor * state.f, rtol=0, atol=1e-6 * amp)
    if n == 1:
        assert np.array_equal(new.f, _euler_step(state, bundle, dt))


def _euler_step(state, bundle, dt):
    """One explicit Euler step, with the interpolated nodes following
    their rule u_q + (u_b - u_q) / (1 + t)."""
    grid = state.grid
    euler = state.f + dt * bundle.residual
    uq, ub = euler[grid.dep_opp], state.pinned[grid.dep_pin]
    euler[grid.dep_idx] = uq + (ub - uq) / (1.0 + grid.dep_t[:, None])
    return euler


def test_one_stage_super_step_interpolates_the_disk_nodes():
    # the 1-D box has no interpolated nodes; the h = 1/32 disk has them,
    # so here the rule of the one-stage check compares rows
    grid = build_grid(BALL, 1.0 / 32)
    assert grid.dep_idx.size > 0
    state = flow.make_state(grid, SMALL_TRIG)
    bundle = flow.compute_fields(state)
    dt = flow.stable_dt(grid, 0.9)
    new = flow.super_step(state, bundle, dt, 1, dt, 1.0)
    assert np.array_equal(new.f, _euler_step(state, bundle, dt))


# z1^2 z2 = (x1 + i x2)^2 (x3 + i x4) on the unit 4-ball, plus a bump
_Z1SQ_Z2 = bd.PolynomialMap([
    ([0.004, -0.004, -0.008, 0.005, -0.005, -0.005, -0.005, -0.005],
     [[2, 0, 1, 0], [0, 2, 1, 0], [1, 1, 0, 1], [0, 0, 0, 0], [2, 0, 0, 0],
      [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]),
    ([0.004, -0.004, 0.008], [[2, 0, 0, 1], [0, 2, 0, 1], [1, 1, 1, 0]])], 4)


@pytest.mark.parametrize("spec, h, psi", [
    (BALL, 1.0 / 32, SMALL_TRIG),
    (DomainSpec.box([1.0]), 1.0 / 32, bd.TrigMap([0.3], [[np.pi]])),
    (DomainSpec.ball(1.0, 4), 1.0 / 6, _Z1SQ_Z2),
], ids=["ball-trig", "box-1d", "ball-4d-polynomial"])
def test_reused_weights_give_the_residual_bit_for_bit(spec, h, psi):
    # a stage given its own state's pair weights runs the Hessian-only pass
    # and the same accumulation as compute_fields
    state = flow.make_state(build_grid(spec, h), psi)
    bundle = flow.compute_fields(state)
    stage = flow.compute_fields(state, bundle.weights)
    assert stage.jac is None and stage.gi is None
    assert np.array_equal(stage.residual, bundle.residual)


def test_differences_form_the_mixed_pairs_only_when_asked():
    # the estimator's pass forms only the pairs (i, i), bit for bit those
    # of the default pass, which forms every pair
    for spec, h in ((DomainSpec.ball(1.0, 3), 0.2),
                    (DomainSpec.annulus(0.5, 1.5, 2), 1.0 / 16)):
        n = spec.dim
        psi = bd.TrigMap([0.3, -0.2],
                         [[1.0, 2.0, -1.5][:n], [0.5, -1.0, 2.0][:n]])
        state = flow.make_state(build_grid(spec, h), psi)
        J, H = flow._differences(state)
        assert len(J) == n
        assert sorted(H) == [(i, j) for i in range(n) for j in range(i, n)]
        none, diag = flow._differences(state, jacobian=False, mixed=False)
        assert none is None and sorted(diag) == [(i, i) for i in range(n)]
        assert all(np.array_equal(H[p], diag[p]) for p in diag)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _same_bits(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[p], b[p]) for p in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    return np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("spec, h", [
    (DomainSpec.box([1.0, 0.7], lo=[-0.5, -0.35]), 1.0 / 32),
    (BALL, 1.0 / 32),
    (DomainSpec.annulus(0.5, 1.5, 2), 1.0 / 16),
    (DomainSpec.exterior(1.0, 9.0, 2), 0.203125),
    (DomainSpec.box([1.0]), 1.0 / 32),
    (DomainSpec.ball(1.0, 3), 0.2),
    (DomainSpec.ball(1.0, 4), 1.0 / 6),
], ids=["offset-box", "disk", "annulus", "shell-9", "box-1d", "ball-3d",
        "ball-4d"])
def test_stepped_state_gives_the_bundle_of_its_values(spec, h, m):
    # super_step writes every stage into its own state's buffer; the same
    # values copied into a new state give the same bundle, bit for bit,
    # from a full call and from a call with given weights
    n = spec.dim
    psi = bd.TrigMap([0.02, -0.01, 0.015][:m],
                     [[1.0 + A - 0.5 * i for i in range(n)] for A in range(m)],
                     [0.3 * A for A in range(m)])
    grid = build_grid(spec, h)
    state = flow.make_state(grid, psi)
    dt = flow.stable_dt(grid, 0.9)
    # six steps in three stages: the given fields, reused weights, a metric
    stepped = flow.super_step(state, flow.compute_fields(state), dt, 6,
                              6 * dt, 1.0)
    assert not np.array_equal(stepped.f, state.f)
    copied = state.replace_values(stepped.f.copy(), stepped.t)
    assert _same_bits(stepped.buf, copied.buf)
    full = [flow.compute_fields(s) for s in (stepped, copied)]
    given = [flow.compute_fields(s, full[0].weights)
             for s in (stepped, copied)]
    for a, b in (full, given):
        for name in ("residual", "residual_sq", "weights"):
            assert _same_bits(getattr(a, name), getattr(b, name)), name
    a, b = full
    for name in ("jac", "g", "gi", "detg", "sqrt_detg", "lam_max_sq"):
        assert _same_bits(getattr(a, name), getattr(b, name)), name
    assert _same_bits(given[0].residual, full[0].residual)


def test_super_step_builds_the_metric_on_every_second_stage(monkeypatch):
    # s = 32 stages: stage 1 takes the given bundle (call 0), stage 2
    # reuses its weights, and stages 3, 5, ..., 31 build the metric that
    # stages 4, 6, ..., 32 reuse; stage j is call j - 1
    grid = build_grid(DomainSpec.box([1.0]), 1.0 / 32)
    state = flow.make_state(grid, bd.TrigMap([0.3], [[np.pi]]))
    compute = flow.compute_fields
    calls = []      # (bundle, the call whose weights it reused, or None)

    def spy(cur, weights=None):
        out = compute(cur, weights)
        calls.append((out, None if weights is None else next(
            k for k, (b, _) in enumerate(calls) if b.weights is weights)))
        return out

    monkeypatch.setattr(flow, "compute_fields", spy)
    dt = flow.stable_dt(grid, 0.9)
    flow.super_step(state, flow.compute_fields(state), dt, 500, 500 * dt, 1.0)
    assert [src for _, src in calls] == [None if k % 2 == 0 else k - 1
                                         for k in range(32)]


def _dense_operator(grid):
    """The estimator's operator as a dense matrix over the stepped rows,
    built from the arm lengths: the three-point second difference of
    every axis with zero pinned ends, an interpolated end replaced by
    t / (1 + t) times its inward neighbour."""
    K, h = grid.num_interior, grid.hs
    full = np.zeros((K, K + grid.pinned_pos.shape[0]))
    rows = np.arange(K)
    for i in range(grid.n):
        tp, tm = grid.arm_theta[i]
        denom = tp * tm * (tp + tm) * h[i] ** 2
        np.add.at(full, (rows, grid.arm_src[i, 0]), 2.0 * tm / denom)
        np.add.at(full, (rows, grid.arm_src[i, 1]), 2.0 * tp / denom)
        full[rows, rows] -= 2.0 * (tp + tm) / denom
    assert grid.stepped[grid.dep_opp].all()
    extend = np.eye(K)
    extend[grid.dep_idx] = 0.0
    extend[grid.dep_idx, grid.dep_opp] = grid.dep_t / (1.0 + grid.dep_t)
    stepped = np.nonzero(grid.stepped)[0]
    return (full[:, :K] @ extend)[np.ix_(stepped, stepped)]


@pytest.mark.parametrize("spec, h, exact_dt_rho", [
    (BALL, 1.0 / 16, 1.4983),
    (DomainSpec.box([1.0]), 1.0 / 32, 1.7957),
], ids=["disk-16", "box-1d-32"])
def test_spectral_radius_estimate_brackets_the_exact_radius(spec, h,
                                                            exact_dt_rho):
    # the power iteration reads at most the spectral radius and within
    # 0.5% of it, so the margin RHO_MARGIN lifts it above: against the
    # dense spectrum on the disk and (4/h^2) cos^2(pi h/2) on the 1-D box
    grid = build_grid(spec, h)
    if spec.kind == "box":
        exact = 4.0 / grid.hs[0] ** 2 * np.cos(np.pi * grid.hs[0] / 2) ** 2
        assert np.abs(np.linalg.eigvals(_dense_operator(grid))).max() \
            == pytest.approx(exact, rel=1e-12)
    else:
        exact = np.abs(np.linalg.eigvals(_dense_operator(grid))).max()
    dt = flow.stable_dt(grid, 0.9)
    assert dt * exact == pytest.approx(exact_dt_rho, abs=1e-4)
    rho, top = flow._top_mode(grid)
    assert 0.995 * exact <= rho <= exact
    assert flow.RHO_MARGIN * rho >= exact
    assert np.linalg.norm(top[grid.stepped]) == pytest.approx(1.0)
    frac = flow.stage_fraction(grid, dt)
    assert grid.rho_estimate == rho
    assert frac == min(1.0, flow.RHO_MARGIN * (dt * rho) / 2.0)
    if spec.kind == "box":
        # near the row-sum bound: c ~ 0.99 keeps a 25-step super-step's 7
        assert frac == pytest.approx(0.99, abs=0.005)
        assert flow.stage_count(25, frac) == flow.stage_count(25, 1.0) == 7


def test_stage_fraction_sizes_a_stable_super_step():
    # the estimator's top vector at small amplitude: one 500-step
    # super-step at the chosen fraction does not grow it, one sized at
    # half that fraction does
    grid = build_grid(BALL, 1.0 / 32)
    dt = flow.stable_dt(grid, 0.9)
    frac = flow.stage_fraction(grid, dt)
    assert [flow.stage_count(500, c) for c in (1.0, frac, 0.5 * frac)] \
        == [32, 27, 19]
    _, top = flow._top_mode(grid)
    state = flow.GraphState(grid=grid, t=0.0, f=1e-6 * top,
                            pinned=np.zeros((grid.pinned_pos.shape[0], 1)))
    norm = np.linalg.norm(state.f[grid.stepped])
    grown = []
    for c in (frac, 0.5 * frac):
        new = flow.super_step(state, flow.compute_fields(state), dt, 500,
                              500 * dt, c)
        grown.append(np.linalg.norm(new.f[grid.stepped]) / norm)
    assert grown[0] <= 1.0 < grown[1]


def test_stage_fraction_rejects_an_unstable_step():
    # 1.5 times the stable step puts dt rho near 2.69 on the 1-D box
    grid = build_grid(DomainSpec.box([1.0]), 1.0 / 32)
    dt = flow.stable_dt(grid, 0.9)
    assert flow.stage_fraction(grid, dt) < 1.0
    with pytest.raises(ValueError, match="unstable"):
        flow.stage_fraction(grid, 1.5 * dt)


def test_spectral_radius_estimate_ignores_the_blas_thread_count():
    # the r = 13 shell of the criterion-7 exterior run: BLAS splits long
    # dot products across its threads, so a norm taken through BLAS moved
    # the estimate's last digits with the thread count
    code = ("from mssflow import flow; from mssflow.domains import DomainSpec; "
            "from mssflow.grid import build_grid; "
            "print(repr(flow._top_mode(build_grid("
            "DomainSpec.exterior(1.0, 13.0, 2), 0.203125))[0]))")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        printed.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True).stdout)
    assert printed[0] == printed[1]
    assert float(printed[0]) == pytest.approx(193.68063472, rel=1e-10)


@pytest.mark.parametrize("tol, max_steps, monitor_every, match", [
    (0.0, 100, 10, "tol_residual"),
    (1e-6, -1, 10, "max_steps"),
    (1e-6, 100, 0, "monitor_every"),
    (1e-6, 100, -5, "monitor_every"),
], ids=["tol-zero", "max-steps-negative", "monitor-every-zero",
        "monitor-every-negative"])
def test_run_to_steady_rejects_bad_arguments(tol, max_steps, monitor_every,
                                             match):
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, SMALL_TRIG)
    with pytest.raises(ValueError, match=match):
        flow.run_to_steady(state, tol, max_steps, monitor_every,
                           jets.flow_monitors(state, SMALL_TRIG))


def test_run_to_steady_constant_converges_in_zero_steps():
    grid = build_grid(BALL, 1.0 / 16)
    psi = bd.constant_map([1.5], 2)
    state = flow.make_state(grid, psi)
    final, records, outcome = flow.run_to_steady(
        state, 1e-6, 100, 10, jets.flow_monitors(state, psi))
    assert outcome == "Converged"
    assert final.t == 0.0 and len(records) == 1


def test_blow_up_guard():
    grid = build_grid(BALL, 1.0 / 16)
    psi = bd.linear_map([[20.0, 0.0], [0.0, 0.0]])
    steep = flow.make_state(grid, psi)
    _, _, outcome = flow.run_to_steady(steep, 1e-6, 100, 10,
                                       jets.flow_monitors(steep, psi))
    assert outcome == "BlowUp"


def test_blow_up_guard_checks_the_last_super_step(monkeypatch):
    # the one-step budget ends on the first state above the guard
    ball = DomainSpec.ball(1.0, 4)
    psi = bd.lawson_osserman_map(12.0)
    state = flow.make_state(build_grid(ball, 0.2), psi)
    assert flow.compute_fields(state).max_lambda < 23.88
    monkeypatch.setattr(flow, "LAMBDA_GUARD", 23.88)
    _, _, outcome = flow.run_to_steady(state, 1e-6, 1, 1,
                                       jets.flow_monitors(state, psi))
    assert outcome == "BlowUp"


def test_guard_precedes_tolerance_after_a_super_step(monkeypatch):
    # the run converges after 20 super-steps on its largest max_lambda,
    # 7.719976; every earlier state stays at or below 7.719527.  With the
    # guard between the two, the converged state itself ends the run as
    # BlowUp: every state meets the guard before the tolerance
    ball = DomainSpec.ball(1.0, 4)
    psi = bd.lawson_osserman_map(2.0)
    state = flow.make_state(build_grid(ball, 0.2), psi)
    final, records, outcome = flow.run_to_steady(
        state, 1e-3, 100_000, 25, jets.flow_monitors(state, psi))
    assert outcome == "Converged"
    assert records[-1].residual_sup < 1e-3
    assert records[-1].max_lambda > 7.71975
    monkeypatch.setattr(flow, "LAMBDA_GUARD", 7.71975)
    guarded, guarded_records, outcome = flow.run_to_steady(
        state, 1e-3, 100_000, 25, jets.flow_monitors(state, psi))
    assert outcome == "BlowUp"
    assert guarded.t == final.t
    assert len(guarded_records) == len(records)


def test_converged_state_is_discrete_fixed_point(ball_run):
    _, _, _, _, final, records = ball_run
    dt = records[-1].step_dt
    stepped = flow.super_step(final, flow.compute_fields(final), dt, 1,
                              final.t + dt, 1.0)
    assert np.abs(stepped.f - final.f).max() < dt * 1e-6


def test_super_steps_converge_to_the_explicit_euler_state(ball_run):
    # monitor_every = 1 takes one explicit Euler step per super-step; both
    # runs stop within tol_residual / lambda_1 of the discrete steady state,
    # lambda_1 = 5.78 the unit disk's first Dirichlet eigenvalue
    grid, _, _, _, final, _ = ball_run
    state = flow.make_state(grid, SMALL_TRIG)
    euler, _, outcome = flow.run_to_steady(state, 1e-6, 100_000, 1,
                                           jets.flow_monitors(state, SMALL_TRIG))
    assert outcome == "Converged"
    assert np.abs(final.f - euler.f).max() <= 1e-6 / 5.78


def test_step_budget_ends_on_the_last_explicit_step():
    grid = build_grid(BALL, 1.0 / 16)
    state0 = flow.make_state(grid, SMALL_TRIG, t=0.25)
    dt = flow.stable_dt(grid, 0.9)
    final, records, outcome = flow.run_to_steady(
        state0, 1e-9, 60, 25, jets.flow_monitors(state0, SMALL_TRIG))
    assert outcome == "MaxSteps"
    assert final.t == state0.t + 60 * dt
    assert [r.t for r in records] == [state0.t + k * dt for k in (0, 25, 50, 60)]


def test_determinism_of_runs():
    grid = build_grid(BALL, 1.0 / 16)
    outs = []
    for _ in range(2):
        state = flow.make_state(grid, SMALL_TRIG)
        final, records, _ = flow.run_to_steady(
            state, 1e-4, 5000, 50, jets.flow_monitors(state, SMALL_TRIG))
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


_RECORD_DETG = st.sampled_from([1.0, 1.0 + 2.0 ** -52, 2.0, 1e300]) \
    | st.floats(1.0, 1e6)
_RECORD_LAM_SQ = st.sampled_from([0.0, 5e-324, 0.25, 1.0, 4.0]) \
    | st.floats(0.0, 1e3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_record_minima_read_at_the_maxima_equal_the_nodewise_minima(data):
    """min *Omega and the min P-eigenvalue, which a record reads at the
    largest det g and lambda^2, equal the minima over all nodes bit for
    bit: ties, zeros and eps = 1 included."""
    grid = _oracle_grid("box", 1)
    K = grid.num_interior
    psi = bd.constant_map([0.0], 1)
    state = flow.make_state(grid, psi)
    eps = data.draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0))
    detg = np.array(data.draw(st.lists(_RECORD_DETG, min_size=K, max_size=K)))
    lam_sq = np.array(data.draw(st.lists(_RECORD_LAM_SQ, min_size=K,
                                         max_size=K)))
    bundle = flow.compute_fields(state)
    bundle.detg = detg
    bundle.__dict__["lam_max_sq"] = lam_sq       # the cached top eigenvalue
    rec = jets.flow_monitors(state, psi, eps=eps).record(state, bundle, 1.0,
                                                         0.0, 0.0)
    r = (1.0 - eps) ** 2
    eps_prime = (1.0 - r) / (1.0 + r)
    assert _same_bits(rec.min_star_omega, (1.0 / np.sqrt(detg)).min())
    assert _same_bits(rec.min_p_eig,
                      ((1.0 - lam_sq) - eps_prime * (1.0 + lam_sq)).min())


def test_barrier_fields_at_initial_time():
    grid = build_grid(BALL, 1.0 / 16)
    state = flow.make_state(grid, SMALL_TRIG)
    monitors = jets.flow_monitors(state, SMALL_TRIG)
    S, S_mirror = monitors.barrier_fields(state)
    # with f = psi both fields reduce to nu log(1 + k d) + (omega/delta) d
    assert S.shape == S_mirror.shape == (monitors.band_idx.size, 2)
    assert monitors.band_idx.size > 0
    assert S.min() >= 0.0 and S_mirror.min() >= 0.0
    np.testing.assert_allclose(S, S_mirror, atol=1e-15)


def test_barrier_stays_nonnegative_along_flow(ball_run):
    _, _, _, monitors, final, records = ball_run
    for rec in records:
        assert rec.barrier_min >= -1e-12
    S, S_mirror = monitors.barrier_fields(final)
    assert min(S.min(), S_mirror.min()) >= 0.0
    assert records[-1].barrier_min == min(S.min(), S_mirror.min())


def test_invariant_suite_passes_on_ball_run(ball_run):
    _, _, _, monitors, _, records = ball_run
    report = flow.check_invariants(records, monitors)
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
    _, _, _, monitors, _, records = ball_run
    corrupted = list(records)
    corrupted[3] = dataclasses.replace(
        records[3], **FAULTS[clause](records[3], monitors))
    report = flow.check_invariants(corrupted, monitors)
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
        final, _, outcome = flow.run_to_steady(
            state, 1e-10, 400_000, 1000, jets.flow_monitors(state, psi))
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
