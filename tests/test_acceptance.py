"""Acceptance gate: every shipped claim, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  All tolerances are pinned here; desk scale is n = 2, m in {1, 2},
grids at most 129 nodes per axis.
"""

import subprocess
import sys
import textwrap
from contextlib import contextmanager

import numpy as np
import pytest

import reference
from mssflow import boundary as bd, driver, flow, oracles, shrinker
from mssflow.config import load_config
from mssflow.domains import DomainSpec, estimate_c0_eta0
from mssflow.grid import build_grid

SCHERK_RESIDUAL_C = 0.5     # measured 0.11 h^2; factor ~4.5 of headroom
CAP_RESIDUAL_C = 0.25       # measured 0.0625 h^2; factor 4 of headroom

BALL_CFG = """
[run]
mode = solve

[domain]
kind = ball
dim = 2
radius = 1.0

[boundary]
family = trigonometric
m = 2
amplitudes = 0.01, 0.005
wave_vector_1 = 2.0, 1.0
wave_vector_2 = 0.0, 2.0
phases = 0.0, 0.5

[grid]
h = 0.03125

[flow]
cfl = 0.9
tol_residual = 1e-6
max_steps = 300000
monitor_every = 25

[hypothesis]
condition = A
delta = 0.1
"""

ANNULUS_CFG = """
[run]
mode = solve

[domain]
kind = annulus
dim = 2
inner_radius = 0.5
radius = 1.0

[boundary]
family = trigonometric
m = 2
amplitudes = 0.0015, 0.001
wave_vector_1 = 2.0, 1.0
wave_vector_2 = 0.0, 2.0

[grid]
h = 0.03125

[flow]
cfl = 0.9
tol_residual = 1e-6
max_steps = 300000
monitor_every = 25

[hypothesis]
condition = A
delta = 0.007
"""

EXTERIOR_CFG = """
[run]
mode = exterior

[domain]
kind = exterior
dim = 2
inner_radius = 1.0

[boundary]
family = trigonometric
m = 1
amplitudes = 0.002
wave_vector_1 = 2.0, 0.5

[grid]
h = 0.203125

[flow]
cfl = 0.9
tol_residual = 1e-7
max_steps = 400000
monitor_every = 500

[hypothesis]
condition = B
delta = 0.012
c = 0.5

[exterior]
radii = 9.0, 11.0, 13.0
probe_radii = 2.5, 3.5, 4.5
"""


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] acceptance {num}: {label}")
        raise
    print(f"\n[PASS] acceptance {num}: {label}")


def _cfg_from_text(tmp_path_factory, text, mode, name):
    path = tmp_path_factory.mktemp("cfg") / name
    path.write_text(textwrap.dedent(text))
    return load_config(str(path), mode=mode)


@pytest.fixture(scope="module")
def ball_result(tmp_path_factory):
    cfg = _cfg_from_text(tmp_path_factory, BALL_CFG, "solve", "ball.cfg")
    return driver.solve_once(cfg)


@pytest.fixture(scope="module")
def annulus_result(tmp_path_factory):
    cfg = _cfg_from_text(tmp_path_factory, ANNULUS_CFG, "solve", "annulus.cfg")
    return driver.solve_once(cfg)


# ---------------------------------------------------------------------------

def test_criterion_1_gaussian_density_dichotomy():
    with criterion(1, "Gaussian density 1 in the interior, 1/2 on the edge"):
        tau = 0.005
        flat = bd.constant_map([0.0], 2)
        plane = oracles.plane_state(h=0.025, halfwidth=1.3, psi=flat)
        theta_int = shrinker.gaussian_density(plane, flat, tau, 1.0)
        assert abs(theta_int - 1.0) <= 1e-3, theta_int

        half = oracles.half_plane_state(h=0.025, halfwidth=1.3, psi=flat)
        theta_edge = shrinker.gaussian_density(half, flat, tau, 1.0)
        assert abs(theta_edge - 0.5) <= 1e-3, theta_edge


def test_criterion_2_exact_solution_residuals():
    with criterion(2, "linear/Scherk/sphere-cap residuals at stated orders"):
        # linear maps are exact discrete solutions, cut arms included
        grid = build_grid(DomainSpec.ball(1.0, 2), 1.0 / 32)
        state = flow.make_state(grid, bd.linear_map([[0.2, -0.3], [0.1, 0.05]]))
        bundle = flow.compute_fields(state)
        assert bundle.residual_sup <= 1e-12

        sups = {}
        for target in (1.0 / 32, 1.0 / 64):
            st = reference.scherk_state(h=target, halfwidth=0.7)
            b = flow.compute_fields(st)
            h = st.grid.h
            sups[target] = (float(np.sqrt((b.residual ** 2).sum(1)).max()), h)
        for sup, h in sups.values():
            assert sup <= SCHERK_RESIDUAL_C * h * h
        order = np.log2(sups[1.0 / 32][0] / sups[1.0 / 64][0])
        assert order >= 1.8, order

        sups = {}
        for target in (1.0 / 32, 1.0 / 64):
            st = oracles.sphere_cap_state(h=target, halfwidth=0.8)
            field = shrinker.shrinker_residual_field(st, 1.0)
            norms = np.linalg.norm(field, axis=1)
            h = st.grid.h
            sups[target] = (float(norms[st.grid.full_stencil].max()), h)
        for sup, h in sups.values():
            assert sup <= CAP_RESIDUAL_C * h * h
        order = np.log2(sups[1.0 / 32][0] / sups[1.0 / 64][0])
        assert order >= 1.8, order


def test_criterion_3_flow_invariants_on_ball(ball_result):
    with criterion(3, "all six flow invariants on the condition-(A) ball run"):
        res = ball_result
        assert res.hypothesis.passed
        assert res.outcome == "Converged"
        assert res.invariants is not None
        failed = [c.name for c in res.invariants.clauses if not c.passed]
        assert not failed, failed
        assert len(res.invariants.clauses) == 6
        assert res.exit_code == 0


def test_criterion_4_annulus_without_mean_convexity(annulus_result):
    with criterion(4, "non-mean-convex annulus converges with the full suite"):
        res = annulus_result
        assert res.hypothesis.passed
        assert res.outcome == "Converged"
        assert res.records[-1].residual_sup < 1e-5
        failed = [c.name for c in res.invariants.clauses if not c.passed]
        assert not failed, failed
        assert res.exit_code == 0


def test_criterion_5_steady_limit_is_minimal():
    with criterion(5, "converged state is a discrete fixed point"):
        grid = build_grid(DomainSpec.box([1.0, 1.0]), 1.0 / 32)
        psi = bd.TrigMap([0.02, 0.01], [[2.0, 1.0], [1.0, 2.0]])
        state = flow.make_state(grid, psi)
        final, records, outcome = flow.run_to_steady(
            state, 1e-9, 200_000, 100, reference.flow_monitors(state, psi))
        assert outcome == "Converged"
        assert records[-1].residual_sup < 1e-9
        dt = flow.stable_dt(grid, 0.9)
        stepped = flow.super_step(final, flow.compute_fields(final), dt, 1,
                                  final.t + dt, 1.0)
        drift = np.abs(stepped.f - final.f).max()
        assert drift < 1e-12, drift
        # and restarting reports immediate convergence
        _, records2, outcome2 = flow.run_to_steady(
            final, 1e-9, 100, 10, reference.flow_monitors(final, psi))
        assert outcome2 == "Converged" and len(records2) == 1


def test_criterion_6_hypothesis_checker_arithmetic():
    with criterion(6, "worked checker examples reproduce exactly"):
        grid = build_grid(DomainSpec.ball(1.0, 2), 1.0 / 16)
        geom = estimate_c0_eta0(DomainSpec.ball(1.0, 2))
        rep = bd.check_condition_A(bd.linear_map([[0.2, 0.0], [0.0, 0.0]]),
                                   grid, geom, 0.25)
        assert abs(rep.lhs_condition - 1.8) <= 1e-12 and not rep.passed
        rep2 = bd.check_condition_A(bd.linear_map([[0.02, 0.0], [0.0, 0.0]]),
                                    grid, geom, 0.25)
        assert abs(rep2.lhs_condition - 0.18) <= 1e-12 and rep2.passed

        box = build_grid(DomainSpec.box([1.0, 1.0]), 1.0 / 32)
        box_geom = estimate_c0_eta0(DomainSpec.box([1.0, 1.0]))
        rep3 = bd.check_condition_B(bd.constant_map([2.0], 2), box, box_geom,
                                    0.1, 0.5)
        assert rep3.passed and rep3.lhs_condition == 0.0

        bound = bd.boundary_gradient_bound(
            bd.PsiNorms(w=0.1, sup_dpsi=0.3, sup_d2psi=0.05), 0.2, 2)
        assert abs(bound - 1.44) <= 1e-12


def test_criterion_7_exterior_asymptotics(tmp_path_factory):
    with criterion(7, "exterior shells: decaying far field, agreeing shells"):
        cfg = _cfg_from_text(tmp_path_factory, EXTERIOR_CFG, "exterior",
                             "exterior.cfg")
        rep = driver.exterior_pipeline(cfg)
        assert rep.exit_code == 0, rep.notes
        assert len(rep.decay_table) >= 3
        sups = [s for _, s in rep.decay_table]
        assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:])), sups
        h = max(rep.shells[-1].field.hs)
        assert rep.agreement and max(rep.agreement) <= 10.0 * h, rep.agreement
        for res in rep.shells:
            assert res.outcome == "Converged"
            assert res.hypothesis.passed and res.hypothesis.condition == "B"


def test_criterion_8_reflection_oracle():
    with criterion(8, "odd linear half-space data doubles to a linear graph"):
        state, psi = reference.sloped_half_plane_state(
            h=1.0 / 32, halfwidth=1.0, slope=[[0.0, 0.4]])
        doubled, kink = reference.reflect_halfspace(state, psi)
        assert kink == 0.0
        bundle = flow.compute_fields(doubled)
        assert bundle.residual_sup <= 1e-12
        np.testing.assert_allclose(
            doubled.f[:, 0], 0.4 * doubled.grid.interior_pos[:, 1],
            atol=1e-12)


def test_criterion_9_bitwise_determinism(tmp_path_factory):
    with criterion(9, "identical configs produce bit-identical artifacts"):
        path = tmp_path_factory.mktemp("det") / "ball.cfg"
        path.write_text(textwrap.dedent(BALL_CFG))
        blobs = []
        for name in ("one", "two"):
            out = tmp_path_factory.mktemp(name)
            r = subprocess.run(
                [sys.executable, "-m", "mssflow.cli", "solve",
                 "--config", str(path), "--out", str(out)],
                capture_output=True, text=True)
            assert r.returncode == 0, r.stdout + r.stderr
            blobs.append(((out / "monitors.csv").read_bytes(),
                          (out / "field.dat").read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
        assert len(blobs[0][0]) > 1000
