"""Density, area and reflection oracles.

The self-shrinker residual of the sphere cap is checked by criterion 2.
"""

import numpy as np
import pytest

import reference
from mssflow import boundary as bd, flow, oracles, shrinker
from mssflow.domains import DomainSpec
from mssflow.grid import build_grid

# the plane oracles' flat data: height 0, and the lifted plane's 0.08
FLAT = bd.constant_map([0.0], 2)
LIFTED = bd.constant_map([0.08], 2)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_phi_profile_shape():
    r = np.linspace(0, 1.4, 200)
    phi = shrinker.phi_quintic(r)
    assert np.all(phi[r <= 0.5] == 1.0)
    assert np.all(phi[r >= 1.0] == 0.0)
    assert np.all(np.diff(phi) <= 1e-15)
    np.testing.assert_allclose(shrinker.phi_quintic(np.array([0.75]))[0], 0.5,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# area and density
# ---------------------------------------------------------------------------

def flat_square_area(h):
    state = oracles.plane_state(h=h, halfwidth=0.5, psi=FLAT)
    bundle = flow.compute_fields(state)
    rec = reference.flow_monitors(state, FLAT).record(
        state, bundle, 1.0, flow.dissipation_rate(state, bundle), 0.0)
    return rec.area


# The F-functional at weight c = 0 is the area, which the flow monitor
# reports; interior cell fractions plus the flat-face boundary weights
# tile the unit square exactly at either spacing.

def test_f_functional_c_zero_equals_area_monitor():
    assert flat_square_area(1.0 / 16) == 1.0


def test_f_functional_flat_unit_square_is_one():
    assert flat_square_area(1.0 / 32) == 1.0


def test_plane_density_is_one():
    state = oracles.plane_state(h=0.025, halfwidth=1.3, psi=FLAT)
    theta = shrinker.gaussian_density(state, FLAT, 0.005, 1.0)
    assert abs(theta - 1.0) <= 1e-3


def test_half_plane_edge_density_is_half():
    state = oracles.half_plane_state(h=0.025, halfwidth=1.3, psi=FLAT)
    theta = shrinker.gaussian_density(state, FLAT, 0.005, 1.0)
    assert abs(theta - 0.5) <= 1e-3


def test_offset_plane_density_gaussian_factor():
    a, tau = 0.08, 0.005
    state = oracles.plane_state(h=0.02, halfwidth=1.3, psi=LIFTED)
    theta = shrinker.gaussian_density(state, LIFTED, tau, 1.0)
    # closed-form radial oracle (phi = 1 on the kernel's effective support)
    from scipy.integrate import quad
    val, _ = quad(lambda r: shrinker.phi_quintic(np.sqrt(r * r + a * a))
                  * np.exp(-(r * r + a * a) / (4 * tau)) * r, 0.0, 1.0)
    expected = val / (2 * tau)
    assert abs(theta - expected) <= 1e-6
    np.testing.assert_allclose(theta, np.exp(-a * a / (4 * tau)), atol=2e-3)


def test_plane_density_independent_of_time_gap():
    state = oracles.plane_state(h=0.02, halfwidth=1.3, psi=FLAT)
    values = []
    for tau in (0.002, 0.005, 0.01):
        values.append(shrinker.gaussian_density(state, FLAT, tau, 1.0))
    assert max(values) - min(values) <= 1e-3


def test_density_monotone_under_support_inclusion():
    small = oracles.plane_state(h=0.025, halfwidth=0.55, psi=FLAT)
    large = oracles.plane_state(h=0.025, halfwidth=1.3, psi=FLAT)
    assert shrinker.gaussian_density(small, FLAT, 0.005, 1.0) <= \
        shrinker.gaussian_density(large, FLAT, 0.005, 1.0) + 1e-12


def _unmasked_density(state, psi, time_gap):
    """The density's quadrature at cutoff 1 summed over every node,
    interior and flat-face boundary cells alike, so that the sum holds
    phi's whole support whatever the time gap."""
    grid = state.grid
    z = np.concatenate([grid.interior_pos, state.f], axis=1)
    w = grid.cell_frac * grid.cellvol * np.sqrt(flow.compute_fields(state).detg)
    vals, jac, _ = psi.jets(grid.boundary_samples)
    rows, wb = flow.boundary_cell_weights(grid, flow._metric_inverse(
        flow._metric([jac[:, :, i] for i in range(grid.n)]), grid.n)[1])
    zb = np.concatenate([grid.boundary_samples, vals], axis=1)[rows]
    z, w = np.vstack([z, zb]), np.concatenate([w, wb])
    dist = np.linalg.norm(z, axis=1)
    rho = (4.0 * np.pi * time_gap) ** (-0.5 * grid.n) \
        * np.exp(-dist ** 2 / (4.0 * time_gap))
    return float((shrinker.phi_quintic(dist) * rho * w).sum())


DENSITY_STATES = {
    "plane": (oracles.plane_state, FLAT),
    "offset-plane": (oracles.plane_state, LIFTED),
    "half-plane": (oracles.half_plane_state, FLAT),
}


@pytest.mark.parametrize("time_gap", [0.005, 0.05, 0.2])
@pytest.mark.parametrize("name", DENSITY_STATES)
def test_density_sums_the_whole_support_of_phi(name, time_gap):
    # the nodes past the cutoff add exact zeros, so only the blocking of
    # the pairwise sum differs: two ulps at most over these nine cases
    oracle, psi = DENSITY_STATES[name]
    state = oracle(h=0.025, halfwidth=1.3, psi=psi)
    theta = shrinker.gaussian_density(state, psi, time_gap, 1.0)
    full = _unmasked_density(state, psi, time_gap)
    assert abs(theta - full) <= 4 * np.spacing(full)


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_reflection_of_odd_linear_map_is_global_linear():
    state, psi = reference.sloped_half_plane_state(h=1.0 / 16, halfwidth=1.0,
                                                    slope=[[0.0, 0.3]])
    doubled, kink = reference.reflect_halfspace(state, psi)
    assert kink == 0.0
    bundle = flow.compute_fields(doubled)
    assert bundle.residual_sup <= 1e-12
    np.testing.assert_allclose(
        doubled.f[:, 0], 0.3 * doubled.grid.interior_pos[:, 1], atol=1e-12)


def test_reflection_even_data_reports_kink():
    spec = DomainSpec.box([2.0, 1.0], lo=[-1.0, 0.0])
    grid = build_grid(spec, 1.0 / 16)
    quad_map = bd.PolynomialMap([([1.0], [[0, 2]])], 2)
    state = flow.make_state(grid, quad_map)
    doubled, kink = reference.reflect_halfspace(state, quad_map)
    np.testing.assert_allclose(kink, 4.0, rtol=1e-10)
    # values really are the odd extension
    pos = doubled.grid.interior_pos
    expected = np.where(pos[:, 1] >= 0, pos[:, 1] ** 2, -pos[:, 1] ** 2)
    np.testing.assert_allclose(doubled.f[:, 0], expected, atol=1e-12)


def test_reflection_zero_map():
    state = oracles.half_plane_state(h=1.0 / 16, halfwidth=1.0, psi=FLAT)
    doubled, kink = reference.reflect_halfspace(state, FLAT)
    assert np.abs(doubled.f).max() == 0.0
    assert kink == 0.0


def test_reflection_rejects_nonzero_trace():
    state, psi = reference.sloped_half_plane_state(h=1.0 / 16, halfwidth=1.0,
                                                    slope=[[0.3, 0.0]])
    with pytest.raises(ValueError):
        reference.reflect_halfspace(state, psi)


def test_reflection_rejects_unmatched_spacing():
    # edges 1 x 0.525 at h = 0.05 snap to spacings (0.05, 0.0525); the
    # doubled box 1 x 1.05 at h = 0.0525 snaps to (0.0526.., 0.0525)
    grid = build_grid(DomainSpec.box([1.0, 0.525]), 0.05)
    psi = bd.linear_map([[0.0, 0.3]])
    state = flow.make_state(grid, psi)
    with pytest.raises(ValueError, match="spacing"):
        reference.reflect_halfspace(state, psi)


def test_odd_reflection_map_jets():
    psi = bd.linear_map([[0.0, 0.25]])
    odd = reference.OddReflectionMap(psi, 2)
    pts = np.array([[0.3, 0.4], [0.3, -0.4], [-0.1, -0.2]])
    vals, jac, hess = odd.jets(pts)
    np.testing.assert_allclose(vals[:, 0], 0.25 * pts[:, 1], atol=1e-14)
    np.testing.assert_allclose(jac[:, 0, 1], 0.25, atol=1e-14)


def test_transformed_states_dump_in_grid_format(tmp_path):
    from mssflow.driver import FieldDump, write_field_dat
    state, psi = reference.sloped_half_plane_state(h=1.0 / 16, halfwidth=1.0,
                                                    slope=[[0.0, 0.3]])
    doubled, _ = reference.reflect_halfspace(state, psi)
    path = tmp_path / "doubled.dat"
    write_field_dat(str(path), FieldDump.of(doubled))
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == doubled.grid.num_interior
