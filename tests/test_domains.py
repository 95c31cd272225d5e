"""Domain geometry and grid construction oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from mssflow import boundary as bd, flow, grid as grid_mod
from mssflow.domains import DomainError, DomainSpec, estimate_c0_eta0
from mssflow.grid import (CLS_BOUNDARY, CLS_EXTERIOR, CLS_INTERIOR,
                          build_closure, build_grid)


# ---------------------------------------------------------------------------
# collar constants
# ---------------------------------------------------------------------------

def test_ball_collar_constants():
    geom = estimate_c0_eta0(DomainSpec.ball(2.0, 2))
    assert geom.c0 == 0.0 and geom.strictly_convex
    np.testing.assert_allclose(geom.eta0, 1.0)


def test_annulus_collar_maximizes_inner_curvature():
    # sup of 1/(r_in + s) over the collar is attained at s = 0
    spec = DomainSpec.annulus(0.5, 1.5, 2)
    geom = estimate_c0_eta0(spec)
    np.testing.assert_allclose(geom.c0, 2.0 / 0.5, rtol=1e-14)
    np.testing.assert_allclose(geom.eta0, 0.25)


def test_box_collar_is_flat():
    geom = estimate_c0_eta0(DomainSpec.box([1.0, 2.0]))
    assert geom.c0 == 0.0 and geom.hess_d_bound == 0.0
    np.testing.assert_allclose(geom.eta0, 0.45 * 0.5)


def test_exterior_constants_independent_of_truncation():
    a = estimate_c0_eta0(DomainSpec.exterior(1.0, 9.0, 2))
    b = estimate_c0_eta0(DomainSpec.exterior(1.0, 30.0, 2))
    assert a == b
    np.testing.assert_allclose(a.c0, 2.0)
    np.testing.assert_allclose(a.eta0, 0.5)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_unit_box_grid_counts():
    grid = build_grid(DomainSpec.box([1.0, 1.0]), 1.0 / 64)
    assert grid.num_interior == 63 ** 2
    assert grid.boundary_samples.shape[0] == 4 * 64
    assert grid.full_stencil.all()
    assert grid.dep_idx.size == 0


def test_ball_grid_classification_and_subspacings():
    for spec, radii in ((DomainSpec.ball(1.0, 2), [1.0]),
                        (DomainSpec.annulus(0.5, 1.5, 2), [0.5, 1.5])):
        grid = build_grid(spec, 1.0 / 32)
        # classification consistent with the signed distance
        sd = spec.signed_distance(grid.lattice_positions())
        np.testing.assert_array_equal(grid.cls.ravel() == CLS_INTERIOR,
                                      sd < -1e-12)
        assert (spec.signed_distance(grid.interior_pos) < 0).all()
        K = grid.num_interior
        src, theta = grid.arm_src, grid.arm_theta
        offsets = grid_mod._direction_offsets(grid.n)
        assert src.shape == theta.shape == (len(offsets), 2, K)
        # arms whose end is interior are full lattice steps
        assert (theta[src < K] == 1.0).all()
        # cut arms end at their pinned row, on a boundary sphere
        d, side, k = np.nonzero(src >= K)
        step = np.where(side == 0, 1, -1)[:, None] * offsets[d] * grid.hs
        ends = grid.pinned_pos[src[d, side, k] - K]
        np.testing.assert_allclose(
            ends, grid.interior_pos[k] + theta[d, side, k][:, None] * step,
            rtol=0, atol=1e-12)
        r = np.linalg.norm(ends, axis=1)
        assert (np.abs(r[:, None] - radii).min(axis=1) <= 1e-9).all()
        np.testing.assert_array_equal(np.sort(src[src >= K]),
                                      K + np.arange(grid.pinned_pos.shape[0]))
        # every interpolated node's opposite arm is full and reaches a
        # stepped node
        assert grid.dep_idx.size > 0
        for k, q, t, pin in zip(grid.dep_idx, grid.dep_opp, grid.dep_t,
                                grid.dep_pin):
            (d, side), = np.argwhere(src[:, :, k] == K + pin)
            assert theta[d, side, k] == t < 0.5
            assert src[d, 1 - side, k] == q < K
            assert theta[d, 1 - side, k] == 1.0 and grid.stepped[q]
        assert grid.boundary_samples.shape[0] > 0
        r = np.linalg.norm(grid.boundary_samples, axis=1)
        assert (np.abs(r[:, None] - radii).min(axis=1) <= 1e-9).all()


def test_lattice_index_round_trip():
    for spec in (DomainSpec.ball(1.0, 2),
                 DomainSpec.box([1.0, 0.5, 0.75], lo=[-0.5, 0.0, 0.25])):
        grid = build_grid(spec, 0.05)
        coords = grid.lattice_coords()
        np.testing.assert_array_equal(grid.lattice_index(coords),
                                      np.arange(grid.num_interior))
        # boundary and exterior lattice nodes, and points off the lattice
        origin = np.round(grid.los / grid.hs).astype(np.int64)
        absent = np.vstack([np.argwhere(grid.cls != CLS_INTERIOR) + origin,
                            coords.min(axis=0) - 1, coords.max(axis=0) + 2])
        np.testing.assert_array_equal(grid.lattice_index(absent), -1)


@pytest.mark.parametrize("spec, h, delta", [
    (DomainSpec.ball(1.0, 2), 1.0 / 64, 0.1),
    (DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 32, 0.007),
    (DomainSpec.exterior(1.0, 13.0, 2), 0.1015625, 0.012),
    (DomainSpec.box([1.0, 0.7]), 0.0225, 0.1),
    (DomainSpec.ball(1.0, 3), 0.05, 0.1),
], ids=["ball", "annulus", "shell-13", "box", "ball-3d"])
def test_closure_matches_the_flow_grid(spec, h, delta):
    # the checker's h/2 pass builds only the closure: its sample must be
    # the flow grid's bit for bit, and the cut arms must be exactly the
    # arms of the nodes that have a non-interior neighbour
    closure, grid = build_closure(spec, h), build_grid(spec, h)
    np.testing.assert_array_equal(closure.closure_points().view(np.uint64),
                                  grid.closure_points().view(np.uint64))
    for d in (delta, None):
        np.testing.assert_array_equal(closure.closure_band_mask(d),
                                      grid.closure_band_mask(d))
    # nodes with a non-interior neighbour, from the classification alone
    K = grid.num_interior
    coords = np.stack(np.unravel_index(grid.interior_flat, grid.dims), axis=1)
    touching = np.zeros(K, bool)
    offsets = grid_mod._direction_offsets(grid.n)
    for off in offsets:
        for sign in (1, -1):
            nb = coords + sign * off
            on = np.all((nb >= 0) & (nb < np.array(grid.dims)), axis=1)
            nb_cls = np.full(K, CLS_EXTERIOR)
            nb_cls[on] = grid.cls[tuple(nb[on].T)]
            touching |= nb_cls != CLS_INTERIOR
    np.testing.assert_array_equal(touching,
                                  (grid.arm_src >= K).any(axis=(0, 1)))
    np.testing.assert_array_equal(grid.cut_rows, np.nonzero(touching)[0])
    assert touching.any()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_first_of_equal_rows_keeps_the_rows_np_unique_keeps(data):
    # the boundary sample's dedup: the first row of every group of equal
    # rows, as np.unique(axis=0, return_index=True) finds them; -0.0 and
    # 0.0 compare equal there, so they are one value here too
    n = data.draw(st.integers(1, 4))
    value = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-9, 5e-324]) \
        | st.floats(-2.0, 2.0)
    rows = np.array(data.draw(st.lists(
        st.lists(value, min_size=n, max_size=n), min_size=1, max_size=40)))
    rows = np.vstack([rows, rows[data.draw(st.lists(
        st.integers(0, rows.shape[0] - 1), max_size=20))]])
    _, first = np.unique(rows, axis=0, return_index=True)
    np.testing.assert_array_equal(grid_mod._first_of_equal_rows(rows),
                                  np.sort(first))


@pytest.mark.parametrize("spec, h", [
    (DomainSpec.box([1.0]), 1.0 / 32),
    (DomainSpec.box([1.03], lo=[-0.4]), 0.1),
    (DomainSpec.box([1.0, 1.0]), 1.0 / 16),
    (DomainSpec.box([1.0, 0.7], lo=[0.3, -1.2]), 0.0225),
    (DomainSpec.box([1.0, 1.0, 1.0]), 0.1),
    (DomainSpec.box([1.0, 0.9, 1.1], lo=[-0.5, 0.2, 0.05]), 0.07),
    (DomainSpec.ball(1.0, 1), 1.0 / 32),
    (DomainSpec.ball(1.0, 2), 1.0 / 32),
    (DomainSpec.ball(1.0, 3), 0.1),
    (DomainSpec.ball(1.0, 4), 1.0 / 6),
    (DomainSpec.annulus(0.5, 1.5, 2), 1.0 / 32),
    (DomainSpec.exterior(1.0, 9.0, 2), 0.203125),
    (DomainSpec.exterior(1.0, 13.0, 2), 0.203125),
], ids=["box-1", "box-1-offset", "box-2", "box-2-offset", "box-3",
        "box-3-offset", "ball-1", "ball-2", "ball-3", "ball-4", "annulus",
        "shell-9", "shell-13"])
def test_no_interior_node_on_the_outer_layer(spec, h):
    # the arms step by flat lattice index, which stays on the lattice and
    # off the opposite face only because the outermost node of every
    # lattice line is a boundary (box face) or exterior (ghost) node
    closure = build_closure(spec, h)
    for axis in range(closure.n):
        for end in (0, -1):
            layer = np.take(closure.cls, end, axis=axis)
            assert (layer != CLS_INTERIOR).all(), (axis, end)


@pytest.mark.parametrize("theta_dep, interpolated", [
    (0.5, 44), (0.75, 76), (0.9, 108), (1.01, None),
], ids=["0.5", "0.75", "0.9", "1.01"])
def test_interpolation_split_follows_theta_dep(monkeypatch, theta_dep,
                                               interpolated):
    # a longer threshold interpolates more of the h = 1/16 disk's nodes;
    # past a full step every boundary-adjacent node would be interpolated,
    # and one of them is left with no stepped node opposite it
    monkeypatch.setattr(grid_mod, "THETA_DEP", theta_dep)
    spec = DomainSpec.ball(1.0, 2)
    if interpolated is None:
        with pytest.raises(DomainError, match=r"interior node at "
                           r"\[-0\.8125 -0\.5625 *\] .* no stepped node "
                           r"opposite it"):
            build_grid(spec, 1.0 / 16)
        return
    grid = build_grid(spec, 1.0 / 16)
    assert grid.dep_idx.size == interpolated
    assert (grid.dep_t < theta_dep).all()
    assert grid.stepped[grid.dep_opp].all()
    assert grid.stepped.sum() == grid.num_interior - interpolated


SPLIT_DOMAINS = {
    "box-1": (DomainSpec.box([1.0]), 1.0 / 32),
    "box-1-offset": (DomainSpec.box([1.03], lo=[-0.4]), 0.1),
    "box-2": (DomainSpec.box([1.0, 1.0]), 1.0 / 16),
    "box-2-offset": (DomainSpec.box([1.0, 0.7], lo=[-0.5, -0.35]), 0.0225),
    "box-3": (DomainSpec.box([1.0, 1.0, 1.0]), 0.1),
    "box-3-offset": (DomainSpec.box([1.0, 0.9, 1.1], lo=[-0.5, 0.2, 0.05]),
                     0.07),
    "box-4": (DomainSpec.box([1.0, 1.0, 1.0, 1.0]), 1.0 / 9),
    "box-4-offset": (DomainSpec.box([1.0, 0.9, 1.1, 1.0],
                                    lo=[0.3, -1.2, 0.0, -0.5]), 0.1),
    "ball-1": (DomainSpec.ball(1.0, 1), 1.0 / 32),
    "ball-2": (DomainSpec.ball(1.0, 2), 1.0 / 32),
    "ball-3": (DomainSpec.ball(1.0, 3), 0.1),
    "ball-4": (DomainSpec.ball(1.0, 4), 1.0 / 6),
    "ball-4-fine": (DomainSpec.ball(1.0, 4), 1.0 / 12),
    "annulus": (DomainSpec.annulus(0.5, 1.5, 2), 1.0 / 32),
    "annulus-thin": (DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 32),
    "annulus-3": (DomainSpec.annulus(0.5, 1.5, 3), 0.1),
    "annulus-16": (DomainSpec.annulus(15.0, 16.0, 2), 1.0 / 16),
    "shell-9": (DomainSpec.exterior(1.0, 9.0, 2), 0.203125),
    "shell-11": (DomainSpec.exterior(1.0, 11.0, 2), 0.203125),
    "shell-13": (DomainSpec.exterior(1.0, 13.0, 2), 0.203125),
    "shell-13-fine": (DomainSpec.exterior(1.0, 13.0, 2), 0.1015625),
}


@pytest.mark.parametrize("name", list(SPLIT_DOMAINS))
def test_interpolation_split_matches_the_node_loop(name):
    # the array split takes the nodes, in the same order, that the node
    # loop of tests/reference.py takes one at a time, bit for bit
    grid = build_grid(*SPLIT_DOMAINS[name])
    ref = reference.dependent_nodes_loop(grid.arm_src, grid.arm_theta)
    for key, want in ref.items():
        got = getattr(grid, key)
        assert got.dtype == want.dtype, key
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8),
                                      err_msg=key)


def test_interpolated_node_opposite_an_interpolated_one_rejected(monkeypatch):
    # at THETA_DEP = 0.97 the unit 3-ball at h = 0.1 interpolates nodes
    # whose opposite node is interpolated too; one pass would read a value
    # not yet interpolated, so the grid is refused
    monkeypatch.setattr(grid_mod, "THETA_DEP", 0.97)
    with pytest.raises(DomainError, match="no stepped node opposite it"):
        build_grid(DomainSpec.ball(1.0, 3), 0.1)


@pytest.mark.parametrize("spec, h", [
    (DomainSpec.ball(1.0, 2), 1.0 / 32),
    (DomainSpec.annulus(0.5, 1.5, 2), 1.0 / 32),
    (DomainSpec.exterior(1.0, 9.0, 2), 0.203125),
    (DomainSpec.box([1.0, 0.7], lo=[-0.5, -0.35]), 1.0 / 32),
    (DomainSpec.ball(1.0, 3), 0.1),
    (DomainSpec.ball(1.0, 4), 1.0 / 6),
], ids=["disk", "annulus", "shell-9", "box", "ball-3", "ball-4"])
def test_every_built_grid_interpolates_from_stepped_nodes(monkeypatch,
                                                          spec, h):
    # whatever THETA_DEP in [0.5, 1) lets a grid build, every interpolated
    # node reads a stepped interior node opposite it
    built = 0
    for theta_dep in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
        monkeypatch.setattr(grid_mod, "THETA_DEP", theta_dep)
        try:
            grid = build_grid(spec, h)
        except DomainError:
            continue
        built += 1
        assert (grid.dep_opp < grid.num_interior).all()
        assert grid.stepped[grid.dep_opp].all()
        assert (~grid.stepped[grid.dep_idx]).all()
        assert grid.stepped.sum() == grid.num_interior - grid.dep_idx.size
    assert built > 0


def test_under_resolved_grid_rejected():
    with pytest.raises(DomainError):
        build_grid(DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 16)
    build_grid(DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 20)


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
def test_non_finite_spacing_rejected(h):
    with pytest.raises(DomainError, match="finite and positive"):
        build_grid(DomainSpec.ball(1.0, 2), h)


def test_band_membership_monotone_in_delta():
    grid = build_grid(DomainSpec.ball(1.0, 2), 1.0 / 16)
    prev = np.zeros(grid.num_interior, dtype=bool)
    for delta in (0.05, 0.1, 0.2, 0.4):
        band = grid.band_mask(delta)
        assert (band | prev == band).all()    # prev subset of band
        prev = band


def test_interpolated_nodes_reference_stepped_neighbors():
    grid = build_grid(DomainSpec.ball(1.0, 2), 1.0 / 32)
    assert grid.dep_idx.size > 0
    assert grid.stepped[grid.dep_opp].all()
    assert (~grid.stepped[grid.dep_idx]).all()
    assert ((grid.dep_t > 0) & (grid.dep_t < 0.5)).all()
    # interpolation anchors sit on the boundary
    np.testing.assert_allclose(
        np.linalg.norm(grid.pinned_pos[grid.dep_pin], axis=1), 1.0, atol=1e-9)
    # the state pins exactly the data at those rows, evaluated in one batch
    psi = bd.TrigMap([0.3, 0.1], [[2.0, 1.0], [0.0, 3.0]], [0.0, 0.5])
    np.testing.assert_array_equal(flow.make_state(grid, psi).pinned,
                                  psi.jets(grid.pinned_pos)[0])


def test_box_faces_carry_quadrature_fractions():
    grid = build_grid(DomainSpec.box([1.0, 1.0]), 1.0 / 16)
    fr = grid.boundary_frac
    assert fr.shape == (grid.boundary_samples.shape[0],)
    assert set(np.round(fr, 12)) == {0.25, 0.5}
    assert (fr == 0.25).sum() == 4    # corners
    # curved boundaries have no flat face
    for spec, h in ((DomainSpec.ball(1.0, 2), 1.0 / 16),
                    (DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 32),
                    (DomainSpec.exterior(1.0, 9.0, 2), 0.203125)):
        closure = build_closure(spec, h)
        assert closure.boundary_samples.shape[0] > 0
        assert (closure.boundary_frac == 0.0).all()
        assert closure.boundary_frac.shape == (closure.boundary_samples.shape[0],)


@pytest.mark.parametrize("edges, lo, h", [
    ([1.03], [-0.4], 0.1),
    ([1.0, 0.7], [0.3, -1.2], 0.0225),
    ([1.0, 0.9, 1.1], [-0.5, 0.2, 0.05], 0.07),
], ids=["n1", "n2", "n3"])
def test_box_arms_end_on_faces(edges, lo, h):
    # faces snap onto lattice planes, so no arm of a box is ever clipped:
    # every cut arm ends at a boundary node on a face, and the closure's
    # boundary sample is exactly the boundary nodes
    spec = DomainSpec.box(edges, lo=lo)
    grid = build_grid(spec, h)
    assert not np.allclose(grid.hs, h)     # the spacing really was snapped
    assert (grid.arm_theta == 1.0).all()
    lo, hi = spec.bounding_box()
    pinned = grid.pinned_pos
    assert pinned.shape[0] > 0
    inside = (pinned >= lo - 1e-12) & (pinned <= hi + 1e-12)
    on_face = (np.abs(pinned - lo) <= 1e-12) | (np.abs(pinned - hi) <= 1e-12)
    assert inside.all() and on_face.any(axis=1).all()
    closure = build_closure(spec, h)
    nodes = closure.lattice_positions()[closure.cls.ravel() == CLS_BOUNDARY]
    np.testing.assert_array_equal(closure.boundary_samples, nodes)
