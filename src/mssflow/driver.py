"""Run orchestration: solve / check / density / exterior modes.

One run per process; every artifact is a deterministic function of the
configuration file.  Outputs land in the run directory:

    report.txt    hypothesis numbers, geometry constants, invariant clauses
    monitors.csv  one row per recorded step (fixed column set)
    field.dat     final interior field in the plain-text grid format
    exterior.csv  probe-radius decay table (exterior mode only)

Exit codes: 0 success, 1 configuration error, 2 hypothesis failed (no
--force), 3 blow-up guard tripped, 4 step budget exhausted, 5 invariant
clause or oracle mismatch (also a rising decay table), 6 successive
exterior shells disagree more under refinement.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import flow, oracles, shrinker
from .boundary import (HypothesisReport, check_condition_A, check_condition_B,
                       constant_map, top_singular_values)
from .config import ConfigError, RunConfig
from .domains import DomainSpec, estimate_c0_eta0
from .grid import Grid, build_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_BLOWUP = 3
EXIT_MAXSTEPS = 4
EXIT_INVARIANT = 5
EXIT_AGREEMENT = 6

_OUTCOME_EXIT = {"Converged": EXIT_OK, "BlowUp": EXIT_BLOWUP,
                 "MaxSteps": EXIT_MAXSTEPS}

# Frozen ceiling for the discrete self-shrinker residual of the sphere-cap
# oracle, sup over uniform-stencil nodes <= CAP_RESIDUAL_C * h^2 (measured
# 0.0625 * h^2 on reference grids; factor four of headroom).
CAP_RESIDUAL_C = 0.25

DENSITY_TOL = 1e-3
# The density states' spacing and cutoff, and the half-width of their
# square (the cap's residual outgrows its ceiling at the planes' 1.3)
DENSITY_H, DENSITY_CUTOFF = 0.025, 1.0
PLANE_HALFWIDTH, CAP_HALFWIDTH = 1.3, 0.8

# field.dat rows formatted and written at a time, which bounds the text
# held at once (one join of every row raises the run's peak memory)
FIELD_BLOCK = 4096


def _fmt(x) -> str:
    return repr(float(x))


def summary_line(mode: str, outcome: str, residual: float,
                 max_lambda: float) -> str:
    return (f"mode={mode} outcome={outcome} residual={_fmt(residual)} "
            f"max_lambda={_fmt(max_lambda)}")


def write_monitors_csv(path: str, records: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(flow.MonitorRecord.CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(v) for v in r.csv_row()) + "\n")


def write_field_dat(path: str, state: flow.GraphState) -> None:
    """Plain-text dump: header, then one row per interior node.

    Rows are formatted FIELD_BLOCK at a time with one %-pattern over
    column lists and written as one string per block.
    """
    grid = state.grid
    with open(path, "w") as fh:
        fh.write("# mssflow field dump\n")
        fh.write(f"# n = {grid.n}  m = {state.m}\n")
        fh.write(f"# dims = {' '.join(str(d) for d in grid.dims)}\n")
        fh.write(f"# h = {' '.join(_fmt(h) for h in grid.hs)}\n")
        fh.write(f"# domain = {_domain_echo(grid.spec)}\n")
        fh.write(f"# t = {_fmt(state.t)}\n")
        fh.write("# columns: flat_index x_1..x_n f_1..f_m\n")
        # tolist() hands over Python ints and floats, whose %d and %r are
        # str and repr, _fmt's text
        row = "%d" + " %r" * (grid.n + state.m) + "\n"
        for lo in range(0, grid.num_interior, FIELD_BLOCK):
            b = slice(lo, lo + FIELD_BLOCK)
            fh.write("".join(row % r for r in zip(
                grid.interior_flat[b].tolist(),
                *grid.interior_pos[b].T.tolist(), *state.f[b].T.tolist())))


def _domain_echo(spec: DomainSpec) -> str:
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        return (f"box lo=({', '.join(_fmt(v) for v in lo)}) "
                f"hi=({', '.join(_fmt(v) for v in hi)})")
    if spec.kind == "ball":
        return f"ball radius={_fmt(spec.radius)} dim={spec.dim}"
    if spec.kind == "annulus":
        return (f"annulus inner={_fmt(spec.inner_radius)} "
                f"outer={_fmt(spec.radius)} dim={spec.dim}")
    return (f"exterior excluded_radius={_fmt(spec.inner_radius)} "
            f"truncation={_fmt(spec.radius)} dim={spec.dim}")


def _geometry_header(grid: Grid) -> list:
    geom = estimate_c0_eta0(grid.spec)
    return [
        f"domain: {_domain_echo(grid.spec)}",
        f"grid: h = {_fmt(grid.h)}, interior nodes = {grid.num_interior}, "
        f"stepped = {int(grid.stepped.sum())}, "
        f"interpolated = {grid.dep_idx.size}",
        f"collar: eta0 = {_fmt(geom.eta0)} (half of min component reach / "
        f"gap), c0 = {_fmt(geom.c0)}, |Hess d| bound = {_fmt(geom.hess_d_bound)}"
        + (", strictly convex (c0 := 0)" if geom.strictly_convex else ""),
    ]


def _hypothesis_lines(rep: HypothesisReport) -> list:
    lines = [
        f"condition: {rep.condition}",
        f"w(psi) = {_fmt(rep.w_psi)}",
        f"sup|Dpsi| band = {_fmt(rep.sup_dpsi_band)}",
        f"sup|D2psi| band = {_fmt(rep.sup_d2psi_band)}",
        f"sup|Dpsi| global = {_fmt(rep.sup_dpsi_global)}",
        f"delta = {_fmt(rep.delta)} (admissible ceiling delta0 = "
        f"{_fmt(rep.delta0)})",
        f"lhs = {_fmt(rep.lhs_condition)}",
    ]
    if rep.c is not None:
        lines.append(f"threshold = 1 - c = {_fmt(1.0 - rep.c)}")
    lines.append(f"pass = {rep.passed}, margin eps = {_fmt(rep.eps)}")
    return lines


def _stage_line(res: SolveResult, monitor_every: int) -> str:
    """The super-step stage rule of a flow run: dt times the operator's
    estimated spectral radius, and the stages of a super-step that spans
    a whole record interval."""
    dt = res.records[-1].step_dt
    frac = flow.stage_fraction(res.grid, dt)
    return (f"stage rule: dt * rho = {_fmt(dt * res.grid.rho_estimate)}, "
            f"{flow.stage_count(monitor_every, frac)} stages per "
            f"{monitor_every}-step super-step")


def _invariant_lines(report: flow.InvariantReport) -> list:
    lines = []
    for c in report.clauses:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    lines.append(f"invariants: {'all passed' if report.passed else 'FAILED'}")
    return lines


@dataclass
class SolveResult:
    outcome: str
    state: flow.GraphState
    records: list
    hypothesis: HypothesisReport
    invariants: flow.InvariantReport | None
    exit_code: int
    grid: Grid


def _check(cfg: RunConfig, grid: Grid) -> HypothesisReport:
    geom = estimate_c0_eta0(grid.spec)
    if cfg.condition == "B":
        return check_condition_B(cfg.psi, grid, geom, cfg.delta, cfg.c)
    return check_condition_A(cfg.psi, grid, geom, cfg.delta)


def solve_once(cfg: RunConfig, spec: DomainSpec | None = None,
               force: bool = False) -> SolveResult:
    """Hypothesis check, flow run and invariant suite on one domain."""
    spec = cfg.domain if spec is None else spec
    grid = build_grid(spec, cfg.h)
    rep = _check(cfg, grid)
    if not rep.passed and not force:
        return SolveResult(outcome="HypothesisFail", state=None, records=[],
                           hypothesis=rep, invariants=None,
                           exit_code=EXIT_HYPOTHESIS, grid=grid)

    state = flow.make_state(grid, cfg.psi)
    monitors = flow.FlowMonitors(state, rep)
    final, records, outcome = flow.run_to_steady(
        state, cfg.tol_residual, cfg.max_steps, cfg.monitor_every,
        cfl=cfg.cfl, monitors=monitors)

    invariants = None
    code = _OUTCOME_EXIT[outcome]
    if outcome == "Converged" and monitors.eps is not None:
        invariants = flow.check_invariants(records, monitors)
        if not invariants.passed:
            code = EXIT_INVARIANT
    return SolveResult(outcome=outcome, state=final, records=records,
                       hypothesis=rep, invariants=invariants,
                       exit_code=code, grid=grid)


def run_check_hypothesis(cfg: RunConfig, out_dir: str) -> int:
    grid = build_grid(cfg.domain, cfg.h)
    rep = _check(cfg, grid)
    lines = _geometry_header(grid) + [""] + _hypothesis_lines(rep)
    _write_report(out_dir, lines)
    print(summary_line("check_hypothesis",
                       "HypothesisPass" if rep.passed else "HypothesisFail",
                       float("nan"), float("nan")))
    return EXIT_OK if rep.passed else EXIT_HYPOTHESIS


def run_solve(cfg: RunConfig, out_dir: str, force: bool = False) -> int:
    res = solve_once(cfg, force=force)
    lines = _geometry_header(res.grid) + [""]
    lines += _hypothesis_lines(res.hypothesis)
    if res.records:
        write_monitors_csv(os.path.join(out_dir, "monitors.csv"), res.records)
        write_field_dat(os.path.join(out_dir, "field.dat"), res.state)
        last = res.records[-1]
        lines += ["", f"outcome: {res.outcome}",
                  f"final residual sup = {_fmt(last.residual_sup)}",
                  f"final max lambda = {_fmt(last.max_lambda)}",
                  f"steps dt = {_fmt(last.step_dt)}, final t = {_fmt(last.t)}",
                  _stage_line(res, cfg.monitor_every)]
        if res.invariants is not None:
            lines += [""] + _invariant_lines(res.invariants)
        print(summary_line("solve", res.outcome, last.residual_sup,
                           last.max_lambda))
    else:
        lines += ["", "outcome: HypothesisFail (flow not started)"]
        print(summary_line("solve", res.outcome, float("nan"), float("nan")))
    _write_report(out_dir, lines)
    return res.exit_code


# ---------------------------------------------------------------------------
# exterior exhaustion
# ---------------------------------------------------------------------------

def _common_region_diff(prev_state: flow.GraphState,
                        state: flow.GraphState, radius: float) -> float:
    """Sup difference over shared lattice nodes with |x| <= radius."""
    grid = prev_state.grid
    k = np.nonzero(np.linalg.norm(grid.interior_pos, axis=1) <= radius)[0]
    k2 = state.grid.lattice_index(grid.lattice_coords()[k])
    shared = k2 >= 0
    return float(np.abs(prev_state.f[k[shared]] - state.f[k2[shared]])
                 .max(initial=0.0))


def _probe_ring(grid: Grid, rho: float) -> np.ndarray:
    """Interior rows with |dist - rho| <= h, dist = |x|: the nodes over
    which the far-field fit and the decay table's sup at rho are taken.
    The ring is 2h wide and |Df - l| decays outward, so its sup sits at
    the inner edge, near rho - h, not at rho."""
    dist = np.linalg.norm(grid.interior_pos, axis=1)
    return np.nonzero(np.abs(dist - rho) <= grid.h)[0]


@dataclass
class ExteriorReport:
    """Shell-by-shell results, agreement diffs and the far-field table."""

    shells: list                  # SolveResult per radius
    agreement: list               # sup diffs on the fixed common region
    agreement_region: float
    l_estimate: np.ndarray | None
    fit_rms: float
    decay_table: list             # (probe radius, sup |Df - l|) ascending
    exit_code: int
    notes: list


def _shell_child(conn, cfg: RunConfig, spec: DomainSpec, force: bool) -> None:
    """Forked child: solve_once on one shell and send back its SolveResult,
    or the exception it raised.  A result holds values, grids and reports,
    never the boundary map (which may hold closures that do not pickle),
    so it pickles whole."""
    try:
        res = solve_once(cfg, spec=spec, force=force)
    except Exception as exc:
        res = exc
    conn.send(res)


def _solve_shells(cfg: RunConfig, specs: list, force: bool) -> list:
    """solve_once on each spec, each in its own forked child process.

    At most one child per CPU this process may run on is solving at a
    time; children are started largest shell first, the longest solves.
    Forked children inherit solve_once and its inputs (patched or wrapped
    ones included), so no callable is pickled and no module is imported
    again.  Returns the results in spec order up to and including the
    first whose exit code is not EXIT_OK, as a serial loop would; an
    exception raised by that shell's solve is raised instead.  Children
    still solving are killed, and every child is reaped before returning.
    A child that dies without a result raises RuntimeError.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    cpus = len(os.sched_getaffinity(0))
    todo = list(range(len(specs)))        # popped from the end
    results, running, procs, shells = {}, {}, [], []
    try:
        for i in range(len(specs)):
            while i not in results:
                while todo and len(running) < cpus:
                    j = todo.pop()
                    conn, child_conn = ctx.Pipe()
                    with child_conn:
                        proc = ctx.Process(target=_shell_child, daemon=True,
                                           args=(child_conn, cfg, specs[j],
                                                 force))
                        proc.start()
                    procs.append((proc, conn))
                    running[conn] = j, proc
                for conn in wait(list(running)):
                    j, proc = running.pop(conn)
                    try:
                        res = conn.recv()
                    except EOFError:
                        proc.join()
                        raise RuntimeError(
                            f"the child solving the shell r = "
                            f"{specs[j].radius} exited with code "
                            f"{proc.exitcode} without a result") from None
                    results[j] = res
            if isinstance(results[i], Exception):
                raise results[i]
            shells.append(results[i])
            if results[i].exit_code != EXIT_OK:
                break
        return shells
    finally:
        for proc, conn in procs:
            proc.kill()
            proc.join()
            proc.close()
            conn.close()


def exterior_pipeline(cfg: RunConfig, force: bool = False) -> ExteriorReport:
    """Solve on an increasing family of shells and study the far field.

    Every shell shares the boundary-geometry constants of the inner
    boundary (they do not depend on the truncation radius), the same
    Dirichlet family, and nested lattices, so successive solutions are
    compared node-by-node on the fixed region |x| <= r_1 / 2.  The shells
    are independent problems and are solved concurrently (_solve_shells);
    the first that fails, in radius order, ends the pipeline.
    """
    notes = []
    region = 0.5 * cfg.radii[0]
    shells = _solve_shells(cfg, [
        DomainSpec.exterior(cfg.domain.inner_radius, r, cfg.domain.dim)
        for r in cfg.radii], force)
    solved = [res for res in shells if res.exit_code == EXIT_OK]
    diffs = [_common_region_diff(prev.state, res.state, region)
             for prev, res in zip(solved, solved[1:])]
    if len(solved) < len(shells):
        return ExteriorReport(shells=shells, agreement=diffs,
                              agreement_region=region, l_estimate=None,
                              fit_rms=float("nan"), decay_table=[],
                              exit_code=shells[-1].exit_code, notes=notes)

    code = EXIT_OK
    if any(b > a for a, b in zip(diffs, diffs[1:])):
        notes.append("shell agreement worsened under r-refinement")
        code = EXIT_AGREEMENT

    # Asymptotic gradient: least squares (the mean) over the outermost ring.
    final = shells[-1]
    J = flow.compute_fields(final.state).J
    ring = _probe_ring(final.grid, max(cfg.probe_radii))
    l_est = J[ring].mean(axis=0)
    fit_rms = float(np.sqrt(((J[ring] - l_est) ** 2).sum(axis=(1, 2))
                            .mean()))
    table = []
    for rho in sorted(cfg.probe_radii):
        ring = _probe_ring(final.grid, rho)
        dev = J[ring] - l_est
        sup = float(top_singular_values(dev).max()) \
            if ring.size else float("nan")
        table.append((rho, sup))
    if any(b[1] > a[1] + 1e-12 for a, b in zip(table, table[1:])):
        notes.append("decay table is not non-increasing")
        if code == EXIT_OK:
            code = EXIT_INVARIANT
    return ExteriorReport(shells=shells, agreement=diffs,
                          agreement_region=region, l_estimate=l_est,
                          fit_rms=fit_rms, decay_table=table,
                          exit_code=code, notes=notes)


def run_exterior(cfg: RunConfig, out_dir: str, force: bool = False) -> int:
    rep = exterior_pipeline(cfg, force=force)
    lines = []
    for r, res in zip(cfg.radii, rep.shells):
        lines += [f"--- shell r = {_fmt(r)} ---"]
        lines += _geometry_header(res.grid)
        lines += _hypothesis_lines(res.hypothesis)
        if res.records:
            last = res.records[-1]
            lines += [f"outcome: {res.outcome}",
                      f"final residual sup = {_fmt(last.residual_sup)}",
                      f"final max lambda = {_fmt(last.max_lambda)}",
                      _stage_line(res, cfg.monitor_every)]
            if res.invariants is not None:
                lines += _invariant_lines(res.invariants)
        else:
            lines += ["outcome: HypothesisFail (flow not started)"]
        lines.append("")
    for d in rep.agreement:
        lines.append(f"agreement with previous shell on |x| <= "
                     f"{_fmt(rep.agreement_region)}: sup diff = {_fmt(d)}")
    lines += rep.notes

    final = rep.shells[-1]
    if rep.l_estimate is not None:
        lines += ["asymptotic gradient estimate (rows are components):"]
        for A in range(rep.l_estimate.shape[0]):
            lines.append("  l[%d] = %s"
                         % (A, ", ".join(_fmt(v) for v in rep.l_estimate[A])))
        lines.append(f"fit rms on the outermost ring = {_fmt(rep.fit_rms)}")
        lines.append("decay table (probe radius -> sup |Df - l|):")
        for rho, sup in rep.decay_table:
            lines.append(f"  {_fmt(rho)} -> {_fmt(sup)}")
        with open(os.path.join(out_dir, "exterior.csv"), "w") as fh:
            fh.write("probe_radius,sup_df_minus_l\n")
            for rho, sup in rep.decay_table:
                fh.write(f"{_fmt(rho)},{_fmt(sup)}\n")
    _write_report(out_dir, lines)

    if not final.records:
        print(summary_line("exterior", final.outcome, float("nan"),
                           float("nan")))
        return rep.exit_code
    write_monitors_csv(os.path.join(out_dir, "monitors.csv"), final.records)
    write_field_dat(os.path.join(out_dir, "field.dat"), final.state)
    last = final.records[-1]
    print(summary_line("exterior",
                       final.outcome if rep.exit_code == EXIT_OK else "Failed",
                       last.residual_sup, last.max_lambda))
    return rep.exit_code


# ---------------------------------------------------------------------------
# density oracle
# ---------------------------------------------------------------------------

def _radial_density_reference(n: int, tau: float, offset: float,
                              cutoff: float) -> float:
    """Reference value of the cutoff density of a flat plane at distance
    offset from the origin, by fixed-grid Simpson quadrature in the radius."""
    r = np.linspace(0.0, cutoff, 20001)
    rho_sq = r * r + offset * offset
    phi = shrinker.phi_quintic(np.sqrt(rho_sq), cutoff)
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    integrand = phi * np.exp(-rho_sq / (4.0 * tau)) * r ** (n - 1) * surface
    integrand *= (4.0 * math.pi * tau) ** (-n / 2.0)
    h = r[1] - r[0]
    w = np.ones_like(r)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((integrand * w).sum() * h / 3.0)


def run_density_oracle(cfg: RunConfig, out_dir: str) -> int:
    """Evaluate the built-in closed-form states against their oracles."""
    d = cfg.density
    name = d["state"]
    plane = name in ("plane", "offset_plane", "half_plane")
    h, tau = DENSITY_H, d["time_gap"]
    halfwidth = PLANE_HALFWIDTH if plane else CAP_HALFWIDTH
    lines = [f"density oracle state: {name}", f"h = {_fmt(h)}, "
             f"halfwidth = {_fmt(halfwidth)}"
             + (f", time_gap = {_fmt(tau)}" if plane else "")]
    code = EXIT_OK
    residual = float("nan")
    if plane:
        off = d["offset"]       # 0.0 unless the state is offset_plane
        psi = constant_map([off], 2)
        oracle = oracles.half_plane_state if name == "half_plane" \
            else oracles.plane_state
        state = oracle(h=h, halfwidth=halfwidth, psi=psi)
        theta = shrinker.gaussian_density(state, psi, tau, DENSITY_CUTOFF)
        expected = _radial_density_reference(state.grid.n, tau, off,
                                             DENSITY_CUTOFF)
        if name == "half_plane":
            expected *= 0.5
        err = abs(theta - expected)
        lines += [f"density = {_fmt(theta)}",
                  f"reference = {_fmt(expected)}",
                  f"|difference| = {_fmt(err)} (tolerance {_fmt(DENSITY_TOL)})"]
        residual = err
        if err > DENSITY_TOL:
            code = EXIT_INVARIANT
    else:  # sphere_cap
        state = oracles.sphere_cap_state(h=h, halfwidth=halfwidth)
        field = shrinker.shrinker_residual_field(state, 1.0)
        norms = np.linalg.norm(field, axis=1)
        sup = float(norms[state.grid.full_stencil].max())
        bound = CAP_RESIDUAL_C * h * h
        lines += [f"self-shrinker residual sup (uniform stencils) = {_fmt(sup)}",
                  f"ceiling {_fmt(CAP_RESIDUAL_C)} * h^2 = {_fmt(bound)}"]
        residual = sup
        if sup > bound:
            code = EXIT_INVARIANT
    lines.append("oracle match" if code == EXIT_OK else "ORACLE MISMATCH")
    _write_report(out_dir, lines)
    print(summary_line("density_oracle",
                       "OracleMatch" if code == EXIT_OK else "OracleMismatch",
                       residual, float("nan")))
    return code


def _write_report(out_dir: str, lines: list) -> None:
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: RunConfig, out_dir: str | None = None, force: bool = False) -> int:
    out_dir = out_dir or cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:      # a file in the way, or no permission
        raise ConfigError(f"cannot make the output directory {out_dir!r}: "
                          f"{exc.strerror}") from None
    if cfg.mode == "check_hypothesis":
        return run_check_hypothesis(cfg, out_dir)
    if cfg.mode == "solve":
        return run_solve(cfg, out_dir, force=force)
    if cfg.mode == "exterior":
        return run_exterior(cfg, out_dir, force=force)
    return run_density_oracle(cfg, out_dir)
