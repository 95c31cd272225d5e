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

Exterior mode solves each shell in a child forked with os.fork.  The
child builds the shell's ShellResult (report block, records, final field,
agreement region and, on the outermost shell, the far field) and writes
it pickled to its own os.pipe; the parent reads the pipes with select,
compares the shells and writes the artifacts.  No grid, flow state or
field bundle crosses a pipe.
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


@dataclass
class FieldDump:
    """What field.dat holds: the domain and lattice, the time, and one row
    per interior node (flat lattice index, position, values)."""

    spec: DomainSpec
    dims: tuple
    hs: np.ndarray
    t: float
    flat: np.ndarray              # (K,) flat lattice indices, ascending
    pos: np.ndarray               # (K, n)
    f: np.ndarray                 # (K, m)

    @classmethod
    def of(cls, state: flow.GraphState) -> FieldDump:
        grid = state.grid
        return cls(grid.spec, grid.dims, grid.hs, state.t,
                   grid.interior_flat, grid.interior_pos, state.f)


def write_field_dat(path: str, field: FieldDump) -> None:
    """Plain-text dump: header, then one row per interior node.

    Rows are formatted FIELD_BLOCK at a time with one %-pattern over
    column lists and written as one string per block.
    """
    n, m = field.spec.dim, field.f.shape[1]
    with open(path, "w") as fh:
        fh.write("# mssflow field dump\n")
        fh.write(f"# n = {n}  m = {m}\n")
        fh.write(f"# dims = {' '.join(str(d) for d in field.dims)}\n")
        fh.write(f"# h = {' '.join(_fmt(h) for h in field.hs)}\n")
        fh.write(f"# domain = {_domain_echo(field.spec)}\n")
        fh.write(f"# t = {_fmt(field.t)}\n")
        fh.write("# columns: flat_index x_1..x_n f_1..f_m\n")
        # tolist() hands over Python ints and floats, whose %d and %r are
        # str and repr, _fmt's text
        row = "%d" + " %r" * (n + m) + "\n"
        for lo in range(0, field.flat.size, FIELD_BLOCK):
            b = slice(lo, lo + FIELD_BLOCK)
            fh.write("".join(row % r for r in zip(
                field.flat[b].tolist(), *field.pos[b].T.tolist(),
                *field.f[b].T.tolist())))


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
        write_field_dat(os.path.join(out_dir, "field.dat"),
                        FieldDump.of(res.state))
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

def _probe_ring(grid: Grid, rho: float) -> np.ndarray:
    """Interior rows with |dist - rho| <= h, dist = |x|: the nodes over
    which the far-field fit and the decay table's sup at rho are taken.
    The ring is 2h wide and |Df - l| decays outward, so its sup sits at
    the inner edge, near rho - h, not at rho."""
    dist = np.linalg.norm(grid.interior_pos, axis=1)
    return np.nonzero(np.abs(dist - rho) <= grid.h)[0]


def _far_field(state: flow.GraphState, probe_radii: list) -> tuple:
    """(l, fit rms, decay table) of a converged shell: the asymptotic
    gradient l, the least-squares fit (the mean) of Df over the outermost
    probe ring, the rms of that fit, and (probe radius, sup |Df - l|)
    for the probe radii ascending."""
    J = flow.compute_fields(state).J
    rings = [(rho, _probe_ring(state.grid, rho)) for rho in sorted(probe_radii)]
    outer = J[rings[-1][1]]
    l_est = outer.mean(axis=0)
    fit_rms = float(np.sqrt(((outer - l_est) ** 2).sum(axis=(1, 2)).mean()))
    table = [(rho, float(top_singular_values(J[ring] - l_est).max())
              if ring.size else float("nan")) for rho, ring in rings]
    return l_est, fit_rms, table


@dataclass
class ShellResult:
    """What the parent process reads of one exterior shell, built by the
    child that solved it: values only, no grid, state or field bundle.

    The region holds the rows with |x| <= r_1/2 + h, a one-step margin
    around the fixed agreement region |x| <= r_1/2: two shells' lattices
    may round one node's position differently, so a shell finds there
    every node of its neighbour's region.  The far field comes from the
    outermost shell when it converged.
    """

    lines: list                   # the shell's block of report.txt
    outcome: str
    exit_code: int
    hypothesis: HypothesisReport
    invariants: flow.InvariantReport | None
    records: list
    field: FieldDump | None = None    # None when the flow did not run
    region: tuple | None = None       # (lattice coords, values, |x| <= r_1/2)
    far_field: tuple | None = None    # (l, fit rms, decay table)


def _shell_result(cfg: RunConfig, spec: DomainSpec,
                  res: SolveResult) -> ShellResult:
    """The ShellResult of solve_once's result `res` on the shell `spec`."""
    lines = [f"--- shell r = {_fmt(spec.radius)} ---"]
    if res.grid is not None:
        lines += _geometry_header(res.grid) + _hypothesis_lines(res.hypothesis)
    out = ShellResult(lines, res.outcome, res.exit_code, res.hypothesis,
                      res.invariants, res.records)
    if not res.records:
        lines += ["outcome: HypothesisFail (flow not started)", ""]
        return out
    last = res.records[-1]
    lines += [f"outcome: {res.outcome}",
              f"final residual sup = {_fmt(last.residual_sup)}",
              f"final max lambda = {_fmt(last.max_lambda)}",
              _stage_line(res, cfg.monitor_every)]
    if res.invariants is not None:
        lines += _invariant_lines(res.invariants)
    lines.append("")
    out.field = FieldDump.of(res.state)
    out.region = _agreement_region(res.grid, res.state.f, 0.5 * cfg.radii[0])
    if res.exit_code == EXIT_OK and spec.radius == cfg.radii[-1]:
        out.far_field = _far_field(res.state, cfg.probe_radii)
    return out


def _agreement_region(grid: Grid, f: np.ndarray, radius: float) -> tuple:
    """Lattice coordinates and values of the rows with |x| <= radius + h,
    and which of them have |x| <= radius (see ShellResult)."""
    dist = np.linalg.norm(grid.interior_pos, axis=1)
    rows = np.nonzero(dist <= radius + grid.h)[0]
    return grid.lattice_coords()[rows], f[rows], dist[rows] <= radius


def _common_region_diff(prev: ShellResult, res: ShellResult) -> float:
    """Sup difference over the nodes of prev's agreement region that are
    interior nodes of res too, matched by lattice coordinates."""
    coords, f, inside = prev.region
    coords2, f2, _ = res.region
    index = {c: j for j, c in enumerate(map(tuple, coords2.tolist()))}
    pairs = [(i, index[c]) for i, c in enumerate(map(tuple, coords.tolist()))
             if inside[i] and c in index]
    k, k2 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return float(np.abs(f[k] - f2[k2]).max(initial=0.0))


@dataclass
class ExteriorReport:
    """Shell-by-shell results (ShellResult per radius, up to and including
    the first that failed), agreement diffs and the far-field table."""

    shells: list
    agreement: list               # sup diffs on the fixed common region
    agreement_region: float
    l_estimate: np.ndarray | None
    fit_rms: float
    decay_table: list             # (probe radius, sup |Df - l|) ascending
    exit_code: int
    notes: list


def _shell_child(fd: int, cfg: RunConfig, spec: DomainSpec,
                 force: bool) -> None:
    """Forked child: solve_once on one shell, then write its ShellResult,
    or the exception the solve raised, to the pipe's write end fd.  Ends
    the process with os._exit, code 0 once the result is written: the
    child never returns into the parent's stack and never flushes the
    parent's buffered output."""
    import pickle

    code = 1
    try:
        try:
            res = _shell_result(cfg, spec,
                                solve_once(cfg, spec=spec, force=force))
        except Exception as exc:
            res = exc
        with open(fd, "wb") as fh:
            pickle.dump(res, fh)
        code = 0
    finally:
        os._exit(code)


def _solve_shells(cfg: RunConfig, specs: list, force: bool) -> list:
    """The ShellResult of each spec, each solved in its own forked child.

    At most one child per CPU this process may run on is solving at a
    time; children are started largest shell first, the longest solves.
    Forked children inherit solve_once and its inputs (patched or wrapped
    ones included), so no callable is pickled and no module is imported
    again.  Each child writes its pickled result to its own pipe, read
    here as it arrives.  Returns the results in spec order up to and
    including the first whose exit code is not EXIT_OK, as a serial loop
    would; an exception raised by that shell's solve is raised instead.
    A child that ends without a result raises RuntimeError with its exit
    code (the negated signal number, if a signal ended it).  Children
    still solving are killed, and every child is reaped before returning.
    """
    import pickle
    import select
    import signal

    cpus = len(os.sched_getaffinity(0))
    todo = list(range(len(specs)))        # popped from the end
    results, running, shells = {}, {}, []   # running: read fd -> child
    try:
        for i in range(len(specs)):
            while i not in results:
                while todo and len(running) < cpus:
                    j = todo.pop()
                    r, w = os.pipe()
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _shell_child(w, cfg, specs[j], force)
                    except OSError:
                        os.close(r)
                        raise
                    finally:
                        os.close(w)     # else the read end never sees EOF
                    running[r] = j, pid, bytearray()
                for r in select.select(list(running), [], [])[0]:
                    j, pid, buf = running[r]
                    chunk = os.read(r, 1 << 16)
                    if chunk:
                        buf += chunk
                        continue
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del running[r]
                    os.close(r)
                    if code:
                        raise RuntimeError(
                            f"the child solving the shell r = "
                            f"{specs[j].radius} exited with code {code} "
                            f"without a result")
                    results[j] = pickle.loads(buf)
            if isinstance(results[i], Exception):
                raise results[i]
            shells.append(results[i])
            if results[i].exit_code != EXIT_OK:
                break
        return shells
    finally:
        for r, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)


def exterior_pipeline(cfg: RunConfig, force: bool = False) -> ExteriorReport:
    """Solve on an increasing family of shells and study the far field.

    Every shell shares the boundary-geometry constants of the inner
    boundary (they do not depend on the truncation radius), the same
    Dirichlet family, and nested lattices, so successive solutions are
    compared node-by-node on the fixed region |x| <= r_1 / 2.  The shells
    are independent problems and are solved concurrently, each in a
    forked child that sends back its ShellResult (_solve_shells): the
    report block, field, agreement region and, from the outermost shell,
    the far field are formed in the children.  The first shell that
    fails, in radius order, ends the pipeline.
    """
    notes = []
    shells = _solve_shells(cfg, [
        DomainSpec.exterior(cfg.domain.inner_radius, r, cfg.domain.dim)
        for r in cfg.radii], force)
    solved = [res for res in shells if res.exit_code == EXIT_OK]
    diffs = [_common_region_diff(prev, res)
             for prev, res in zip(solved, solved[1:])]
    code = shells[-1].exit_code   # EXIT_OK only when every shell solved
    l_est, fit_rms, table = shells[-1].far_field or (None, float("nan"), [])
    if code == EXIT_OK:
        if any(b > a for a, b in zip(diffs, diffs[1:])):
            notes.append("shell agreement worsened under r-refinement")
            code = EXIT_AGREEMENT
        if any(b[1] > a[1] + 1e-12 for a, b in zip(table, table[1:])):
            notes.append("decay table is not non-increasing")
            if code == EXIT_OK:
                code = EXIT_INVARIANT
    return ExteriorReport(shells=shells, agreement=diffs,
                          agreement_region=0.5 * cfg.radii[0],
                          l_estimate=l_est, fit_rms=fit_rms,
                          decay_table=table, exit_code=code, notes=notes)


def run_exterior(cfg: RunConfig, out_dir: str, force: bool = False) -> int:
    rep = exterior_pipeline(cfg, force=force)
    lines = [line for res in rep.shells for line in res.lines]
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
    write_field_dat(os.path.join(out_dir, "field.dat"), final.field)
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
