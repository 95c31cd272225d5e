"""Spans around the public functions of mssflow, recorded from outside it.

The benchmark wraps the functions at the module attributes through which
the program calls them (driver -> boundary -> flow); nothing inside
src/mssflow is edited.  Each span is [name, start, end, parent, work]:
`parent` indexes the enclosing span (-1 at the root) and `work` is the
call's work count where one exists (nodes, points, steps).  Spans stay in
memory and are written out once the run has ended.  The per-layer
figures are totals and self times (a span's duration minus the time its
children cover) over those spans.
"""

from __future__ import annotations

import json
import statistics
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, work=None):
        """fn, timed as span `name`; work(args, result) gives its count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": t0, "end": t1, "parent": parent,
                                     "work": work}) + "\n")


def _steps(args, out) -> tuple:
    """(Euler steps taken, interior nodes) of one run_to_steady call."""
    state0, (final, records, _) = args[0], out
    return (round((final.t - state0.t) / records[-1].step_dt),
            state0.grid.num_interior)


def instrument(tracer: Tracer, cfg) -> None:
    """Wrap every traced entry point of the imported mssflow modules."""
    from mssflow import boundary, driver, flow

    def grid_work(args, grid):
        return (grid.num_interior, int(grid.dep_idx.size))

    patches = [
        (driver, "build_grid", "grid.build", grid_work),
        (boundary, "build_grid", "grid.build", grid_work),
        (driver, "check_condition_A", "boundary.check", None),
        (driver, "check_condition_B", "boundary.check", None),
        (boundary, "sup_norms", "boundary.sup_norms", None),
        (flow.FlowMonitors, "__init__", "flow.monitor_setup", None),
        (flow.FlowMonitors, "star_omega_floor", "flow.monitor_setup", None),
        (flow.FlowMonitors, "record", "flow.record", None),
        (flow, "run_to_steady", "flow.run_to_steady", _steps),
        (flow, "compute_fields", "flow.compute_fields",
         lambda args, out: args[0].grid.num_interior),
        (flow, "dissipation_rate", "flow.dissipation_rate", None),
        (flow, "check_invariants", "flow.check_invariants", None),
        (driver, "solve_once", "driver.solve_once", None),
        (driver, "exterior_pipeline", "driver.exterior_pipeline", None),
        (driver, "write_monitors_csv", "driver.write", None),
        (driver, "write_field_dat", "driver.write", None),
    ]
    for owner, attr, name, work in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))
    cfg.psi.jets = tracer.wrap("boundary.jets", cfg.psi.jets,
                               lambda args, out: len(out[0]))


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer totals, self times, counts and ratios over one traced run."""
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    total, self_s, calls = {}, {}, {}
    for s, d, o in zip(spans, dur, own):
        name = s[0]
        total[name] = total.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + o
        calls[name] = calls.get(name, 0) + 1

    def under(i, ancestor):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][3]
        return False

    grids = [s[4] for s in spans if s[0] == "grid.build"]
    sample_points = sum(s[4] for i, s in enumerate(spans)
                        if s[0] == "boundary.jets" and under(i, "boundary.check"))
    fields = [d for s, d in zip(spans, dur) if s[0] == "flow.compute_fields"]
    field_nodes = sum(s[4] for s in spans if s[0] == "flow.compute_fields")
    loops = [s[4] for s in spans if s[0] == "flow.run_to_steady"]
    loop_s = total.get("flow.run_to_steady", 0.0)
    check_s = total.get("boundary.check", 0.0)
    fields_s = sum(fields)
    fields_calls = len(fields)
    diss_calls = calls.get("flow.dissipation_rate", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "grid.builds": len(grids),
        "grid.build_s": total.get("grid.build", 0.0),
        "grid.nodes": sum(g[0] for g in grids),
        "grid.interpolated_nodes": sum(g[1] for g in grids),
        "boundary.check_s": check_s,
        "boundary.check_share": ratio(check_s, wall_s),
        "boundary.sup_norms_calls": calls.get("boundary.sup_norms", 0),
        "boundary.sup_norms_s": total.get("boundary.sup_norms", 0.0),
        "boundary.sup_norms_share": ratio(total.get("boundary.sup_norms", 0.0),
                                          wall_s),
        "boundary.sample_points": sample_points,
        "boundary.ns_per_sample": 1e9 * ratio(check_s, sample_points),
        "flow.steps": sum(steps for steps, _ in loops),
        "flow.fields_calls": fields_calls,
        "flow.fields_s": fields_s,
        "flow.fields_share": ratio(fields_s, wall_s),
        "flow.fields_ns_per_node": 1e9 * ratio(fields_s, field_nodes),
        "flow.fields_p99_us": 1e6 * (statistics.quantiles(fields, n=100)[98]
                                     if fields_calls >= 2 else sum(fields)),
        "flow.node_steps_per_s": ratio(sum(a * b for a, b in loops), loop_s),
        "flow.dissipation_calls": diss_calls,
        "flow.dissipation_s": total.get("flow.dissipation_rate", 0.0),
        "flow.dissipation_per_fields_call": ratio(diss_calls, fields_calls),
        "flow.record_calls": calls.get("flow.record", 0),
        "flow.record_s": self_s.get("flow.record", 0.0),
        "flow.monitor_setup_s": total.get("flow.monitor_setup", 0.0),
        "flow.loop_self_s": self_s.get("flow.run_to_steady", 0.0),
        "flow.invariants_s": total.get("flow.check_invariants", 0.0),
        "driver.io_s": total.get("driver.write", 0.0),
        "driver.exterior_post_s": self_s.get("driver.exterior_pipeline", 0.0),
    }
