"""Regenerate the stored reference data the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only at a commit whose numbers are the intended reference; the
files in perfbench/reference/ were written at the commit that defined the
benchmark.  It writes

- <workload>-field.npz for ball-solve and exterior-shells on seed 0: the
  final field (flat_index, f) from field.dat;
- reference.json: per field, the residual tolerance, the residual decay
  rate fitted over the second half of monitors.csv, and the field
  tolerance tol_residual / decay_rate; plus the checker's left-hand side on
  check-linear for every whole-degree rotation angle.

On linear data the Hessian is zero, so the checker's directional Hessian
norm is exactly 0.0 whatever its iteration does; the table is computed
with that term replaced by 0.0 after asserting the Hessians vanish, which
takes a second instead of half a minute per angle.  The seed-0 value and
one full unpatched check are compared against it before anything is
written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import run
import workloads
from mssflow import boundary, driver
from mssflow.config import load_config
from mssflow.domains import estimate_c0_eta0
from mssflow.grid import build_grid

HERE = os.path.dirname(os.path.abspath(__file__))
REF = os.path.join(HERE, "reference")
WORK = os.path.join(os.path.dirname(HERE), ".perfbench_run", "make_reference")
SEED0_LHS = 0.7571923547531629
FULL_CHECK_ANGLE = 137


def decay_rate(monitors_csv: str) -> float:
    """-slope of log(residual_sup) against t over the second half of rows."""
    with open(monitors_csv) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    t = np.array([r[header.index("t")] for r in rows])
    res = np.array([r[header.index("residual_sup")] for r in rows])
    half = len(rows) // 2
    slope = np.polyfit(t[half:], np.log(res[half:]), 1)[0]
    return -float(slope)


def _write_cfg(name: str, text: str) -> str:
    path = os.path.join(WORK, name + ".cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def field_reference(name: str) -> dict:
    wl = workloads.generate(name, 0)
    out = os.path.join(WORK, name)
    code = driver.run(load_config(_write_cfg(name, wl.text)), out_dir=out)
    if code != driver.EXIT_OK:
        raise SystemExit(f"{name}: exit code {code}")
    rows = run.read_field(Path(out) / "field.dat")
    np.savez_compressed(os.path.join(REF, f"{name}-field.npz"),
                        flat_index=np.array(list(rows), dtype=np.int64),
                        f=np.array(list(rows.values())))
    rate = decay_rate(os.path.join(out, "monitors.csv"))
    return {"file": f"{name}-field.npz", "tol_residual": wl.tol_residual,
            "decay_rate": rate, "field_tol": wl.tol_residual / rate}


def linear_lhs(angle: int) -> float:
    cfg = load_config(_write_cfg("check-linear",
                                 workloads.config_text("check-linear", angle)))
    grid = build_grid(cfg.domain, cfg.h)
    rep = boundary.check_condition_A(cfg.psi, grid,
                                     estimate_c0_eta0(cfg.domain), cfg.delta)
    if not rep.passed:
        raise SystemExit(f"check-linear fails at {angle} degrees")
    return rep.lhs_condition


def main() -> None:
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(REF, exist_ok=True)
    full = linear_lhs(FULL_CHECK_ANGLE)

    exact = boundary._sup_hessian_norm

    def zero_hessian_norm(hess):
        if hess.any():
            raise SystemExit("linear data produced a non-zero Hessian")
        return 0.0

    boundary._sup_hessian_norm = zero_hessian_norm
    try:
        table = {str(a): linear_lhs(a) for a in range(360)}
    finally:
        boundary._sup_hessian_norm = exact
    if table["0"] != SEED0_LHS or table[str(FULL_CHECK_ANGLE)] != full:
        raise SystemExit(f"shortcut disagrees with the full checker: "
                         f"{table['0']} / {table[str(FULL_CHECK_ANGLE)]} vs "
                         f"{SEED0_LHS} / {full}")

    fields = {name: field_reference(name)
              for name in ("ball-solve", "exterior-shells")}
    with open(os.path.join(REF, "reference.json"), "w") as fh:
        json.dump({"fields": fields, "check_linear_lhs": table}, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(WORK)
    print(json.dumps(fields, indent=1))
    print("check-linear lhs range:", min(table.values()), max(table.values()))


if __name__ == "__main__":
    sys.exit(main())
