"""Benchmark of mssflow: three solver workloads, checked end to end.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; nothing needs installing.  For
each workload the benchmark writes the seeded configuration file (see
workloads.py), then

1. measures setup_s: a fresh interpreter imports mssflow (numpy
   included) and loads the config, several times, median reported;
2. runs the program once per fresh worker process (worker.py), timing
   driver.run from the loaded config to the last artifact written, and
   repeats while another run fits in --seconds (at least one run);
3. with --trace 1, adds one traced run whose spans give the per-layer
   figures (tracing.py);
4. checks every run's outputs: exit code and outcome, the six invariant
   clauses on every solved shell, final residual below tolerance, the
   hypothesis verdict and left-hand side, byte-identical artifacts across
   runs (traced included), the seed-0 field against the stored reference,
   and exact repetition of work counts.

It prints each metric by name with its unit, the environment, and as its
last line one JSON object {correct, attempted, failed, metrics}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  It exits 1 when any check fails and 2 when the checkout
holds no mssflow sources.  Work files go to .perfbench_run/ in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
REFERENCE = BENCH / "reference"

# One BLAS/OpenMP thread per run: at or below nproc on any machine, and it
# keeps a shared two-core box from oversubscribing.
THREADS = 1
SETUP_REPEATS = 7
DEADLINE_S = 170.0          # whole invocation, per workload
LHS_SLACK = 1e-12
# Work counts that must repeat exactly between runs of one config.
COUNT_KEYS = ("flow.steps", "flow.fields_calls", "flow.dissipation_calls",
              "flow.record_calls", "boundary.sup_norms_calls", "grid.builds",
              "grid.nodes", "grid.interpolated_nodes",
              "boundary.sample_points", "driver.io_bytes")
ARTIFACTS = ("monitors.csv", "field.dat", "exterior.csv")
SETUP_CODE = ("import sys\n"
              "from mssflow import cli, driver\n"
              "from mssflow.config import load_config\n"
              "load_config(sys.argv[1])\n")


class CheckoutError(RuntimeError):
    """The checkout does not hold the program."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["MSSFLOW_THREADS"] = str(THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "scipy": scipy_version, "threads": THREADS}


def program_digest() -> str:
    """Hash of the program sources, so stored hashes and counts only ever
    compare runs of identical code."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tail_percentile(values: list):
    """(p, value) of the highest whole percentile with >= 10 samples above
    it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure_setup(cfg_path: Path, env: dict, deadline: float) -> float:
    """Median wall time of a fresh interpreter importing mssflow and loading
    the config; one unmeasured warm-up first fills the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg_path)],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckoutError("setup probe failed:\n" + proc.stderr)
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_once(cfg_path: Path, run_dir: Path, index: int, traced: bool,
             env: dict, deadline: float) -> dict:
    """One worker process; returns its result plus artifact hashes/bytes."""
    out = run_dir / f"run{index}"
    result_path = run_dir / f"run{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(cfg_path), str(out),
           str(result_path)]
    if traced:
        cmd += ["--trace", str(run_dir / "spans.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "out": out}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"worker exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}", "out": out}
    res = json.loads(result_path.read_text())
    res["out"] = out
    res["traced"] = traced
    res["hashes"] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ARTIFACTS if (out / name).exists()}
    res["hashes"]["stdout"] = hashlib.sha256(res["stdout"].encode()).hexdigest()
    res["io_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return res


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    return json.loads((REFERENCE / "reference.json").read_text())


def read_field(path: Path) -> dict:
    """flat_index -> tuple of field values, from a field.dat file."""
    n = None
    rows = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                if line.startswith("# n = "):
                    n = int(line.split()[3])
                continue
            cols = line.split()
            rows[int(cols[0])] = tuple(float(v) for v in cols[1 + n:])
    return rows


def field_problems(wl, out: Path, ref: dict) -> list:
    import numpy as np
    entry = ref["fields"][wl.name]
    stored = np.load(REFERENCE / entry["file"])
    rows = read_field(out / "field.dat")
    idx = stored["flat_index"].tolist()
    if sorted(rows) != sorted(idx):
        return ["final field is on other nodes than the reference field"]
    f = np.array([rows[k] for k in idx])
    gap = float(np.abs(f - stored["f"]).max())
    if gap > entry["field_tol"]:
        return [f"final field differs from the reference by {gap:.3g} > "
                f"{entry['field_tol']:.3g} (tol_residual / decay rate)"]
    return []


def run_problems(wl, res: dict, ref: dict) -> list:
    """Correctness failures of one run's exit code and artifacts."""
    if "error" in res:
        return [res["error"]]
    problems = []
    if res["exit_code"] != 0:
        problems.append(f"exit code {res['exit_code']}")
    summary = dict(tok.split("=", 1) for tok in res["stdout"].split()
                   if "=" in tok)
    if summary.get("outcome") != wl.expected_outcome:
        problems.append(f"outcome {summary.get('outcome')} is not "
                        f"{wl.expected_outcome}")
    report_path = res["out"] / "report.txt"
    if not report_path.exists():
        return problems + ["no report.txt written"]
    report = report_path.read_text()
    verdicts = re.findall(r"^pass = (\w+)", report, re.M)
    if verdicts != ["True"] * max(wl.shells, 1):
        problems.append(f"hypothesis verdicts {verdicts}")
    if wl.shells:
        if (report.count("[PASS] ") != 6 * wl.shells or "[FAIL]" in report
                or report.count("invariants: all passed") != wl.shells):
            problems.append("an invariant clause failed or is missing")
        residuals = [float(v) for v in
                     re.findall(r"^final residual sup = (\S+)", report, re.M)]
        if len(residuals) != wl.shells or \
                not all(r < wl.tol_residual for r in residuals):
            problems.append(f"final residuals {residuals} not all below "
                            f"{wl.tol_residual}")
        if wl.seed == 0:
            problems += field_problems(wl, res["out"], ref)
    else:
        found = re.search(r"^lhs = (\S+)", report, re.M)
        lhs = float(found.group(1)) if found else float("nan")
        floor = ref["check_linear_lhs"][str(wl.angle_deg)]
        if not lhs >= floor - LHS_SLACK:
            problems.append(f"lhs {lhs!r} below the reference {floor!r}")
    return problems


def store_problems(key: str, hashes: dict, counts: dict | None) -> list:
    """Compare with earlier invocations on the same program and config."""
    path = WORK / "store" / f"{key}.json"
    entry = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    if entry.get("hashes", hashes) != hashes:
        problems.append("artifacts differ from an earlier invocation")
    if counts is not None:
        old = entry.get("counts", counts)
        bad = sorted(k for k in counts if old.get(k, counts[k]) != counts[k])
        if bad:
            problems.append(f"counts differ from an earlier invocation: {bad}")
        entry["counts"] = counts
    entry["hashes"] = hashes
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(entry, indent=1))
    os.replace(tmp, path)
    return problems


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   ref: dict, env: dict, digest: str) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    wl = workloads.generate(name, seed)
    run_dir = WORK / "runs" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.cfg"
    cfg_path.write_text(wl.text)

    runs = []
    t0 = time.perf_counter()
    while True:
        runs.append(run_once(cfg_path, run_dir, len(runs), False, env,
                             deadline))
        if "error" in runs[-1]:
            break
        per_run = statistics.median(r["wall_s"] for r in runs)
        if time.perf_counter() - t0 + per_run > seconds:
            break
    if trace and "error" not in runs[-1]:
        runs.append(run_once(cfg_path, run_dir, len(runs), True, env,
                             deadline))
    setup_s = None if trace else measure_setup(cfg_path, env, deadline)

    problems = [run_problems(wl, r, ref) for r in runs]
    good = [i for i, r in enumerate(runs) if "error" not in r]
    if good:
        first = runs[good[0]]
        for i in good[1:]:
            if runs[i]["hashes"] != first["hashes"]:
                problems[i].append("artifacts differ from run 0")
            if runs[i]["io_bytes"] != first["io_bytes"]:
                problems[i].append("artifact bytes differ from run 0")
        last = runs[good[-1]]
        counts = None
        if last["traced"]:
            counts = {k: last["layers"][k] for k in COUNT_KEYS
                      if k in last["layers"]}
            counts["driver.io_bytes"] = last["io_bytes"]
        key = hashlib.sha256((digest + wl.text).encode()).hexdigest()[:32]
        problems[good[-1]] += store_problems(key, first["hashes"], counts)
    good = [runs[i] for i in good]

    timed = [r for r in good if not r["traced"]]
    walls = [r["wall_s"] for r in timed]
    result = {
        "workload": name, "seed": seed, "angle_deg": wl.angle_deg,
        "attempted": len(runs), "failed": sum(1 for p in problems if p),
        "problems": [f"run {i}: {p}" for i, ps in enumerate(problems)
                     for p in ps],
        "env": environment(good[0]["numpy"] if good else "unknown"),
        "runs": [{k: v for k, v in r.items() if k not in ("out", "stdout")}
                 for r in runs],
    }
    if walls:
        result["end_to_end"] = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        if setup_s is not None:
            result["end_to_end"]["setup_s"] = setup_s
        result["wall_runs"] = walls
    if trace and good and good[-1]["traced"]:
        layers = dict(good[-1]["layers"])
        layers["config.load_s"] = statistics.median(r["load_s"] for r in good)
        layers["run.cpu_s"] = statistics.median(r["cpu_s"] for r in timed)
        layers["driver.io_bytes"] = good[-1]["io_bytes"]
        layers["trace.overhead_s"] = (good[-1]["wall_s"]
                                      - statistics.median(walls))
        result["per_layer"] = layers
        spans = run_dir / "spans.jsonl"
        if spans.exists():
            (WORK / "results").mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans),
                        WORK / "results" / f"{name}-seed{seed}.spans.jsonl")
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(res: dict, trace: bool, units: dict) -> dict:
    """Print one workload's lines; return its metrics for the JSON line."""
    name = res["workload"]
    env = res["env"]
    print(f"[{name}] seed={res['seed']} angle={res['angle_deg']}deg "
          f"nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"threads={env['threads']}")
    for p in res["problems"]:
        print(f"[{name}] CHECK FAILED {p}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"[{name}] failed_runs = {failed / attempted:.4g} share "
          f"({failed} of {attempted} runs)")
    metrics = {}
    if "wall_runs" in res:
        walls = res["wall_runs"]
        tail = tail_percentile(walls)
        print(f"[{name}] wall_s runs = {len(walls)}; highest percentile with "
              f">= 10 runs beyond it: "
              + (f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                 "none (fewer than 11 runs)"))
    block = "per_layer" if trace else "end_to_end"
    for key, value in res.get(block, {}).items():
        unit = units.get(key, "")
        print(f"[{name}] {key} = {value:.6g} {unit}")
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mssflow" / "__init__.py").is_file():
        print(f"no mssflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    env = child_env()
    ref = load_reference()
    units = load_units()
    digest = program_digest()
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            res = bench_workload(name, args.seed, args.seconds,
                                 bool(args.trace), ref, env, digest)
        except CheckoutError as exc:
            print(exc, file=sys.stderr)
            return 2
        out = report(res, bool(args.trace), units)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in out.items()})
        attempted += res["attempted"]
        failed += res["failed"]
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        (WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(res, indent=1, default=str))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
