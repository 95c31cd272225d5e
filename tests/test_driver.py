"""Configuration parsing, CLI contract, artifacts and exit codes."""

import ast
import json
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from mssflow import boundary as bd, cli, driver, flow
from mssflow.config import ConfigError, load_config
from mssflow.domains import DomainError, DomainSpec
from mssflow.grid import build_grid
from reference import LawsonOssermanMap, LinearMap

BALL_SOLVE = """
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
h = 0.0625

[flow]
cfl = 0.9
tol_residual = 1e-5
max_steps = 100000
monitor_every = 25

[hypothesis]
condition = A
delta = 0.1
"""


# the [boundary] body of BALL_SOLVE, for cases that swap the data family
BALL_TRIG = """family = trigonometric
m = 2
amplitudes = 0.01, 0.005
wave_vector_1 = 2.0, 1.0
wave_vector_2 = 0.0, 2.0
phases = 0.0, 0.5"""


EXTERIOR = """
[run]
mode = exterior

[domain]
kind = exterior
dim = 2
inner_radius = 1.0

[boundary]
family = constant
m = 1
values = 0.0

[grid]
h = 0.2

[hypothesis]
condition = B
delta = 0.012
c = 0.5

[exterior]
radii = {radii}
probe_radii = {probes}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "mssflow.cli", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_load_solve_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BALL_SOLVE), mode="solve")
    assert cfg.domain.kind == "ball" and cfg.psi.family == "trigonometric"
    assert cfg.delta == 0.1 and cfg.tol_residual == 1e-5


@pytest.mark.parametrize("bad, mode", [
    (BALL_SOLVE.replace("[grid]\nh = 0.0625", "[grid]\nh = 0.0625\nspeed = 9"),
     "solve"),
    ("[run]\nmode = density_oracle\n\n[density]\nstate = plane\nslope = 0.3\n",
     "density_oracle"),
], ids=["grid-speed", "density-slope"])
def test_unknown_key_is_hard_error(tmp_path, bad, mode):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_cfg(tmp_path, bad), mode=mode)


def test_unknown_section_is_hard_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write_cfg(tmp_path, BALL_SOLVE + "\n[plots]\nstyle = x\n"),
                    mode="solve")


def test_mode_mismatch_rejected(tmp_path):
    with pytest.raises(ConfigError, match="declares mode"):
        load_config(write_cfg(tmp_path, BALL_SOLVE), mode="exterior")


def test_lawson_osserman_family_parses(tmp_path):
    text = """
    [run]
    mode = check_hypothesis

    [domain]
    kind = ball
    dim = 4
    radius = 1.0

    [boundary]
    family = lawson_osserman_scaled
    m = 3
    scale = 0.05

    [grid]
    h = 0.2

    [hypothesis]
    delta = 0.2
    """
    cfg = load_config(write_cfg(tmp_path, text), mode="check_hypothesis")
    assert cfg.psi.family == "lawson_osserman_scaled"
    assert cfg.psi.n == 4 and cfg.psi.m == 3


def _boundary_case(family, body):
    # BALL_SOLVE with other [boundary] data; the sphere-to-sphere family
    # lives on the 4-ball
    dim = 4 if family == "lawson_osserman_scaled" else 2
    return BALL_SOLVE.replace("dim = 2", f"dim = {dim}").replace(
        BALL_TRIG, f"family = {family}\n{body}")


@pytest.mark.parametrize("family, body, ref", [
    ("constant", "values = 0.4, -0.1",
     LinearMap(np.zeros((2, 2)), [0.4, -0.1])),
    ("linear", "matrix = 0.2, -0.3; 0.1, 0.05",
     LinearMap([[0.2, -0.3], [0.1, 0.05]])),
    ("linear", "matrix = 0.2, -0.3; 0.1, 0.05\noffset = 1.0, -2.0",
     LinearMap([[0.2, -0.3], [0.1, 0.05]], [1.0, -2.0])),
    ("lawson_osserman_scaled", "scale = 0.7", LawsonOssermanMap(0.7)),
], ids=["constant", "linear", "linear-offset", "lawson-osserman"])
def test_term_list_families_match_closed_forms(tmp_path, family, body, ref):
    # the config's polynomial term lists against a matmul and an einsum:
    # derivatives bit for bit; values, summed in another order, to 4 ulps
    # of each component's largest value
    psi = load_config(write_cfg(tmp_path, _boundary_case(family, body))).psi
    assert (psi.family, psi.n, psi.m) == (family, ref.n, ref.m)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (200, ref.n))
    vals, jac, hess = psi.jets(pts)
    ref_vals, ref_jac, ref_hess = ref.jets(pts)
    assert (jac == ref_jac).all() and (hess == ref_hess).all()
    ulp = np.spacing(np.abs(ref_vals).max(axis=0))
    assert (np.abs(vals - ref_vals) <= 4 * ulp).all()


_WAVES = "wave_vector_1 = 2.0, 1.0\nwave_vector_2 = 0.0, 2.0"


@pytest.mark.parametrize("family, body, key", [
    ("constant", "values = 0.4, nan", "values"),
    ("linear", "matrix = 0.2, 0.0; inf, 0.1", "matrix"),
    ("linear", "matrix = ;", "matrix"),
    ("linear", "matrix = 0.2, 0.0; 0.0, 0.1\noffset = 0.0, -inf", "offset"),
    ("polynomial", "m = 2\npoly_1 = 0.01, 2, 0\npoly_2 = nan, 0, 2",
     "poly_2"),
    ("trigonometric", f"amplitudes = inf, 0.005\n{_WAVES}", "amplitudes"),
    ("trigonometric", "amplitudes = 0.01, 0.005\nwave_vector_1 = 2.0, 1.0\n"
                      "wave_vector_2 = nan, 2.0", "wave_vector_2"),
    ("trigonometric", f"amplitudes = 0.01, 0.005\n{_WAVES}\nphases = 0, nan",
     "phases"),
    ("lawson_osserman_scaled", "scale = nan", "scale"),
], ids=["values", "matrix", "matrix-empty", "offset", "poly", "amplitudes",
        "wave-vector", "phases", "scale"])
def test_boundary_data_must_be_finite_numbers(tmp_path, family, body, key):
    # a nan or inf datum, or an empty key, is a configuration error that
    # names the key, not a LAPACK or numpy failure
    path = write_cfg(tmp_path, _boundary_case(family, body))
    with pytest.raises(ConfigError,
                       match=rf"\[boundary\] {key} must hold finite numbers"):
        load_config(path)


@pytest.mark.parametrize("line", ["h = nan", "halfwidth = inf",
                                  "time_gap = 0.0", "cutoff = -1.0",
                                  "offset = nan"],
                         ids=["h-nan", "halfwidth-inf", "time-gap-zero",
                              "cutoff-negative", "offset-nan"])
def test_density_config_rejects_bad_numbers(tmp_path, line):
    text = ("[run]\nmode = density_oracle\n\n[density]\n"
            f"state = offset_plane\n{line}\n")
    with pytest.raises(ConfigError, match=r"\[density\] " + line.split()[0]):
        load_config(write_cfg(tmp_path, text))


def test_exterior_radius_margin_validated(tmp_path):
    def cfg(radii):
        text = EXTERIOR.format(radii=radii, probes="2.5, 3.5")
        return load_config(write_cfg(tmp_path, text), mode="exterior")

    # first radius must clear twice (diam + 2 eta0 + d0) = 8 for a unit hole
    with pytest.raises(ConfigError, match="margin"):
        cfg("7.0, 9.0")
    with pytest.raises(ConfigError, match="increasing"):
        cfg("9.0, 9.0")
    assert cfg("9.0, 11.0").radii == [9.0, 11.0]


def _poly_solve(poly_1):
    return BALL_SOLVE.replace(
        BALL_TRIG, f"family = polynomial\nm = 2\npoly_1 = {poly_1}\n"
                   "poly_2 = 0.01, 0, 2")


def test_polynomial_terms_parse(tmp_path):
    text = _poly_solve("0.01, 2, 0; 0.02, 1.0, 1;")
    cfg = load_config(write_cfg(tmp_path, text))
    coeffs, expos = cfg.psi.terms[0]
    np.testing.assert_array_equal(coeffs, [0.01, 0.02])
    np.testing.assert_array_equal(expos, [[2, 0], [1, 1]])


@pytest.mark.parametrize("term", ["0.01, 2, 0, 5", "0.01, 2.7, 0", "0.01",
                                  "0.01, 2, nan", "0.01, inf, 0"],
                         ids=["extra-exponent", "fractional-exponent",
                              "no-exponents", "nan-exponent", "inf-exponent"])
def test_polynomial_term_needs_dim_integral_exponents(tmp_path, term):
    # each term is a coefficient and exactly dim integral exponents: an
    # extra, missing or fractional exponent names the key and the term
    path = write_cfg(tmp_path, _poly_solve(f"0.02, 1, 1; {term}"))
    with pytest.raises(ConfigError, match=f"poly_1 term '{term}'"):
        load_config(path)
    r = run_cli(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert r.returncode == 1, r.stdout + r.stderr
    assert "configuration error:" in r.stderr and "poly_1" in r.stderr
    assert "Traceback" not in r.stderr


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------

def test_cli_solve_constant_zero_steps(tmp_path):
    cfg = BALL_SOLVE.replace(BALL_TRIG, "family = constant\nm = 2\n"
                                        "values = 0.4, -0.1")
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    r = run_cli(["solve", "--config", path, "--out", str(out)])
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("mode=solve outcome=Converged")
    report = (out / "report.txt").read_text()
    assert "final t = 0.0" in report
    assert (out / "monitors.csv").exists() and (out / "field.dat").exists()


def test_cli_hypothesis_failure_exit_two(tmp_path):
    cfg = BALL_SOLVE.replace(
        "amplitudes = 0.01, 0.005", "amplitudes = 0.3, 0.2")
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    r = run_cli(["solve", "--config", path, "--out", str(out)])
    assert r.returncode == 2
    assert "outcome=HypothesisFail" in r.stdout
    assert "pass = False" in (out / "report.txt").read_text()
    assert not (out / "monitors.csv").exists()


def test_cli_forced_run_proceeds(tmp_path):
    cfg = BALL_SOLVE.replace(
        "amplitudes = 0.01, 0.005", "amplitudes = 0.12, 0.08")
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    r = run_cli(["solve", "--config", path, "--out", str(out), "--force"])
    assert r.returncode == 0, r.stdout + r.stderr
    assert "outcome=Converged" in r.stdout


@pytest.mark.parametrize("old, new", [
    ("delta = 0.1", ""),
    ("monitor_every = 25", "monitor_every = 0"),
    ("family = trigonometric\nm = 2", "family = trigonometric\nm = 3"),
    ("wave_vector_2 = 0.0, 2.0", "wave_vector_2 = 0.0, 2.0\nwave_vector_3 = 1.0, 1.0"),
    ("cfl = 0.9", "cfl = 1.5"),
    ("cfl = 0.9", "cfl = 0.0"),
    ("tol_residual = 1e-5", "tol_residual = 0.0"),
    ("cfl = 0.9", "cfl = 0.9\nlambda_guard = nan"),
    ("cfl = 0.9", "cfl = 0.9\nlambda_guard = -1"),
    ("h = 0.0625", "h = nan"),
    ("kind = ball\ndim = 2\nradius = 1.0", "kind = box\ndim = 3\nedges = 1.0, 1.0"),
    (BALL_TRIG, "family = lawson_osserman_scaled\nscale = 0.05"),
    ("radius = 1.0", ""),
    (BALL_TRIG, "family = constant\nm = 2"),
    (BALL_TRIG, "family = linear\nm = 2"),
    ("amplitudes = 0.01, 0.005\n", ""),
    (BALL_TRIG, "family = lawson_osserman_scaled"),
], ids=["no-delta", "monitor-every-zero", "m-mismatch", "wave-vector-3",
        "cfl-above-one", "cfl-zero", "tol-residual-zero", "lambda-guard-nan",
        "lambda-guard-negative", "h-nan", "box-dim-mismatch",
        "lawson-osserman-dim-2", "ball-no-radius", "constant-no-values",
        "linear-no-matrix", "trigonometric-no-amplitudes",
        "lawson-osserman-no-scale"])
def test_cli_config_error_exit_one(tmp_path, old, new):
    assert old in BALL_SOLVE
    path = write_cfg(tmp_path, BALL_SOLVE.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(path)
    r = run_cli(["solve", "--config", path])
    assert r.returncode == 1
    assert "configuration error:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("old, new", [
    ("phases = 0.0, 0.5", "phases = 0.5"),
    ("phases = 0.0, 0.5", "phases = 0.0, 0.5, 1.0"),
    (BALL_TRIG, "family = linear\nm = 2\nmatrix = 0.02, 0.0; 0.0, 0.01\n"
                "offset = 0.1"),
    (BALL_TRIG, "family = linear\nm = 2\nmatrix = 0.02, 0.0; 0.0, 0.01\n"
                "offset = 0.1, 0.2, 0.3"),
], ids=["one-phase", "three-phases", "one-offset", "three-offsets"])
def test_cli_mis_sized_boundary_vector_exit_one(tmp_path, old, new):
    # one phase or offset per component, never broadcast
    assert old in BALL_SOLVE
    path = write_cfg(tmp_path, BALL_SOLVE.replace(old, new))
    with pytest.raises(ValueError, match="per component"):
        load_config(path)
    r = run_cli(["solve", "--config", path])
    assert r.returncode == 1
    assert "configuration error:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("mode, text", [
    ("solve", BALL_SOLVE.replace("kind = ball", "kind = annulus")),
    ("exterior", EXTERIOR.format(radii="9.0, 11.0", probes="2.5, 3.5")
     .replace("inner_radius = 1.0\n", "")),
], ids=["annulus-no-inner-radius", "exterior-no-inner-radius"])
def test_cli_missing_inner_radius_exit_one(tmp_path, mode, text):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match="'inner_radius'"):
        load_config(path)
    r = run_cli([mode, "--config", path, "--out", str(tmp_path / "out")])
    assert r.returncode == 1
    assert "configuration error:" in r.stderr and "inner_radius" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("text", [
    BALL_SOLVE.replace("radius = 1.0", "radius = inf"),
    BALL_SOLVE.replace("radius = 1.0", "radius = nan"),
    BALL_SOLVE.replace("kind = ball\ndim = 2\nradius = 1.0",
                       "kind = box\ndim = 2\nedges = 1.0, inf"),
    EXTERIOR.format(radii="9.0, 11.0, nan", probes="2.5, 3.5"),
    EXTERIOR.format(radii="9.0, 11.0", probes="2.5, nan, 3.5"),
    EXTERIOR.format(radii="9.0, 11.0", probes="nan, 2.5"),
], ids=["radius-inf", "radius-nan", "edges-inf", "radii-nan",
        "probe-radii-nan", "probe-radii-nan-first"])
def test_cli_non_finite_sizes_exit_one(tmp_path, text):
    path = write_cfg(tmp_path, text)
    with pytest.raises((ConfigError, DomainError), match="finite"):
        load_config(path)
    mode = "exterior" if "mode = exterior" in text else "solve"
    r = run_cli([mode, "--config", path, "--out", str(tmp_path / "out")])
    assert r.returncode == 1
    assert "configuration error:" in r.stderr and "finite" in r.stderr
    assert "Traceback" not in r.stderr


_BALL_DOMAIN = "kind = ball\ndim = 2\nradius = 1.0"
# case -> (replacements in BALL_SOLVE, the section and key the error names)
_MALFORMED = {
    "h-word": ([("h = 0.0625", "h = abc")], "[grid] h"),
    "dim-fraction": ([("dim = 2", "dim = 2.5")], "[domain] dim"),
    "max-steps-float": ([("max_steps = 100000", "max_steps = 1e5")],
                        "[flow] max_steps"),
    "values-word": ([(BALL_TRIG, "family = constant\nm = 2\nvalues = 0.1, x")],
                    "[boundary] values"),
    "matrix-word": ([(BALL_TRIG, "family = linear\nm = 2\n"
                                 "matrix = 0.2, x; 0.1, 0.05")],
                    "[boundary] matrix"),
    "poly-word": ([(BALL_TRIG, "family = polynomial\nm = 1\n"
                               "poly_1 = 0.01, 2, x")], "[boundary] poly_1"),
    "scale-word": ([("dim = 2", "dim = 4"),
                    (BALL_TRIG, "family = lawson_osserman_scaled\n"
                                "scale = 0.1x")], "[boundary] scale"),
    "lo-three-for-two-edges": (
        [(_BALL_DOMAIN, "kind = box\ndim = 2\nedges = 1.0, 1.0\n"
                        "lo = 0.0, 0.0, 0.0")], "[domain] lo"),
    "truncation-radius-inf": (
        [(_BALL_DOMAIN, "kind = exterior\ndim = 2\ninner_radius = 1.0\n"
                        "truncation_radius = inf")],
        "[domain] truncation_radius"),
}


@pytest.mark.parametrize("name", _MALFORMED)
def test_malformed_number_names_its_key(tmp_path, name):
    # a value no float() or int() takes, a mis-sized lo and a non-finite
    # [domain] size are ConfigErrors that name section and key, in the
    # library and on the command line
    edits, key = _MALFORMED[name]
    text = BALL_SOLVE
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(path)
    r = run_cli(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert r.returncode == 1
    assert "configuration error:" in r.stderr and key in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("cfl = 0.9", "cfl = 0.9\ncfl = 0.8"),
     r"\[line \d+\]: option 'cfl' in section 'flow' already exists"),
    (lambda t: t + "\n[grid]\nh = 0.125\n",
     r"\[line \d+\]: section 'grid' already exists"),
    (lambda t: t.replace("cfl = 0.9", "cfl = 0.9 %"),
     re.escape("[flow] cfl must be a number, got '0.9 %'")),
    (lambda t: "h = 0.0625\n" + t, r"no section headers\. file: .*, line: 1 "),
    (None, "cannot make the output directory"),
], ids=["key-twice", "section-twice", "percent-sign", "text-before-header",
        "out-is-a-file"])
def test_cli_parser_and_output_errors_exit_one(tmp_path, capsys, edit,
                                               message):
    # configparser's own errors and an unusable --out end as configuration
    # errors, not tracebacks; parse errors keep their line number
    text = textwrap.dedent(BALL_SOLVE).lstrip()
    path = write_cfg(tmp_path, edit(text) if edit else text)
    out = tmp_path / "out"
    if edit is None:
        out.write_text("a file, not a directory\n")
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and re.search(message, err)


def test_program_does_not_import_the_pointwise_oracle():
    # the tests' reference (tests/reference.py) lies outside the package:
    # every package module imports with only src on the path, none pulls
    # the reference in, and the package has no jets module
    root = pathlib.Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""\
        import importlib, pathlib, pkgutil, sys
        tests = pathlib.Path(sys.argv[1]).resolve()
        assert all(pathlib.Path(p or '.').resolve() != tests
                   for p in sys.path), sys.path
        import mssflow, mssflow.cli
        names = [m.name for m in pkgutil.iter_modules(mssflow.__path__)]
        for name in names:
            importlib.import_module('mssflow.' + name)
        assert {'cli', 'driver', 'grid'} <= set(names), names
        assert 'reference' not in sys.modules
        try:
            import mssflow.jets
        except ImportError:
            pass
        else:
            sys.exit('mssflow.jets imported')
        """)
    r = subprocess.run([sys.executable, "-c", code, str(root / "tests")],
                       capture_output=True, text=True, cwd=root / "src",
                       env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert r.returncode == 0, r.stderr


def test_program_does_not_import_numpy_random(tmp_path):
    # numpy.random costs a fresh process ~15 ms and ~5 MB: neither the
    # imports nor a check load it, on linear data (zero Hessian, screened
    # out before any eigensolve) or on ball-solve's trigonometric data
    # (m = 2, nonzero Hessian: the direction rule's cells are fixed
    # sub-squares of the cube faces)
    root = pathlib.Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""\
        import pathlib, sys, mssflow.cli, mssflow.driver
        assert 'numpy.random' not in sys.modules, 'import'
        sys.path.insert(0, sys.argv[1])
        from workloads import generate
        cfg = pathlib.Path(sys.argv[2])
        for name in ('check-linear', 'ball-solve'):
            cfg.write_text(generate(name, 0).text.replace(
                'mode = solve', 'mode = check_hypothesis'))
            rc = mssflow.cli.main(['check_hypothesis', '--config', str(cfg),
                                   '--out', sys.argv[3] + name])
            assert rc == 0, (name, rc)
            assert 'numpy.random' not in sys.modules, name
        """)
    r = subprocess.run([sys.executable, "-c", code, str(root / "perfbench"),
                        str(tmp_path / "check.cfg"), str(tmp_path / "out-")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("outcome=HypothesisPass") == 2


def _referenced_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_name_is_reached_by_the_program():
    # a public module-level function or class is used by some program
    # path outside its own definition; test-only code lives in
    # tests/reference.py, so every module is checked with no exceptions
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "mssflow"
    stmts = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        stmts += [(path.stem, node) for node in tree.body]
    refs = [_referenced_names(node) for _, node in stmts]
    unreached = set()
    for i, (module, node) in enumerate(stmts):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not any(node.name in r for j, r in enumerate(refs)
                            if j != i)):
            unreached.add(f"{module}.{node.name}")
    assert unreached == set()


def test_benchmark_tracer_finds_every_traced_name(tmp_path):
    # perfbench/tracing.py wraps program functions by name; a subprocess,
    # because instrument() patches module attributes
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "from tracing import Tracer, instrument; "
            "from mssflow.config import load_config; "
            "instrument(Tracer('t'), load_config(sys.argv[3]))")
    r = subprocess.run([sys.executable, "-c", code, str(root / "perfbench"),
                        str(root / "src"), write_cfg(tmp_path, BALL_SOLVE)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_benchmark_and_acceptance_configs_load(tmp_path):
    # the benchmark's seeded configs (seeds 0-9) and the acceptance
    # configs stay valid: every section and key they give is read
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from workloads import NAMES, generate; "
            "print(json.dumps([generate(n, s).text for n in NAMES "
            "for s in range(10)]))")
    r = subprocess.run([sys.executable, "-c", code, str(root / "perfbench")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    texts = json.loads(r.stdout)
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    texts += [node.value.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant)
              and "[run]" in str(node.value.value)]
    assert len(texts) == 33
    for text in texts:
        load_config(write_cfg(tmp_path, text))


def test_cli_check_hypothesis_mode(tmp_path):
    path = write_cfg(tmp_path, BALL_SOLVE.replace("mode = solve",
                                                  "mode = check_hypothesis"))
    out = tmp_path / "out"
    r = run_cli(["check_hypothesis", "--config", path, "--out", str(out)])
    assert r.returncode == 0
    assert "outcome=HypothesisPass" in r.stdout


def test_cli_density_oracles(tmp_path):
    for state, extra in (("plane", ""), ("half_plane", ""),
                         ("offset_plane", "offset = 0.08"),
                         ("sphere_cap", "h = 0.05\nhalfwidth = 0.8")):
        text = f"""
        [run]
        mode = density_oracle

        [density]
        state = {state}
        {extra}
        """
        path = write_cfg(tmp_path, text, name=f"{state}.cfg")
        out = tmp_path / state
        r = run_cli(["density_oracle", "--config", path, "--out", str(out)])
        assert r.returncode == 0, (state, r.stdout, r.stderr)
        assert "outcome=OracleMatch" in r.stdout
        report = (out / "report.txt").read_text()
        assert "oracle match" in report
        if state != "sphere_cap":
            assert "time_gap = " in report.splitlines()[1]


def test_cli_sphere_cap_defaults(tmp_path):
    # the cap keeps its own halfwidth default; the planes' 1.3 would put
    # the residual far above its ceiling
    path = write_cfg(tmp_path, "[run]\nmode = density_oracle\n\n"
                               "[density]\nstate = sphere_cap\n")
    out = tmp_path / "out"
    r = run_cli(["density_oracle", "--config", path, "--out", str(out)])
    assert r.returncode == 0, (r.stdout, r.stderr)
    assert "outcome=OracleMatch" in r.stdout
    report = (out / "report.txt").read_text()
    assert "halfwidth = 0.8" in report
    assert "time_gap" not in report    # the cap reads no time gap


@pytest.mark.parametrize("state, line", [
    ("plane", "offset = 0.3"),
    ("half_plane", "offset = 0.3"),
    ("sphere_cap", "time_gap = 7.0"),
    ("sphere_cap", "cutoff = 9.0"),
    ("sphere_cap", "offset = 1.0"),
], ids=["plane-offset", "half-plane-offset", "cap-time-gap", "cap-cutoff",
        "cap-offset"])
def test_cli_density_key_unread_by_state_exit_one(tmp_path, state, line):
    path = write_cfg(tmp_path, "[run]\nmode = density_oracle\n\n"
                               f"[density]\nstate = {state}\n{line}\n")
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"'{key}'.*'{state}'"):
        load_config(path)
    r = run_cli(["density_oracle", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert r.returncode == 1
    assert "configuration error:" in r.stderr
    assert "Traceback" not in r.stderr


EXTERIOR_RUN = EXTERIOR.format(radii="9.0, 11.0", probes="2.5, 3.5")
LINEAR = "family = linear\nm = 2\nmatrix = 0.02, 0.0; 0.0, 0.01"
CONSTANT = "family = constant\nm = 2\nvalues = 0.4, -0.1"


@pytest.mark.parametrize("mode, text, name, selector", [
    ("solve", BALL_SOLVE.replace("radius = 1.0", "radius = 1.0\n"
                                 "inner_radius = 0.5"),
     "'inner_radius'", "kind 'ball'"),
    ("solve", BALL_SOLVE.replace("radius = 1.0", "radius = 1.0\n"
                                 "truncation_radius = 5.0"),
     "'truncation_radius'", "kind 'ball'"),
    ("solve", BALL_SOLVE.replace("radius = 1.0", "radius = 1.0\n"
                                 "edges = 1.0, 1.0"),
     "'edges'", "kind 'ball'"),
    ("solve", BALL_SOLVE.replace("radius = 1.0", "radius = 1.0\n"
                                 "lo = 0.0, 0.0"),
     "'lo'", "kind 'ball'"),
    ("solve", BALL_SOLVE.replace("delta = 0.1", "delta = 0.1\nc = 0.5"),
     "'c'", "condition 'A'"),
    ("solve", BALL_SOLVE.replace(BALL_TRIG, BALL_TRIG + "\nscale = 3.0"),
     "'scale'", "family 'trigonometric'"),
    ("solve", BALL_SOLVE.replace(BALL_TRIG, BALL_TRIG + "\noffset = 5.0"),
     "'offset'", "family 'trigonometric'"),
    ("solve", BALL_SOLVE.replace(BALL_TRIG, LINEAR + "\namplitudes = 0.5"),
     "'amplitudes'", "family 'linear'"),
    ("solve", BALL_SOLVE + "\n[exterior]\nradii = 9.0, 11.0\n",
     "[exterior]", "mode 'solve'"),
    ("check_hypothesis", BALL_SOLVE.replace("mode = solve",
                                            "mode = check_hypothesis")
     + "\n[density]\nstate = plane\n",
     "[density]", "mode 'check_hypothesis'"),
    ("density_oracle", "[run]\nmode = density_oracle\n\n[density]\n"
                       "state = plane\n\n[grid]\nh = 0.05\n",
     "[grid]", "mode 'density_oracle'"),
    ("exterior", EXTERIOR_RUN.replace("inner_radius = 1.0", "inner_radius = 1.0"
                                      "\ntruncation_radius = 20.0"),
     "'truncation_radius'", "kind 'exterior' in exterior mode"),
    ("solve", BALL_SOLVE.replace(BALL_TRIG, CONSTANT + "\nscale = 3"),
     "'scale'", "family 'constant'"),
    ("solve", BALL_SOLVE.replace(BALL_TRIG, CONSTANT + "\nphases = 1"),
     "'phases'", "family 'constant'"),
    ("solve", BALL_SOLVE.replace(BALL_TRIG, BALL_TRIG + "\npoly_1 = 1.0, 2, 0"),
     "'poly_1'", "family 'trigonometric'"),
], ids=["ball-inner-radius", "ball-truncation-radius", "ball-edges", "ball-lo",
        "c-under-condition-a", "trigonometric-scale", "trigonometric-offset",
        "linear-amplitudes", "exterior-section-in-solve",
        "density-section-in-check", "grid-section-in-density",
        "truncation-radius-in-exterior-mode", "constant-scale",
        "constant-phases", "trigonometric-poly-1"])
def test_cli_unread_section_or_key_exit_one(tmp_path, mode, text, name,
                                            selector):
    # a section or key the run does not look up is an error that names it
    # and the setting that decides what its section reads
    r = run_cli([mode, "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "out")])
    assert r.returncode == 1, r.stdout + r.stderr
    assert "configuration error:" in r.stderr
    assert name in r.stderr and f"({selector}" in r.stderr
    assert "does not read it)" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_determinism_bitwise(tmp_path):
    path = write_cfg(tmp_path, BALL_SOLVE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(["solve", "--config", path, "--out", str(out)])
        assert r.returncode == 0
        outs.append((out / "monitors.csv").read_bytes())
    assert outs[0] == outs[1]


def test_field_dump_roundtrip(tmp_path):
    path = write_cfg(tmp_path, BALL_SOLVE)
    out = tmp_path / "out"
    r = run_cli(["solve", "--config", path, "--out", str(out)])
    assert r.returncode == 0
    lines = (out / "field.dat").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert any("n = 2  m = 2" in l for l in header)
    grid = build_grid(DomainSpec.ball(1.0, 2), 0.0625)
    assert len(rows) == grid.num_interior
    first = rows[0].split()
    assert len(first) == 1 + 2 + 2   # index, x, f


# ---------------------------------------------------------------------------
# blow-up behavior on steep data
# ---------------------------------------------------------------------------

def test_lawson_osserman_large_scale_blows_up():
    # driving the sphere-to-sphere family far beyond the small-data regime
    # must trip the singular-value guard, not produce garbage
    grid = build_grid(DomainSpec.ball(1.0, 4), 0.2)
    psi = bd.lawson_osserman_map(12.0)
    state = flow.make_state(grid, psi)
    final, records, outcome = flow.run_to_steady(
        state, 1e-6, 2000, 100, flow.FlowMonitors(state, 0.1))
    assert outcome == "BlowUp"


def test_solve_once_library_interface(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BALL_SOLVE), mode="solve")
    res = driver.solve_once(cfg)
    assert res.outcome == "Converged"
    assert res.invariants is not None and res.invariants.passed
    assert res.exit_code == 0
    assert isinstance(res.records[0], flow.MonitorRecord)


def test_exterior_zero_data_gives_zero_field_and_gradient(tmp_path):
    text = """
    [run]
    mode = exterior

    [domain]
    kind = exterior
    dim = 2
    inner_radius = 1.0

    [boundary]
    family = constant
    m = 1
    values = 0.0

    [grid]
    h = 0.203125

    [hypothesis]
    condition = B
    delta = 0.012
    c = 0.5

    [exterior]
    radii = 9.0, 11.0, 13.0
    probe_radii = 2.5, 3.5, 4.5
    """
    cfg = load_config(write_cfg(tmp_path, text), mode="exterior")
    rep = driver.exterior_pipeline(cfg)
    assert rep.exit_code == 0
    for res in rep.shells:
        assert res.outcome == "Converged"
        assert np.abs(res.state.f).max() == 0.0
    assert np.abs(rep.l_estimate).max() <= 1e-15
    assert all(s <= 1e-15 for _, s in rep.decay_table)


def test_solve_small_linear_on_annulus(tmp_path):
    # inner boundary strictly non-mean-convex; small data still solves
    text = """
    [run]
    mode = solve

    [domain]
    kind = annulus
    dim = 2
    inner_radius = 0.5
    radius = 1.0

    [boundary]
    family = linear
    m = 2
    matrix = 0.0015, 0.0 ; 0.0, 0.001

    [grid]
    h = 0.03125

    [flow]
    tol_residual = 1e-6
    max_steps = 100000
    monitor_every = 50

    [hypothesis]
    delta = 0.007
    """
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    r = run_cli(["solve", "--config", path, "--out", str(out)])
    assert r.returncode == 0, r.stdout + r.stderr
    assert "outcome=Converged" in r.stdout


def test_decay_table_is_the_unscreened_svd_maximum(tmp_path):
    # the far-field table screens rows before its svd; each entry must be
    # LAPACK's maximum over every row of its ring (exterior-shells, seed 0)
    text = (EXTERIOR.format(radii="9.0, 11.0, 13.0", probes="2.5, 3.5, 4.5")
            .replace("family = constant\nm = 1\nvalues = 0.0",
                     "family = trigonometric\nm = 1\namplitudes = 0.002\n"
                     "wave_vector_1 = 2.0, 0.5")
            .replace("h = 0.2\n", "h = 0.203125\n\n[flow]\ntol_residual = 1e-7\n"
                     "max_steps = 400000\nmonitor_every = 500\n"))
    rep = driver.exterior_pipeline(load_config(write_cfg(tmp_path, text)))
    assert rep.exit_code == 0, rep.notes
    final = rep.shells[-1]
    J = flow.compute_fields(final.state).J
    table = []
    for rho in (2.5, 3.5, 4.5):
        dev = J[driver._probe_ring(final.grid, rho)] - rep.l_estimate
        table.append((rho, float(np.linalg.svd(dev, compute_uv=False)[:, 0].max())))
    assert rep.decay_table == table


# ---------------------------------------------------------------------------
# exterior shells in forked workers
# ---------------------------------------------------------------------------

# two shells of trigonometric data, converged loosely to stay quick
SHELL_TRIG = (EXTERIOR.format(radii="9.0, 11.0", probes="2.5, 3.5")
              .replace("family = constant\nm = 1\nvalues = 0.0",
                       "family = trigonometric\nm = 1\namplitudes = 0.002\n"
                       "wave_vector_1 = 2.0, 0.5")
              .replace("h = 0.2\n", "h = 0.203125\n\n[flow]\n"
                       "tol_residual = 1e-5\nmonitor_every = 100\n"))


@pytest.fixture
def deadline():
    """Fails a test still running after a minute, where a lost worker
    would otherwise hang it (forked workers do not inherit the alarm)."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _shell_report(res) -> list:
    return (driver._geometry_header(res.grid)
            + driver._hypothesis_lines(res.hypothesis)
            + driver._invariant_lines(res.invariants)
            + [",".join(map(driver._fmt, r.csv_row())) + " "
               + r.comp_min.tobytes().hex() + r.comp_max.tobytes().hex()
               for r in res.records])


def test_worker_shells_equal_in_process_solves(tmp_path, deadline):
    cfg = load_config(write_cfg(tmp_path, SHELL_TRIG))
    rep = driver.exterior_pipeline(cfg)
    assert rep.exit_code == 0 and len(rep.shells) == 2
    assert not multiprocessing.active_children()
    for r, res in zip(cfg.radii, rep.shells):
        ref = driver.solve_once(cfg, spec=DomainSpec.exterior(1.0, r, 2))
        assert res.outcome == ref.outcome == "Converged"
        assert len(res.records) > 1
        assert res.state.psi is cfg.psi and res.grid is res.state.grid
        assert res.state.t == ref.state.t
        assert res.state.f.tobytes() == ref.state.f.tobytes()
        assert _shell_report(res) == _shell_report(ref)


def _fake_shell(r_fail: float, code: int, r_slow: float | None = None):
    """A solve_once stand-in: exit code `code` at r_fail, a success below
    it, and at r_slow a solve far longer than the test."""
    def solve(cfg, spec=None, force=False):
        if spec.radius == r_slow:
            time.sleep(600.0)
        failed = spec.radius == r_fail
        return driver.SolveResult(
            outcome="MaxSteps" if failed else "Converged", state=None,
            records=[], hypothesis=None, invariants=None,
            exit_code=code if failed else driver.EXIT_OK, grid=None)
    return solve


def test_first_failing_shell_ends_the_pipeline(tmp_path, monkeypatch,
                                               deadline):
    # one worker per shell: the r = 13 worker is still solving when the
    # r = 11 failure decides the run, and is stopped
    monkeypatch.setattr(driver, "solve_once",
                        _fake_shell(11.0, driver.EXIT_MAXSTEPS, r_slow=13.0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = load_config(write_cfg(tmp_path, EXTERIOR.format(
        radii="9.0, 11.0, 13.0", probes="2.5, 3.5")))
    rep = driver.exterior_pipeline(cfg)
    assert [res.exit_code for res in rep.shells] == [0, driver.EXIT_MAXSTEPS]
    assert rep.exit_code == driver.EXIT_MAXSTEPS and rep.agreement == []
    assert not multiprocessing.active_children()


def test_worker_domain_error_is_a_configuration_error(tmp_path, monkeypatch,
                                                      capsys, deadline):
    def solve(cfg, spec=None, force=False):
        raise DomainError(f"no shell at r = {spec.radius}")
    monkeypatch.setattr(driver, "solve_once", solve)
    path = write_cfg(tmp_path, EXTERIOR.format(radii="9.0, 11.0",
                                               probes="2.5, 3.5"))
    assert cli.main(["exterior", "--config", path,
                     "--out", str(tmp_path / "out")]) == 1
    # the first shell's error, as a serial loop would raise it
    assert capsys.readouterr().err == \
        "configuration error: no shell at r = 9.0\n"
    assert not multiprocessing.active_children()


def test_worker_death_raises_instead_of_hanging(tmp_path, monkeypatch,
                                                deadline):
    monkeypatch.setattr(driver, "solve_once",
                        lambda cfg, spec=None, force=False: os._exit(3))
    cfg = load_config(write_cfg(tmp_path, EXTERIOR.format(
        radii="9.0, 11.0, 13.0", probes="2.5, 3.5")))
    with pytest.raises(RuntimeError, match="exited with code 3 without a "
                                           "result"):
        driver.exterior_pipeline(cfg)
    assert not multiprocessing.active_children()
