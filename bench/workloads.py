"""The three workloads: their make-up, the inputs drawn from the seed, the
operations of one pass, and the checks on each operation's outputs.

Every check recomputes its expectation apart from the program (closed forms,
scipy.special.iv, numpy.fft, numpy.linalg) and compares it with what the
program wrote or returned.  No check compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

from weylgabor import cli, gabor, quantize, stellar
from weylgabor.numerics import Grid1D, PhaseSpaceGrid

WORKLOADS = ("quantize-operators", "stellar-portraits", "transforms-groups")

# Sizes of every operation.  "full" is what the benchmark measures;
# "smoke" finishes in a few seconds and serves the benchmark's own test.
MAKEUP = {
    "quantize-operators": {
        "full": {"gaussian": {"n_time": 256, "n_tf": 256},
                 "overlap": {"n_time": 384, "n_tf": 256},
                 "mixture": {"n_time": 256, "n_tf": 256},
                 "weyl": {"n_time": 256, "n_tf": 128},
                 "stellar": {"n_time": 256, "n_grid": 256}},
        "smoke": {"gaussian": {"n_time": 128, "n_tf": 64},
                  "overlap": {"n_time": 128, "n_tf": 64},
                  "mixture": {"n_time": 128, "n_tf": 64},
                  "weyl": {"n_time": 64, "n_tf": 32},
                  "stellar": {"n_time": 64, "n_grid": 64}},
    },
    "stellar-portraits": {
        "full": {"pentagon_grids": [384, 512], "zeros_grid": 384,
                 "n_zeros": 4, "gram_points": 384},
        "smoke": {"pentagon_grids": [64, 96], "zeros_grid": 64,
                  "n_zeros": 4, "gram_points": 160},
    },
    "transforms-groups": {
        "full": {"chirp": {"n_time": 2048, "n_tf": 512},
                 "gaussian_csv": {"n_time": 1024, "n_tf": 256},
                 "cylinder": {"n_theta": 257, "n_gamma": 512},
                 "trials": 1000, "covariance_shifts": 4},
        "smoke": {"chirp": {"n_time": 256, "n_tf": 64},
                  "gaussian_csv": {"n_time": 256, "n_tf": 64},
                  "cylinder": {"n_theta": 33, "n_gamma": 128},
                  "trials": 50, "covariance_shifts": 1},
    },
}

# Fixed axes of the operations (the CLI defaults, spelled out so the checks
# do not depend on them).
TIME_SPAN = (-20.0, 20.0)
TF_SPAN = (-16.0, 16.0)
STELLAR_SPAN = (-4.0, 4.0)
STELLAR_S = 0.945
STELLAR_PROBE = 2.0
GRAM_S = (0.3, 0.5, 0.945)
GRAM_MAX_ORDER = 5
PHASE_GRID_HEADER = "omega_start,omega_step,n_omega,b_start,b_step,n_b"


@dataclass
class CliResult:
    rc: int
    stderr: str
    out: Path


@dataclass
class Op:
    """One operation of a pass.  ``run`` is what is timed; ``check`` maps the
    result to {label: (ok, detail)} for exactly the labels in ``checks``."""

    name: str
    kind: str                       # "cli" or "api"
    run: Callable[[Path], object]
    checks: tuple = ()
    check: Callable[[object], dict] | None = None
    command: str | None = None
    expect_rc: int = 0
    known_fault: str | None = None  # why this operation fails today
    config: dict = field(default_factory=dict)

    def accepts(self, result) -> tuple:
        """Whether the operation itself succeeded, with a detail string."""
        if self.kind == "api":
            return True, ""
        if result.rc != self.expect_rc:
            return False, "exit %d, expected %d: %s" % (
                result.rc, self.expect_rc, result.stderr.strip()[-300:])
        if self.expect_rc == 2:
            try:
                error = json.loads(result.stderr.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return False, "exit 2 without an error JSON on stderr"
            if "error" not in error:
                return False, "error JSON lacks 'error'"
        return True, ""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return "%.17g" % float(value)


def _axis(span, count) -> np.ndarray:
    lo, hi = span
    step = (hi - lo) / count
    return lo + step * np.arange(count)


def _cli_op(name, command, config_path: Path, config: dict, checks=(),
            check=None, expect_rc=0, known_fault=None) -> Op:
    def run(pass_dir: Path) -> CliResult:
        out = pass_dir / name
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main([command, "--out", str(out),
                               "--config", str(config_path)])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return CliResult(rc, err.getvalue(), out)
    return Op(name, "cli", run, tuple(checks), check, command, expect_rc,
              known_fault, config)


def _write_config(work: Path, name: str, command: str, seed: int,
                  parameters: dict) -> tuple:
    config = {"command": command, "seed": seed, "parameters": parameters}
    path = work / ("%s.json" % name)
    path.write_text(json.dumps(config, sort_keys=True, indent=1))
    return path, config


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _write_phase_grid_csv(path: Path, span, n: int, values: np.ndarray) -> None:
    step = (span[1] - span[0]) / n
    meta = [_fmt(span[0]), _fmt(step), str(n)] * 2
    lines = ["# " + PHASE_GRID_HEADER, "# " + ",".join(meta)]
    lines += [",".join(_fmt(v) for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n")


def _write_signal_csv(path: Path, t: np.ndarray, values: np.ndarray) -> None:
    lines = ["# t,re,im"]
    lines += ["%s,%s,%s" % (_fmt(ti), _fmt(v.real), _fmt(v.imag))
              for ti, v in zip(t, values)]
    path.write_text("\n".join(lines) + "\n")


def _within(value, bound) -> tuple:
    value = float(value)
    return bool(value <= bound), "%.3g (bound %.3g)" % (value, bound)


def scan_output(out: Path) -> dict:
    """Bytes written, CSV values written and warnings of one CLI run."""
    stats = {"bytes": 0, "values": 0, "warnings": 0}
    if not out.is_dir():
        return stats
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        stats["bytes"] += len(data)
        if path.suffix == ".csv":
            rows = [r for r in data.split(b"\n") if r and not r.startswith(b"#")]
            stats["values"] += sum(r.count(b",") + 1 for r in rows)
        elif path.name == "manifest.json":
            stats["warnings"] += len(json.loads(data)["warnings"])
    return stats


# ---------------------------------------------------------------------------
# quantize-operators
# ---------------------------------------------------------------------------

def _gaussian(omega, b, center, sigma_omega, sigma_b):
    return np.exp(-(omega - center[0]) ** 2 / (2.0 * sigma_omega ** 2)
                  - (b - center[1]) ** 2 / (2.0 * sigma_b ** 2))


def _operator_gates(entries: np.ndarray, dt: float) -> dict:
    """Criterion 7's gates recomputed with numpy from the kernel entries."""
    k = np.asarray(entries)
    matrix = dt * k
    sym = 0.5 * (matrix + matrix.conj().T)
    return {
        "trace": _within(abs(np.trace(matrix).real - 1.0), 1e-4),
        "hermiticity": _within(np.abs(k - k.conj().T).max(), 1e-8),
        "min_eigenvalue": _within(-np.linalg.eigvalsh(sym).min(), 1e-6),
    }


def _kernel_check(n_time: int, purity: float | None):
    dt = (TIME_SPAN[1] - TIME_SPAN[0]) / n_time

    def check(result: CliResult) -> dict:
        rows = _read_csv(result.out / "kernel.csv")
        k = (rows[:, 2] + 1j * rows[:, 3]).reshape(n_time, n_time)
        found = _operator_gates(k, dt)
        if purity is not None:
            measured = dt ** 2 * np.sum(np.abs(k) ** 2)
            found["purity"] = _within(abs(measured - purity), 1e-10)
        return found
    return check


def _gaussian_purity(sigma_omega, sigma_b, width) -> float:
    """Purity of the quantized Gaussian density with a Gaussian probe."""
    return 1.0 / (2.0 * math.sqrt((sigma_b ** 2 + width / 2.0)
                                  * (sigma_omega ** 2 + 1.0 / (2.0 * width))))


def _quantize_operators(mk, seed, rng, work: Path) -> list:
    ops = []
    # Gaussian w, centre and widths from the seed
    sig_om, sig_b = (float(x) for x in rng.uniform(0.8, 1.4, 2))
    c_om, c_b = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
    p = mk["gaussian"]
    params = {"w": "gaussian", "sigma_omega": sig_om, "sigma_b": sig_b,
              "center_omega": c_om, "center_b": c_b,
              "n_time": p["n_time"], "n_tf": p["n_tf"]}
    path, config = _write_config(work, "quantize-gaussian", "quantize", seed, params)
    ops.append(_cli_op("quantize-gaussian", "quantize", path, config,
                       ("trace", "hermiticity", "min_eigenvalue", "purity"),
                       _kernel_check(p["n_time"],
                                     _gaussian_purity(sig_om, sig_b, 1.0))))

    # Two-probe overlap density: a Gaussian with sigma_omega^2 = (r+a)/(2ra)
    # and sigma_b^2 = (r+a)/2
    a, r = 2.0, 0.5
    p = mk["overlap"]
    params = {"w": "overlap", "a": a, "r": r,
              "n_time": p["n_time"], "n_tf": p["n_tf"]}
    path, config = _write_config(work, "quantize-overlap", "quantize", seed, params)
    purity = _gaussian_purity(math.sqrt((r + a) / (2.0 * r * a)),
                              math.sqrt((r + a) / 2.0), 1.0)
    ops.append(_cli_op("quantize-overlap", "quantize", path, config,
                       ("trace", "hermiticity", "min_eigenvalue", "purity"),
                       _kernel_check(p["n_time"], purity)))

    # Two-Gaussian mixture of criterion 7 at +-(omega, b) near (3, 2), as w_csv
    p = mk["mixture"]
    c = (float(rng.uniform(2.5, 3.5)), float(rng.uniform(1.5, 2.5)))
    omega, b = np.meshgrid(_axis(TF_SPAN, p["n_tf"]), _axis(TF_SPAN, p["n_tf"]),
                           indexing="ij")
    mix = 0.5 * (_gaussian(omega, b, c, 1.0, 1.0)
                 + _gaussian(omega, b, (-c[0], -c[1]), 1.0, 1.0))
    cell = ((TF_SPAN[1] - TF_SPAN[0]) / p["n_tf"]) ** 2 / (2.0 * math.pi)
    mix /= cell * mix.sum()
    csv_path = work / "mixture_w.csv"
    _write_phase_grid_csv(csv_path, TF_SPAN, p["n_tf"], mix)
    params = {"w_csv": str(csv_path), "n_time": p["n_time"]}
    path, config = _write_config(work, "quantize-mixture", "quantize", seed, params)
    ops.append(_cli_op("quantize-mixture", "quantize", path, config,
                       ("trace", "hermiticity", "min_eigenvalue"),
                       _kernel_check(p["n_time"], None)))

    # Real weight with w(-omega, -b) = w(omega, b); index 0 of each axis is
    # dropped so the remaining lattice is symmetric about the origin.
    p = mk["weyl"]
    weyl_grid = PhaseSpaceGrid.square(-8.0, 8.0, p["n_tf"])
    weyl_time = Grid1D.regular(-10.0, 10.0, p["n_time"])
    omega, b = weyl_grid.meshes()
    centers = rng.uniform(-2.0, 2.0, (3, 2))
    amps = rng.uniform(0.5, 1.5, 3)
    weight = np.zeros(weyl_grid.shape)
    for (co, cb), amp in zip(centers, amps):
        weight += amp * (_gaussian(omega, b, (co, cb), 0.7, 0.7)
                         + _gaussian(omega, b, (-co, -cb), 0.7, 0.7))
    weight[0, :] = 0.0
    weight[:, 0] = 0.0

    def run_weyl(pass_dir):
        return quantize.weyl_operator_from_weight(weight, weyl_grid, weyl_time)

    def check_weyl(kernel) -> dict:
        k = kernel.entries
        return {"hermiticity": _within(np.abs(k - k.conj().T).max()
                                      / np.abs(k).max(), 1e-10)}
    ops.append(Op("weyl-operator", "api", run_weyl, ("hermiticity",), check_weyl,
                  config={"n_time": p["n_time"], "n_tf": p["n_tf"],
                          "centers": centers.tolist(), "amplitudes": amps.tolist()}))

    p = mk["stellar"]
    pars = stellar.StellarParams(
        s=STELLAR_S, probe_a=STELLAR_PROBE, probe_r=STELLAR_PROBE,
        grid=PhaseSpaceGrid.square(*STELLAR_SPAN, p["n_grid"]))
    stellar_time = Grid1D.regular(*TIME_SPAN, p["n_time"])

    def run_stellar(pass_dir):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kernel, _ = stellar.quantize_stellar(stellar.pentagon_zeros(), pars,
                                                 stellar_time)
        return kernel

    def check_stellar(kernel) -> dict:
        return _operator_gates(kernel.entries, stellar_time.step)
    ops.append(Op("quantize-stellar", "api", run_stellar,
                  ("trace", "hermiticity", "min_eigenvalue"), check_stellar,
                  config=dict(p)))
    return ops


# ---------------------------------------------------------------------------
# stellar-portraits
# ---------------------------------------------------------------------------

def _draw_zeros(rng, count: int, radius: float = 2.5, separation: float = 1.0):
    """``count`` points in the disk of the given radius, pairwise at least
    ``separation`` apart (rejection sampling)."""
    zeros = []
    while len(zeros) < count:
        rad = radius * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(rad * math.cos(angle), rad * math.sin(angle))
        if all(abs(z - other) >= separation for other in zeros):
            zeros.append(z)
    return zeros


def _stellar_check(zeros, n_grid: int):
    step = (STELLAR_SPAN[1] - STELLAR_SPAN[0]) / n_grid
    cell = step * step / (2.0 * math.pi)

    @functools.cache
    def expected():
        """The normalized density and its portrait, computed once, at the
        first check (after the first pass's peak memory is read)."""
        axis = _axis(STELLAR_SPAN, n_grid)
        omega, b = np.meshgrid(axis, axis, indexing="ij")
        z = b + 1j * omega
        poly = np.ones_like(z)
        for zero in zeros:
            poly = poly * (z - zero)
        raw = np.abs(poly) ** 2 * np.exp(-(1.0 - STELLAR_S) * b ** 2
                                         - (1.0 / STELLAR_S - 1.0) * omega ** 2)
        w = raw / (cell * raw.sum())
        # closed-form overlap density of two probes of width a = r
        a = r = STELLAR_PROBE
        overlap = (2.0 * math.sqrt(r * a) / (r + a)
                   * np.exp(-(r * a / (r + a)) * omega ** 2 - b ** 2 / (r + a)))
        origin = n_grid // 2                     # index of 0 on [-L, L)
        size = (2 * n_grid, 2 * n_grid)
        full = np.fft.irfft2(np.fft.rfft2(w, size) * np.fft.rfft2(overlap, size), size)
        smoothed = np.maximum(cell * full[origin:origin + n_grid, origin:origin + n_grid],
                              0.0)
        return w, smoothed

    def check(result: CliResult) -> dict:
        expected_w, expected_portrait = expected()
        w = _read_csv(result.out / "w.csv")
        smoothed = _read_csv(result.out / "portrait.csv")
        report = json.loads((result.out / "report.json").read_text())
        minima = [complex(m[1], m[0]) for m in report["w_minima"]]
        miss = max(min((abs(zero - m) for m in minima), default=math.inf)
                   for zero in zeros)
        return {
            "w_unit_mass": _within(abs(cell * w.sum() - 1.0), 1e-9),
            "w_formula": _within(np.abs(w - expected_w).max() / expected_w.max(), 1e-9),
            "w_minima_at_zeros": _within(miss, step),
            "portrait_nonnegative": (bool(smoothed.min() >= 0.0),
                                     "min %.3g" % smoothed.min()),
            "portrait_convolution": _within(
                np.abs(smoothed - expected_portrait).max() / expected_portrait.max(),
                1e-9),
        }
    return check


STELLAR_CHECKS = ("w_unit_mass", "w_formula", "w_minima_at_zeros",
                  "portrait_nonnegative", "portrait_convolution")


def _gram_diagonal(n: int, s: float) -> float:
    return (math.pi * math.sqrt(s) / (1.0 - s)
            * (2.0 * (1.0 + s) / (1.0 - s)) ** n * math.factorial(n))


def _stellar_portraits(mk, seed, rng, work: Path) -> list:
    ops = []
    pentagon = [0j] + [complex(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
                       for k in range(5)]
    for n_grid in mk["pentagon_grids"]:
        name = "stellar-pentagon-%d" % n_grid
        path, config = _write_config(work, name, "stellar", seed, {"n_grid": n_grid})
        ops.append(_cli_op(name, "stellar", path, config, STELLAR_CHECKS,
                           _stellar_check(pentagon, n_grid)))

    zeros = _draw_zeros(rng, mk["n_zeros"])
    zeros_path = work / "zeros.json"
    zeros_path.write_text(json.dumps([{"re": z.real, "im": z.imag} for z in zeros]))
    path, config = _write_config(work, "stellar-zeros", "stellar", seed,
                                 {"zeros_json": str(zeros_path),
                                  "n_grid": mk["zeros_grid"]})
    config["zeros"] = [[z.real, z.imag] for z in zeros]
    ops.append(_cli_op("stellar-zeros", "stellar", path, config, STELLAR_CHECKS,
                       _stellar_check(zeros, mk["zeros_grid"])))

    for s in GRAM_S:
        grid = stellar.default_gram_grid(s, mk["gram_points"])

        def run_gram(pass_dir, s=s, grid=grid):
            n = GRAM_MAX_ORDER + 1
            gram = np.zeros((n, n), dtype=complex)
            for m in range(n):
                for k in range(m, n):
                    gram[m, k] = stellar.hermite_gram(m, k, s, grid)
            return gram

        def check_gram(gram, s=s) -> dict:
            diag = np.array([_gram_diagonal(n, s) for n in range(GRAM_MAX_ORDER + 1)])
            diag_err = np.abs(np.diag(gram) - diag) / diag
            off = np.triu(np.abs(gram), 1) / np.sqrt(np.outer(diag, diag))
            return {"diagonal": _within(diag_err.max(), 1e-6),
                    "off_diagonal": _within(off.max(), 1e-6)}
        ops.append(Op("hermite-gram-s%g" % s, "api", run_gram,
                      ("diagonal", "off_diagonal"), check_gram,
                      config={"s": s, "points": mk["gram_points"]}))
    return ops


# ---------------------------------------------------------------------------
# transforms-groups
# ---------------------------------------------------------------------------

def _chirp_tones(t):
    """The package's chirp_tones test signal, before normalization."""
    return (np.exp(8j * t) * np.exp(-(t + 10.0) ** 2 / 8.0)
            + np.exp(-5j * t) * np.exp(-(t - 8.0) ** 2 / 18.0)
            + np.exp(0.15j * t ** 2) * np.exp(-t ** 2 / 72.0))


def _modulus_direct_check(n_time: int, n_tf: int, nodes):
    """|S(omega, b)| at the given (row, column) nodes by direct quadrature
    sum_t exp(-1j omega t) psi(t - b) s(t) dt with the unit-width probe."""
    t = _axis(TIME_SPAN, n_time)
    dt = t[1] - t[0]
    s = _chirp_tones(t)
    s = s / math.sqrt(dt * np.sum(np.abs(s) ** 2))
    tf = _axis(TF_SPAN, n_tf)

    def check(result: CliResult) -> dict:
        modulus = _read_csv(result.out / "coefficients_modulus.csv")
        worst = 0.0
        for i, j in nodes:
            probe = math.pi ** -0.25 * np.exp(-(t - tf[j]) ** 2 / 2.0)
            direct = abs(dt * np.sum(np.exp(-1j * tf[i] * t) * probe * s))
            worst = max(worst, abs(modulus[i, j] - direct))
        return {"modulus_direct_sum": _within(worst, 1e-9)}
    return check


def _gaussian_csv_check(n_tf: int, center, energy: float):
    tf = _axis(TF_SPAN, n_tf)
    omega, b = np.meshgrid(tf, tf, indexing="ij")
    expected = np.exp(-((omega - center[0]) ** 2 + (b - center[1]) ** 2) / 4.0)
    cell = (tf[1] - tf[0]) ** 2 / (2.0 * math.pi)

    def check(result: CliResult) -> dict:
        modulus = _read_csv(result.out / "coefficients_modulus.csv")
        coeff_energy = cell * np.sum(modulus ** 2)
        return {"modulus_closed_form": _within(np.abs(modulus - expected).max(), 1e-8),
                "energy": _within(abs(coeff_energy - energy) / energy, 1e-6)}
    return check


def _cylinder_check(lam, m, mprime, n_theta):
    theta = np.linspace(-2.0 * math.pi, 2.0 * math.pi, n_theta, endpoint=False)
    th, thp = np.meshgrid(theta, theta, indexing="ij")
    kernel = (np.exp(1j * (mprime * th - m * thp) / 2.0)
              * special.iv(m - mprime, 2.0 * lam * np.cos((th - thp) / 2.0))
              / special.iv(0, 2.0 * lam))

    def check(result: CliResult) -> dict:
        return {part: _within(np.abs(_read_csv(result.out / ("kernel_%s.csv" % part))
                                    - block).max(), 1e-10)
                for part, block in (("real", kernel.real), ("imag", kernel.imag),
                                    ("modulus", np.abs(kernel)))}
    return check


def _group_check(result: CliResult) -> dict:
    report = json.loads((result.out / "group_check.json").read_text())
    failing = sorted(k for k, v in report["suites"].items() if not v["pass"])
    order = report["suites"]["z5_order_and_closure"]["order"]
    return {"all_suites_pass": (bool(report["all_pass"] and not failing),
                                "failing: %s" % failing),
            "z5_order": (order == 125, "order %s" % order)}


def _transforms_groups(mk, seed, rng, work: Path) -> list:
    ops = []
    p = mk["chirp"]
    path, config = _write_config(work, "gabor-chirp", "gabor", seed,
                                 {"signal": "chirp_tones", "n_time": p["n_time"],
                                  "n_tf": p["n_tf"]})
    nodes = [(int(i), int(j)) for i, j in
             rng.integers(p["n_tf"] // 4, 3 * p["n_tf"] // 4, (16, 2))]
    ops.append(_cli_op("gabor-chirp", "gabor", path, config, ("modulus_direct_sum",),
                       _modulus_direct_check(p["n_time"], p["n_tf"], nodes)))

    # Unit-norm Gaussian displaced to (omega0, b0): with the unit-width probe
    # |S(omega, b)| = exp(-((omega-omega0)^2 + (b-b0)^2)/4)
    p = mk["gaussian_csv"]
    center = (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)))
    t = _axis(TIME_SPAN, p["n_time"])
    signal = (math.pi ** -0.25 * np.exp(1j * center[0] * t)
              * np.exp(-(t - center[1]) ** 2 / 2.0))
    signal_path = work / "gaussian_signal.csv"
    _write_signal_csv(signal_path, t, signal)
    energy = float((t[1] - t[0]) * np.sum(np.abs(signal) ** 2))
    path, config = _write_config(work, "gabor-gaussian-csv", "gabor", seed,
                                 {"signal_csv": str(signal_path), "n_tf": p["n_tf"]})
    config["center"] = list(center)
    ops.append(_cli_op("gabor-gaussian-csv", "gabor", path, config,
                       ("modulus_closed_form", "energy"),
                       _gaussian_csv_check(p["n_tf"], center, energy)))

    p = mk["cylinder"]
    # m >= 1 > mprime keeps the imaginary kernel block away from exact
    # zeros, so the bytes written vary little with the seed
    lam = float(rng.uniform(1.5, 3.0))
    m, mprime = int(rng.integers(1, 3)), int(rng.integers(-2, 1))
    params = {"lam": lam, "m": m, "mprime": mprime,
              "shift_m": int(rng.integers(1, 4)),
              "shift_theta": float(rng.uniform(0.3, 1.2)),
              "n_theta": p["n_theta"], "n_gamma": p["n_gamma"]}
    path, config = _write_config(work, "cylinder", "cylinder", seed, params)
    ops.append(_cli_op("cylinder", "cylinder", path, config,
                       ("real", "imag", "modulus"),
                       _cylinder_check(lam, m, mprime, p["n_theta"])))

    path, config = _write_config(work, "group-check", "group-check", seed,
                                 {"trials": mk["trials"]})
    ops.append(_cli_op("group-check", "group-check", path, config,
                       ("all_suites_pass", "z5_order"), _group_check))

    # Displacement covariance of the transform of the unit Gaussian; with the
    # unit-width probe max |S| = 1, so criterion 4's bound is 1e-6.
    shifts = [(float(o), float(b)) for o, b in
              rng.uniform(-2.0, 2.0, (mk["covariance_shifts"], 2))]

    def run_covariance(pass_dir):
        probe = gabor.gaussian_probe()
        s = gabor.make_test_signal("gaussian")
        return [gabor.covariance_residual(probe, s, o, b) for o, b in shifts]

    def check_covariance(residuals) -> dict:
        return {"residual": _within(max(residuals), 1e-6)}
    ops.append(Op("covariance-residual", "api", run_covariance, ("residual",),
                  check_covariance, config={"shifts": shifts}))

    # A non-finite sample must be rejected at the boundary with exit 2.  The
    # input does not depend on the seed, so the operation fails in every pass
    # until the CSV reader rejects non-finite values.
    t = np.linspace(-8.0, 8.0, 128, endpoint=False)
    bad = np.pi ** -0.25 * np.exp(-t ** 2 / 2.0) + 0j
    bad[64] = np.inf
    bad_path = work / "nonfinite_signal.csv"
    _write_signal_csv(bad_path, t, bad)
    path, config = _write_config(work, "gabor-nonfinite-csv", "gabor", 0,
                                 {"signal_csv": str(bad_path), "n_tf": 32})
    ops.append(_cli_op("gabor-nonfinite-csv", "gabor", path, config, expect_rc=2,
                       known_fault="gabor accepts a signal_csv holding inf and "
                                   "exits 0 (_read_signal_csv, SampledSignal)"))
    return ops


_BUILDERS = {
    "quantize-operators": _quantize_operators,
    "stellar-portraits": _stellar_portraits,
    "transforms-groups": _transforms_groups,
}


def build(workload: str, size: str, seed: int, work: Path) -> tuple:
    """Generate the workload's inputs under ``work`` and return its
    operations with the hashes of its make-up and of the generated configs."""
    makeup = MAKEUP[workload][size]
    rng = np.random.default_rng(seed)
    ops = _BUILDERS[workload](makeup, seed, rng, work)
    makeup_hash = hashlib.sha256(
        json.dumps({workload: makeup}, sort_keys=True).encode()).hexdigest()
    configs = json.dumps([[op.name, op.config] for op in ops], sort_keys=True)
    inputs_hash = hashlib.sha256(
        configs.replace(str(work), "inputs").encode()).hexdigest()
    return ops, makeup_hash, inputs_hash
