"""Configuration-driven command line front end.

Five subcommands (group-check, gabor, cylinder, quantize, stellar) share
one calling convention:

    weylgabor <subcommand> --out DIR [--config FILE] [--strict]

The optional config is a single JSON document with at most the keys
"command" (must match the subcommand when present), "seed" (integer, used
by the randomized group suites), and "parameters" (a flat object of
subcommand-specific settings).  A key the chosen input does not read,
such as a with w='gaussian' or n_time with signal_csv, is refused with
the input named, before any input file is opened.

Every run writes its outputs plus a manifest.json into a temporary
directory that is renamed to --out at the end, so a run either completes
or leaves nothing.  The manifest echoes the config, lists every warning
the run raised, and inventories the output files with SHA-256 hashes.
Reruns with the same config and seed on the same numpy/BLAS build
produce byte-identical outputs (the manifest differs only in its
wall_time_s field).

Every CSV artifact (w.csv, portrait.csv, coefficients_modulus.csv,
kernel_{real,imag,modulus}.csv, kernel.csv) holds exact %.17g text: each
line is the bytes of ",".join("%.17g" % v for v in line).  The csvtext
module produces them in bulk with numpy, from correctly rounded 17-digit
decimals, and streams them in blocks of whole lines sized by the one work
budget, numerics._TILE_BYTES; Python's own formatting remains only for
the rare values whose digits it cannot certify (see csvtext).

Exit codes: 0 success; 2 validation failure (error JSON on stderr): the
runners check the parameters the library would reject before it runs;
1 internal error (error JSON starting "internal:"): any other exception,
so a fault inside the numerics or the writer is never reported as bad
input; 3 run completed but raised warnings and --strict was given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import csvtext
from . import cylinder as cyl
from . import groups
from .gabor import (
    SampledSignal,
    _require_unit_norm,
    gabor_reconstruct,
    gabor_transform,
    gaussian_probe,
    make_test_signal,
)
from .numerics import _BESSEL_ORDER_CAP, Grid1D, PhaseSpaceGrid
from .quantize import (
    Distribution,
    gaussian_distribution,
    kernel_diagnostics,
    overlap_kernel,
    positivity_certificate,
    quantize_to_kernel,
)
from .stellar import StellarParams, pentagon_zeros, stellar_experiment

SCHEMA = 3
PHASE_GRID_HEADER = "omega_start,omega_step,n_omega,b_start,b_step,n_b"
GENERIC_GRID_HEADER = ("axis0_start,axis0_step,axis0_count,"
                       "axis1_start,axis1_step,axis1_count")


class ValidationFailure(Exception):
    """Bad config, bad parameter, or unusable output location."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path, command: str):
    if path is None:
        return 0, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationFailure("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ValidationFailure("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ValidationFailure("config must be a JSON object")
    unknown = sorted(set(cfg) - {"command", "seed", "parameters"})
    if unknown:
        raise ValidationFailure("unknown config key(s): %s" % ", ".join(unknown))
    if "command" in cfg and cfg["command"] != command:
        raise ValidationFailure(
            "config command %r does not match subcommand %r"
            % (cfg["command"], command))
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationFailure("seed must be a non-negative integer")
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        raise ValidationFailure("parameters must be a JSON object")
    return seed, params


def _probe(grid: Grid1D, width: float):
    """The Gaussian probe; a time grid too short or too coarse to hold it
    is bad input."""
    try:
        return gaussian_probe(grid, width)
    except ValueError as exc:
        raise ValidationFailure("probe_width %r does not fit the time "
                                "grid: %s" % (width, exc))


class _Params:
    """Typed one-shot access to the parameters object; leftovers are errors."""

    def __init__(self, raw: dict):
        self._raw = dict(raw)

    def floatval(self, key, default):
        value = self._raw.pop(key, default)
        # json reads NaN and Infinity as floats; NaN fails the comparison
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ValidationFailure("parameter %r must be a finite number" % key)
        return float(value)

    def intval(self, key, default, minimum=None):
        value = self._raw.pop(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationFailure("parameter %r must be an integer" % key)
        if abs(value) > np.iinfo(np.int64).max:
            raise ValidationFailure("parameter %r is out of range" % key)
        if minimum is not None and value < minimum:
            raise ValidationFailure("parameter %r must be >= %d" % (key, minimum))
        return value

    def positive(self, key, default):
        value = self.floatval(key, default)
        if not value > 0:
            raise ValidationFailure("parameter %r must be positive" % key)
        if not 1.0 / value <= sys.float_info.max:  # rates and widths take 1/value
            raise ValidationFailure("parameter %r is too small: 1/%s overflows" % (key, key))
        return value

    def span(self, lo_key, lo, hi_key, hi):
        lo, hi = self.floatval(lo_key, lo), self.floatval(hi_key, hi)
        if not lo < hi:
            raise ValidationFailure(
                "parameter %r must be below %r" % (lo_key, hi_key))
        if not hi - lo <= sys.float_info.max:
            raise ValidationFailure(
                "%r to %r is wider than float range" % (lo_key, hi_key))
        return lo, hi

    def square_grid(self, lo_key, lo, hi_key, hi, n_key, n, minimum):
        """The square phase-space grid of n cells per axis over [lo, hi);
        a cell measure d(omega)*d(b)/(2*pi) that overflows or underflows to
        0 is bad input."""
        lo, hi = self.span(lo_key, lo, hi_key, hi)
        axis = Grid1D.regular(lo, hi, self.intval(n_key, n, minimum=minimum))
        # checked before PhaseSpaceGrid refuses it, to name the keys
        cell = axis.step * axis.step / (2.0 * np.pi)
        if not 0.0 < cell <= sys.float_info.max:
            raise ValidationFailure("%r to %r is too %s for %r: the cell measure %s" % (
                lo_key, hi_key, "wide" if cell else "narrow", n_key,
                "overflows" if cell else "underflows to 0"))
        return PhaseSpaceGrid(axis, axis)

    def strval(self, key, default):
        value = self._raw.pop(key, default)
        if value is not None and not isinstance(value, str):
            raise ValidationFailure("parameter %r must be a string" % key)
        return value

    def source(self, key, file_key, default):
        """An input comes by name (``key``) or from a file (``file_key``),
        never both; with neither, ``default`` names it.  Returns the name
        (None for a file) and the path."""
        name, path = self.strval(key, None), self.strval(file_key, None)
        if name is not None and path is not None:
            raise ValidationFailure("give only one of %r or %r" % (key, file_key))
        return (default if name is None and path is None else name), path

    def optional_int(self, key, minimum=None):
        if key not in self._raw:
            return None
        return self.intval(key, None, minimum=minimum)

    def finish(self, source=None):
        """Refuse the keys nobody read, naming the input they came with."""
        if self._raw:
            raise ValidationFailure("unknown parameter(s)%s: %s" % (
                "" if source is None else " with " + source,
                ", ".join(sorted(self._raw))))


# ---------------------------------------------------------------------------
# writers and readers
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8", newline="\n")


def _write_grid_csv(path: Path, axis0: Grid1D, axis1: Grid1D,
                    values: np.ndarray, header: str) -> None:
    meta = ",".join("%.17g,%.17g,%d" % (a.start, a.step, a.count)
                    for a in (axis0, axis1))
    with open(path, "wb") as fh:
        fh.write(("# %s\n# %s\n" % (header, meta)).encode())
        csvtext.write_rows(fh, values)


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationFailure("%s CSV holds non-finite values" % what)


def _read_csv(path, what: str):
    """Leading comment lines (without their "# ") and the finite float body
    of a CSV; read and parse failures become ValidationFailures."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        head = next((i for i, line in enumerate(lines)
                     if not line.startswith("#")), len(lines))
        rows = np.loadtxt(lines[head:], delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise ValidationFailure("cannot read %s CSV: %s" % (what, exc))
    except ValueError as exc:
        raise ValidationFailure("%s CSV parse error: %s" % (what, exc))
    _require_finite(rows, what)
    return [line.lstrip("# ") for line in lines[:head]], rows


def _read_phase_grid_csv(path) -> Distribution:
    comments, values = _read_csv(path, "grid")
    if len(comments) < 2 or comments[0].strip() != PHASE_GRID_HEADER:
        raise ValidationFailure(
            "grid CSV must start with '# %s'" % PHASE_GRID_HEADER)
    meta = comments[1].split(",")
    if len(meta) != 6:
        raise ValidationFailure("grid CSV metadata line must carry 6 fields")
    try:
        grid = PhaseSpaceGrid(*(Grid1D(float(meta[k]), float(meta[k + 1]),
                                       int(meta[k + 2])) for k in (0, 3)))
    except ValueError as exc:
        raise ValidationFailure("grid CSV parse error: %s" % exc)
    if values.shape != grid.shape:
        raise ValidationFailure(
            "grid CSV body %s does not match declared shape %s"
            % (values.shape, grid.shape))
    if np.any(values < 0):
        raise ValidationFailure("grid CSV holds negative values")
    return Distribution(grid, values)


def _read_signal_csv(path) -> SampledSignal:
    _, rows = _read_csv(path, "signal")
    if rows.shape[1] != 3 or rows.shape[0] < 2:
        raise ValidationFailure("signal CSV needs columns t, re, im")
    t = rows[:, 0]
    steps = np.diff(t)
    step = steps[0]
    if step <= 0 or np.abs(steps - step).max() > 1e-9 * max(abs(step), 1.0):
        raise ValidationFailure("signal CSV time column must be uniform")
    grid = Grid1D(float(t[0]), float(step), len(t))
    signal = SampledSignal(grid, rows[:, 1] + 1j * rows[:, 2])
    if signal.energy == 0.0:
        raise ValidationFailure("signal CSV has zero energy")
    return signal


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# group-check
# ---------------------------------------------------------------------------

def _run_group_check(params: _Params, seed: int, outdir: Path) -> None:
    trials = params.intval("trials", 1000, minimum=1)
    params.finish()
    rng = np.random.default_rng(seed)
    # (suite, coordinates per element, element from its coordinates in field
    # order, law, matrix map), built per call so that the laws are read from
    # the module's bindings at run time; a coordinate is a block of all trials.
    table = [("heisenberg_line_matrix", 3, lambda x: groups.WHElement(*x),
              groups.wh_compose, groups.wh_to_matrix)]
    table += [("polarized_rank%d_matrix" % n, 2 * n + 1,
               lambda x: groups.PolarizedElement(x[:len(x) // 2], x[len(x) // 2:-1], x[-1]),
               groups.polarized_compose, groups.polarized_to_matrix) for n in (1, 2, 3)]
    table += [("symplectic_dim%d_matrix" % dim, dim + 1,
               lambda x: groups.SymplecticElement(x[0], x[1:]),
               groups.symplectic_compose, groups.symplectic_to_matrix) for dim in (2, 4)]
    table.append(("unitriangular4_matrix", 6,
                  lambda x: groups.Unitriangular4Element(x[0], x[1:3], x[3:]),
                  groups.unitriangular4_compose, groups.unitriangular4_to_matrix))
    suites = {}
    for name, k, element, compose, to_matrix in table:
        g1, g2 = map(element, rng.uniform(-3.0, 3.0, (trials, 2, k)).transpose(1, 2, 0))
        law = to_matrix(compose(g1, g2))
        error = float(np.abs(law - to_matrix(g1) @ to_matrix(g2)).max())
        suites[name] = {"max_error": error, "pass": bool(error < 1e-12)}

    field = groups.PrimeField(5)
    elements = [groups.WHElement(c, a, b, ring=field)
                for c in range(5) for a in range(5) for b in range(5)]
    distinct = set(elements)
    closed = all(groups.wh_compose(g, h) in distinct
                 for g in elements[::7] for h in elements[::11])
    inverses = all(
        groups.wh_compose(g, groups.wh_inverse(g)) == groups.wh_identity(field)
        for g in elements)
    suites["z5_order_and_closure"] = {
        "order": len(distinct),
        "pass": bool(len(distinct) == 125 and closed and inverses),
    }

    filtration = groups.nilpotency_filtration_check(4)
    suites["nilpotency_filtration"] = {
        "detail": filtration,
        "pass": bool(filtration["all_pass"]),
    }

    units = np.array([[groups.matrix_unit(4, i, j) for j in range(1, 5)]
                      for i in range(1, 5)])
    # E_ij E_kl = delta_jk E_il for every index quadruple
    error = float(np.abs(np.einsum("ijab,klbc->ijklac", units, units)
                         - np.einsum("jk,ilac->ijklac", np.eye(4), units)).max())
    suites["matrix_unit_products"] = {"max_error": error, "pass": bool(error == 0.0)}

    report = {
        "schema": SCHEMA,
        "seed": seed,
        "trials": trials,
        "suites": suites,
        "all_pass": bool(all(s["pass"] for s in suites.values())),
    }
    _write_json(outdir / "group_check.json", report)


# ---------------------------------------------------------------------------
# gabor
# ---------------------------------------------------------------------------

def _energy_report(signal, coeffs, recon) -> dict:
    """Parseval and round-trip bookkeeping of a transform and its inverse."""
    diff = recon.values - signal.values
    roundtrip = float(np.sqrt(signal.grid.step * np.sum(np.abs(diff) ** 2)))
    return {
        "signal_energy": signal.energy,
        "coefficient_energy": coeffs.energy,
        "parseval_rel_error": abs(coeffs.energy - signal.energy) / signal.energy,
        "roundtrip_l2_error": roundtrip,
        "roundtrip_rel_error": roundtrip / signal.norm,
    }


def _run_gabor(params: _Params, seed: int, outdir: Path) -> None:
    name, csv_path = params.source("signal", "signal_csv", "gaussian")
    probe_width = params.positive("probe_width", 1.0)
    if name is not None:  # a CSV signal brings its own time grid
        t_start, t_stop = params.span("time_start", -20.0, "time_stop", 20.0)
        n_time = params.intval("n_time", 1024, minimum=2)
    tf_grid = params.square_grid("tf_min", -16.0, "tf_max", 16.0, "n_tf", 256, minimum=2)
    params.finish("signal_csv" if name is None else "signal=%r" % name)
    label = "csv:%s" % Path(csv_path).name if name is None else name
    if name is None:
        signal = _read_signal_csv(csv_path)
    else:
        grid = Grid1D.regular(t_start, t_stop, n_time)
        try:
            signal = make_test_signal(name, grid)
        except ValueError as exc:
            raise ValidationFailure("signal %r: %s" % (name, exc))
    probe = _probe(signal.grid, probe_width)
    coeffs = gabor_transform(probe, signal, tf_grid)
    energy = _energy_report(signal, coeffs, gabor_reconstruct(probe, coeffs))
    if not np.all(np.isfinite(list(energy.values()))):
        # JSON has no Infinity or NaN, and these numbers mean nothing
        raise ValidationFailure("'tf_min' to 'tf_max' is too wide for 'n_tf': the "
                                "energy report overflows")
    report = {"schema": SCHEMA, "signal": label, "probe_width": probe_width}
    report.update(energy)
    _write_grid_csv(outdir / "coefficients_modulus.csv",
                    tf_grid.omega_axis, tf_grid.b_axis,
                    np.abs(coeffs.values), PHASE_GRID_HEADER)
    _write_json(outdir / "report.json", report)


# ---------------------------------------------------------------------------
# cylinder
# ---------------------------------------------------------------------------

def _run_cylinder(params: _Params, seed: int, outdir: Path) -> None:
    lam = params.floatval("lam", 2.0)
    m = params.intval("m", 1)
    mprime = params.intval("mprime", 0)
    n_theta = params.intval("n_theta", 129, minimum=2)
    n_gamma = params.intval("n_gamma", 256, minimum=8)
    m_max = params.optional_int("m_max", minimum=0)
    shift_m = params.intval("shift_m", 2)
    shift_theta = params.floatval("shift_theta", 0.7)
    params.finish()
    if not 0.0 < lam <= 50.0:
        raise ValidationFailure("lam must lie in (0, 50]")
    if abs(m - mprime) > _BESSEL_ORDER_CAP:  # the Bessel order of the kernel
        raise ValidationFailure("|m - mprime| must be at most %d" % _BESSEL_ORDER_CAP)
    if m_max is not None and 2 * m_max + 1 > n_gamma:
        raise ValidationFailure("m_max must satisfy 2*m_max + 1 <= n_gamma")

    probe = cyl.von_mises(lam, n_gamma)
    try:
        _require_unit_norm(probe)
    except ValueError as exc:
        raise ValidationFailure("parameter 'n_gamma' %d is too small for the "
                                "window at lam %r: %s" % (n_gamma, lam, exc))
    signal = cyl.displace(shift_m, shift_theta, probe)
    if m_max is None:
        m_max = cyl.adaptive_m_cutoff(probe, signal)
    coeffs = cyl.cyl_gabor_transform(probe, signal, m_max)
    recon = cyl.cyl_reconstruct(probe, coeffs)
    axis = Grid1D.regular(-2.0 * np.pi, 2.0 * np.pi, n_theta)
    kernel = cyl.reproducing_kernel(lam, m, axis.points[:, None],
                                    mprime, axis.points[None, :])
    report = {
        "schema": SCHEMA,
        "lam": lam,
        "m": m,
        "mprime": mprime,
        "m_cutoff": int(m_max),
    }
    report.update(_energy_report(signal, coeffs, recon))
    for suffix, block in (("real", kernel.real), ("imag", kernel.imag),
                          ("modulus", np.abs(kernel))):
        _write_grid_csv(outdir / ("kernel_%s.csv" % suffix), axis, axis,
                        block, GENERIC_GRID_HEADER)
    _write_json(outdir / "report.json", report)


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

def _run_quantize(params: _Params, seed: int, outdir: Path) -> None:
    kind, w_csv = params.source("w", "w_csv", "gaussian")
    if kind == "gaussian":
        sigma_omega = params.positive("sigma_omega", 1.0)
        sigma_b = params.positive("sigma_b", 1.0)
        for key, sigma in (("sigma_omega", sigma_omega), ("sigma_b", sigma_b)):
            if not 0.0 < 2.0 * sigma * sigma <= sys.float_info.max:
                raise ValidationFailure("parameter %r is out of range: 2*%s**2 %s" % (
                    key, key, "underflows to 0" if sigma < 1.0 else "overflows"))
        if sigma_omega * sigma_b < sys.float_info.min:
            raise ValidationFailure("'sigma_omega' * 'sigma_b' is too small: "
                                    "the peak density overflows")
        center_omega = params.floatval("center_omega", 0.0)
        center_b = params.floatval("center_b", 0.0)
    elif kind == "overlap":
        a = params.positive("a", 1.0)
        r = params.positive("r", 1.0)
    elif kind is not None:
        raise ValidationFailure("w must be 'gaussian' or 'overlap'")
    if kind is not None:  # a CSV density brings its own grid
        grid = params.square_grid("tf_min", -16.0, "tf_max", 16.0, "n_tf", 256, minimum=2)
    probe_width = params.positive("probe_width", 1.0)
    t_start, t_stop = params.span("time_start", -20.0, "time_stop", 20.0)
    n_time = params.intval("n_time", 256, minimum=2)
    params.finish("w_csv" if kind is None else "w=%r" % kind)
    label = "csv:%s" % Path(w_csv).name if kind is None else kind
    if kind is None:
        w = _read_phase_grid_csv(w_csv)
        if not abs(w.mass - 1.0) <= 1e-6:
            raise ValidationFailure(
                "w grid has mass %.9g; normalize it before quantizing" % w.mass)
    else:
        if kind == "gaussian":
            w = gaussian_distribution(grid, sigma_omega, sigma_b,
                                      center=(center_omega, center_b))
        else:
            w = overlap_kernel(a, r, grid)
        if not w.mass > 0:
            raise ValidationFailure("w has no mass on the grid")
        w = w.normalized()
    time_grid = Grid1D.regular(t_start, t_stop, n_time)
    kernel = quantize_to_kernel(w, _probe(time_grid, probe_width))
    # rows t_i,t_j,re,im: the (n, n, 2) float view of the C-ordered entries
    with open(outdir / "kernel.csv", "wb") as fh:
        fh.write(b"# t_i,t_j,re,im\n")
        csvtext.write_pair_rows(fh, time_grid.points,
                                kernel.entries.view(np.float64).reshape(n_time, n_time, 2))
    report = {"schema": SCHEMA, "w": label, "probe_width": probe_width}
    report.update(kernel_diagnostics(kernel))
    report.update(positivity_certificate(kernel))
    _write_json(outdir / "diagnostics.json", report)


# ---------------------------------------------------------------------------
# stellar
# ---------------------------------------------------------------------------

def _load_zeros(spec_name, zeros_path):
    if spec_name is not None:
        if spec_name != "pentagon":
            raise ValidationFailure("named zero fixtures: 'pentagon'")
        return pentagon_zeros()
    try:
        with open(zeros_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationFailure("cannot read zeros JSON: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ValidationFailure("zeros file is not valid JSON: %s" % exc)
    if (not isinstance(data, list) or not data
            or not all(isinstance(z, dict) and set(z) == {"re", "im"}
                       and all(isinstance(z[k], (int, float))
                               and not isinstance(z[k], bool) for k in ("re", "im"))
                       for z in data)):
        raise ValidationFailure("zeros JSON must be a non-empty list of {re, im}")
    # NaN and infinities fail the comparison, and so do ints beyond float range
    if not all(abs(z[k]) <= sys.float_info.max for z in data for k in ("re", "im")):
        raise ValidationFailure("zeros JSON holds non-finite values")
    return np.array([complex(z["re"], z["im"]) for z in data])


def _run_stellar(params: _Params, seed: int, outdir: Path) -> None:
    name, zeros_path = params.source("zeros", "zeros_json", "pentagon")
    s = params.floatval("s", 0.945)
    probe_a = params.positive("a", 2.0)
    probe_r = params.positive("r", 2.0)
    grid = params.square_grid("grid_min", -4.0, "grid_max", 4.0, "n_grid", 512, minimum=16)
    rel_threshold = params.floatval("rel_threshold", 1e-2)
    match_cutoff = params.positive("match_cutoff", 0.5)
    fold = params.optional_int("symmetry_fold", minimum=2)
    params.finish()
    if not 0.0 < s < 1.0:
        raise ValidationFailure("s must lie in (0, 1)")
    if not 1.0 / s <= sys.float_info.max:  # the envelope rate is 1/s - 1
        raise ValidationFailure("parameter 's' is too small: 1/s overflows")
    if not 0.0 < rel_threshold <= 1.0:
        raise ValidationFailure("rel_threshold must lie in (0, 1]")
    zeros = _load_zeros(name, zeros_path)
    # |prod(z - z_i)|^2 <= (corner + max|z_i|)^(2*len(zeros)) on the square grid
    axis = grid.b_axis
    corner = math.sqrt(2.0) * max(abs(axis.start), abs(axis.start + axis.step * (axis.count - 1)))
    reach = corner + float(np.abs(zeros).max())
    if 2 * len(zeros) * math.log(reach) > math.log(sys.float_info.max):
        raise ValidationFailure("'grid_min' to 'grid_max' is too wide for %d zeros: "
                                "the zero polynomial overflows" % len(zeros))
    if fold is None and name == "pentagon":
        fold = 5
    try:  # the portrait smoothing centres its Gaussians on the origin
        grid.omega_axis.origin_index()  # the b axis too: the grid is square
    except ValueError as exc:
        raise ValidationFailure("stellar grid: %s" % exc)
    pars = StellarParams(s=s, probe_a=probe_a, probe_r=probe_r, grid=grid)
    report, w, smoothed = stellar_experiment(
        zeros, pars, rel_threshold=rel_threshold, match_cutoff=match_cutoff,
        symmetry_fold=fold)
    report["schema"] = SCHEMA
    _write_grid_csv(outdir / "w.csv", pars.grid.omega_axis, pars.grid.b_axis,
                    w.values, PHASE_GRID_HEADER)
    _write_grid_csv(outdir / "portrait.csv", pars.grid.omega_axis,
                    pars.grid.b_axis, smoothed.values, PHASE_GRID_HEADER)
    _write_json(outdir / "report.json", report)


# subcommand -> (runner, help), in the order the CLI lists them
COMMANDS = {
    "group-check": (_run_group_check,
                    "run the randomized group-law and matrix-oracle suites"),
    "gabor": (_run_gabor,
              "transform a line signal and report reconstruction quality"),
    "cylinder": (_run_cylinder,
                 "circle transform, reproducing kernel grids, reports"),
    "quantize": (_run_quantize,
                 "quantize a phase-space density to an operator kernel"),
    "stellar": (_run_stellar,
                "zero-constellation density, portrait, minima report"),
}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run(command: str, config_path, out_dir, strict: bool) -> int:
    if command not in COMMANDS:
        raise ValidationFailure("unknown command %r" % command)
    seed, raw_params = _load_config(config_path, command)
    out = Path(out_dir)
    if out.exists():
        if not out.is_dir() or any(out.iterdir()):
            raise ValidationFailure(
                "output location %s exists and is not an empty directory" % out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".weylgabor-", dir=out.parent))
    start = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            COMMANDS[command][0](_Params(raw_params), seed, tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    wall = time.perf_counter() - start
    warning_texts = ["%s: %s" % (type(w.message).__name__, w.message)
                     for w in caught]
    manifest = {
        "schema": SCHEMA,
        "command": command,
        "version": __version__,
        "config": {"command": command, "seed": seed, "parameters": raw_params},
        "strict": bool(strict),
        "wall_time_s": wall,
        "warnings": warning_texts,
        "outputs": {f.name: _sha256(f) for f in sorted(tmp.iterdir())},
    }
    _write_json(tmp / "manifest.json", manifest)
    if out.exists():
        out.rmdir()
    tmp.rename(out)
    if strict and warning_texts:
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylgabor",
        description="Group checks, time-frequency transforms, quantization, "
                    "and zero-constellation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config file (command, seed, parameters)")
        p.add_argument("--out", required=True,
                       help="output directory (created atomically; must not "
                            "already contain files)")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when the run raises warnings")
    args = parser.parse_args(argv)
    try:
        return run(args.command, args.config, args.out, args.strict)
    except ValidationFailure as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a fault of the program, not of its input
        print(json.dumps({"schema": SCHEMA, "error": "internal: %s: %s"
                          % (type(exc).__name__, exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
