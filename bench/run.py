#!/usr/bin/env python3
"""Benchmark of the weylgabor CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/``.  One process runs one workload.  Set-up times a cold
``import weylgabor.cli`` in fresh interpreters; then whole passes of the
workload's operations repeat until ``--seconds`` have elapsed.  Each pass is
followed by checks of its outputs against independent computations, which
are not timed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; their times are multiplied by a host speed factor
measured with a fixed probe before every operation.  With ``--trace 1``
traced and untraced passes alternate, spans are recorded around the
package's public functions, and the JSON object holds the per-layer metrics;
the spans are written to ``.bench_build/spans-<workload>.npz``.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOAD_NAMES = ("quantize-operators", "stellar-portraits", "transforms-groups")
COMMANDS = ("quantize", "stellar", "gabor", "cylinder", "group-check")
SETUP_IMPORTS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the package's hot paths are single-threaded Python and
# FFTs, and the load stays on one core of the shared host.
BLAS_THREADS = 1

# per-layer metrics: span name -> whether its call count is reported too
LAYER_SPANS = {
    "quantize.quantize_to_kernel": False,
    "quantize.weyl_operator_from_weight": False,
    "quantize.density_diagnostics": False,
    "quantize.portrait": False,
    "numerics.grid_convolve": False,
    "numerics.find_local_minima": False,
    "numerics.batch_fractional_shift": False,
    "numerics.bessel_i": True,
    "cylinder.reproducing_kernel": True,
    "cylinder.cyl_gabor_transform": False,
    "cylinder.cyl_reconstruct": False,
    "gabor.gabor_transform": False,
    "gabor.gabor_reconstruct": False,
    "gabor.covariance_residual": False,
    "stellar.stellar_distribution": True,
    "stellar.stellar_experiment": False,
    "stellar.hermite_gram": False,
    "groups.compose": True,
    "groups.to_matrix": False,
}
IMPORT_MODULES = ("weylgabor.numerics", "weylgabor.cli")
# Mean duration of one HostProbe sample on the reference machine.  The
# end-to-end times are reported multiplied by PROBE_REFERENCE_S / (mean probe
# duration of the run): seconds at the reference machine's host speed.
PROBE_REFERENCE_S = 0.008


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def _python(args: list, env: dict) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError("child interpreter failed: %s" % done.stderr.strip()[-500:])
    return done


def cold_import_seconds(env: dict) -> float:
    """Wall time of ``import weylgabor.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import weylgabor.cli; "
            "print(repr(time.perf_counter() - t))")
    return float(_python(["-c", code], env).stdout)


def import_times(env: dict) -> dict:
    """Cumulative ``-X importtime`` seconds of the package's heavy modules."""
    done = _python(["-X", "importtime", "-c", "import weylgabor.cli"], env)
    found = {}
    for line in done.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in IMPORT_MODULES:
            found[parts[2]] = float(parts[1]) * 1e-6
    return found


def environment(workload, size, seed, makeup_hash, inputs_hash) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "size": size, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "makeup_sha256": makeup_hash, "inputs_sha256": inputs_hash,
    }


class HostProbe:
    """A fixed few milliseconds of float formatting, FFT and Python loop,
    on inputs no change to the package touches.  Run before every operation
    and every set-up import, its mean duration tracks how fast the shared
    host runs during this run."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._fft2 = np.fft.fft2
        self._values = rng.random(6000).tolist()
        self._matrix = rng.random((128, 128))
        self.samples: list[float] = []

    def sample(self) -> None:
        """Two probe runs."""
        for _ in range(2):
            start = time.perf_counter()
            ",".join("%.17g" % v for v in self._values)
            self._fft2(self._matrix)
            sum(i * i for i in range(30000))
            self.samples.append(time.perf_counter() - start)

    @property
    def factor(self) -> float:
        """Reference probe time over this run's mean probe time."""
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


class Tally:
    """Operations attempted and failed, with the unexpected failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: set[str] = set()

    def record(self, label: str, ok: bool, detail: str, known_fault=None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_fault:
            self.known.add("%s: %s" % (label, known_fault))
        else:
            self.unexpected.append("%s: %s" % (label, detail))


def run_pass(ops, pass_dir: Path, tally: Tally, probe: HostProbe,
             tracer=None) -> dict:
    """One whole pass: every operation timed, each after a host probe, then
    every check untimed.  ``pass_s`` sums the operations' times;
    ``peak_kib`` is the process's peak resident memory before the checks."""
    import workloads
    pass_dir.mkdir()
    results = []
    for op in ops:
        probe.sample()
        t0 = time.perf_counter()
        try:
            if tracer is not None and op.kind == "cli":
                with tracer.span("cli." + op.command):
                    result = op.run(pass_dir)
            else:
                result = op.run(pass_dir)
            error = None
        except Exception as exc:               # counted as a failed operation
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        results.append((op, time.perf_counter() - t0, result, error))
    stats = {"pass_s": sum(r[1] for r in results), "cli_s": 0.0, "api_s": 0.0,
             "commands": {}, "bytes": 0, "values": 0, "warnings": 0,
             "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    for op, seconds, result, error in results:
        if op.kind == "cli":
            stats["cli_s"] += seconds
            stats["commands"][op.command] = stats["commands"].get(op.command, 0.0) + seconds
        else:
            stats["api_s"] += seconds
        ok, detail = (False, error) if error else op.accepts(result)
        tally.record(op.name, ok, detail, op.known_fault)
        found, why = {}, "operation failed"
        if ok and op.checks:
            try:
                found = op.check(result)
            except Exception as exc:           # every label of it fails
                why = "%s: %s" % (type(exc).__name__, exc)
        for label in op.checks:
            passed, detail = found.get(label, (False, why))
            tally.record("%s/%s" % (op.name, label), passed, detail)
        if op.kind == "cli" and result is not None:
            for key, value in workloads.scan_output(result.out).items():
                stats[key] += value
    shutil.rmtree(pass_dir)
    return stats


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "weylgabor" / "__init__.py").is_file():
        print("bench: no package source at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 1
    env = child_env()
    os.environ.update({var: env[var] for var in BLAS_THREAD_VARS})

    # numpy is first imported here, after the BLAS thread variables are set
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    import weylgabor
    if not Path(weylgabor.__file__).resolve().is_relative_to(SRC):
        print("bench: imported weylgabor from %s" % weylgabor.__file__, file=sys.stderr)
        return 1
    probe = HostProbe()

    # set-up: cold imports in fresh interpreters; the traced run takes the
    # per-module import times instead
    setup, imports = [], []
    for _ in range(SETUP_IMPORTS):
        probe.sample()
        if args.trace:
            imports.append(import_times(env))
        else:
            setup.append(cold_import_seconds(env))

    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        ops, makeup_hash, inputs_hash = workloads.build(
            args.workload, args.size, args.seed, inputs)
        env_record = environment(args.workload, args.size, args.seed,
                                 makeup_hash, inputs_hash)
        print("environment " + json.dumps(env_record, sort_keys=True))

        tally = Tally()
        tracer = tracing.Tracer() if args.trace else None
        targets = (tracing.TARGETS + tracing.group_targets()) if args.trace else []
        plain, traced, ranges = [], [], []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while (time.perf_counter() < deadline or not plain
               or (args.trace and not traced)):
            pass_dir = work / ("pass-%d" % index)
            if args.trace and index % 2 == 1:
                patched = tracing.install(tracer, targets)
                lo = len(tracer)
                try:
                    with tracer.span("pass"):
                        stats = run_pass(ops, pass_dir, tally, probe, tracer)
                finally:
                    tracing.uninstall(patched)
                ranges.append((lo, len(tracer)))
                traced.append(stats)
            else:
                plain.append(run_pass(ops, pass_dir, tally, probe))
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.unexpected[:20]:
        print("FAILED " + line, file=sys.stderr)
    for line in sorted(tally.known):
        print("known fault " + line)

    if args.trace:
        metrics = layer_metrics(tracer, ranges, plain, traced, imports)
        tracer.save(BUILD / ("spans-%s.npz" % args.workload))
    else:
        metrics = end_to_end_metrics(plain, setup, probe.factor)
    passes = len(plain) + len(traced)
    print("passes %d (%d traced), operations attempted %d, failed %d"
          % (passes, len(traced), tally.attempted, tally.failed))
    print("host speed factor %.4f from %d probes" % (probe.factor, len(probe.samples)))
    print("unscaled pass_s of each pass: " + " ".join(
        "%.3f" % p["pass_s"] for p in plain + traced))
    for name, metric in metrics.items():
        print("%-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(plain: list, setup: list, factor: float) -> dict:
    """Medians, times multiplied by the host speed factor."""
    times = {"setup_s": statistics.median(setup)}
    for key in ("pass_s", "cli_s", "api_s"):
        times[key] = median_of(plain, key)
    # per-command CLI times go to the human-readable lines only: the JSON
    # object carries the same metric names on every workload
    for command in COMMANDS:
        runs = [p["commands"][command] for p in plain if command in p["commands"]]
        if runs:
            times["cli.%s_s" % command] = statistics.median(runs)
            print("%-40s %.6g s" % ("cli.%s_s" % command, times["cli.%s_s" % command] * factor))
    print("unscaled: " + ", ".join("%s %.4f s" % item for item in times.items()))
    # the first pass's peak: later ones include the memory of its checks
    peak_kib = plain[0]["peak_kib"]
    metrics = {name: {"value": times[name] * factor, "unit": "s"}
               for name in ("setup_s", "pass_s", "cli_s", "api_s")}
    metrics["artifact_mb"] = {"value": median_of(plain, "bytes") / 1e6, "unit": "MB"}
    metrics["peak_rss_mb"] = {"value": peak_kib * 1024 / 1e6, "unit": "MB"}
    return metrics


def layer_metrics(tracer, ranges, plain, traced, imports) -> dict:
    import tracing
    per_pass = [tracing.span_totals(tracer, lo, hi) for lo, hi in ranges]

    def med(fn):
        return statistics.median(fn(totals) for totals in per_pass)

    def field_of(name, key):
        return lambda totals: totals.get(name, {}).get(key, 0)

    metrics = {}
    for name, with_calls in LAYER_SPANS.items():
        metrics[name + "_s"] = {"value": med(field_of(name, "self_s")), "unit": "s"}
        if with_calls:
            metrics[name + "_calls"] = {"value": med(field_of(name, "calls")),
                                        "unit": "count"}

    def entries_rate(totals):
        span = totals.get("quantize.quantize_to_kernel")
        return span["work"] / span["total_s"] if span else 0.0
    metrics["quantize.kernel_entries_per_s"] = {"value": med(entries_rate),
                                                "unit": "1/s"}
    for command in COMMANDS:
        metrics["cli.%s_s" % command] = {
            "value": med(field_of("cli." + command, "total_s")), "unit": "s"}
        metrics["cli.%s.self_s" % command] = {
            "value": med(field_of("cli." + command, "self_s")), "unit": "s"}
    both = plain + traced
    metrics["cli.values_written"] = {"value": median_of(both, "values"), "unit": "count"}
    metrics["cli.warnings"] = {"value": median_of(both, "warnings"), "unit": "count"}
    for module in IMPORT_MODULES:
        metrics["import.%s_s" % module] = {
            "value": statistics.median(run.get(module, 0.0) for run in imports),
            "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": median_of(traced, "pass_s") - median_of(plain, "pass_s"), "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
