"""The benchmark's span targets stay bound: bench/tracing.py wraps package
functions by module and name, so a rename or a bypassed call would make
``--trace 1`` fail or a per-layer span read 0."""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import weylgabor.groups  # noqa: F401  (group_targets reads it from sys.modules)
from weylgabor import cli, numerics
from weylgabor.gabor import covariance_residual, gaussian_probe
from weylgabor.numerics import Grid1D, PhaseSpaceGrid
from weylgabor.quantize import gaussian_distribution, quantize_to_kernel

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracing):
    for modname, fname, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(modname), fname)), fname


def test_group_targets_find_both_laws(tracing):
    spans = [span for _, _, span, _ in tracing.group_targets()]
    assert "groups.compose" in spans
    assert "groups.to_matrix" in spans


def test_every_line_shift_reaches_the_traced_binding(monkeypatch):
    """The tracer swaps every weylgabor binding of batch_fractional_shift
    for a wrapper; counting through the same bindings shows that scalar
    and array translates, the quantizer's probe shifts and the covariance
    residual's displacement and two transforms all pass one."""
    original = numerics.batch_fractional_shift
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.ndim(args[2]))
        return original(*args, **kwargs)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "weylgabor" or n.startswith("weylgabor.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)

    probe = gaussian_probe(Grid1D.regular(-10.0, 10.0, 64), 1.0)
    probe.translated(0.3)
    assert calls == [0]
    probe.translated(np.array([-1.0, 0.0, 1.0]))
    assert calls == [0, 1]
    w = gaussian_distribution(PhaseSpaceGrid.square(-4.0, 4.0, 16)).normalized()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quantize_to_kernel(w, probe)
    assert calls == [0, 1, 1]
    covariance_residual(probe, probe, 0.5, 0.3, PhaseSpaceGrid.square(-4.0, 4.0, 16))
    assert calls == [0, 1, 1, 0, 1, 1]


def test_group_check_reaches_the_traced_group_bindings(tracing, tmp_path,
                                                       monkeypatch):
    """group-check reads each law and matrix map from the module bindings
    that the tracer swaps, so the groups.compose and groups.to_matrix spans
    count every call it makes."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "weylgabor" or n.startswith("weylgabor.")]
    calls = {"groups.compose": 0, "groups.to_matrix": 0}

    def counter(fn, span):
        def counted(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return counted

    for modname, fname, span, _ in tracing.group_targets():
        original = getattr(sys.modules[modname], fname)
        counted = counter(original, span)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)

    trials = 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"parameters": {"trials": %d}}' % trials)
    assert cli.main(["group-check", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    # seven matrix suites, each one law call and three matrix-map calls on
    # a block of all trials, whatever their number; the Z_5 suite composes
    # 18 x 12 pairs for closure and 125 inverses
    assert calls == {"groups.compose": 7 + 18 * 12 + 125,
                     "groups.to_matrix": 3 * 7}
