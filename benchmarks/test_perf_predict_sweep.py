"""Microbenchmark + acceptance gate of the fused prediction-sweep engine.

Pins the sweep engine's contract on a >= 500K-configuration sweep
(raycasting: 655,360 configs):

* the engine is >= 4x faster than the chunked reference path
  (``PerformanceModel.predict_indices_reference``);
* its predictions match the reference to <= 1e-9 relative;
* the end-to-end tuner picks the *same* configuration with the engine on
  and off at the fig11 paper-anchor settings (N=2000/M=200, N=500/M=100).

Each run also appends a trajectory point (configs/sec, speedup, peak
RSS) to ``benchmarks/BENCH_sweep.json`` so regressions show up as a
series, not just a pass/fail bit.
"""

import json
import resource
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import PerformanceModel
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels import ConvolutionKernel, RaycastingKernel
from repro.runtime import Context
from repro.simulator import NVIDIA_K40

from conftest import emit

ARTIFACT = Path(__file__).parent / "BENCH_sweep.json"

#: Acceptance gates (ISSUE: fused sweep engine).
MIN_SPEEDUP = 4.0
MAX_REL_ERR = 1e-9
MIN_SPACE = 500_000


@pytest.fixture(scope="module")
def ray_model():
    """A fitted model over the 655K-config raycasting space."""
    spec = RaycastingKernel()
    assert spec.space.size >= MIN_SPACE
    oracle = TrueTimeOracle(spec, NVIDIA_K40)
    rng = np.random.default_rng(21)
    idx = spec.space.sample_indices(800, rng)
    t = oracle.measure(idx, rng)
    ok = ~np.isnan(t)
    model = PerformanceModel(spec.space, seed=21).fit(idx[ok], t[ok])
    return spec, model


def _append_trajectory(point: dict) -> None:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=Path(__file__).parent,
            timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        rev = "unknown"
    point = {"git_rev": rev, **point}
    history = []
    if ARTIFACT.exists():
        try:
            history = json.loads(ARTIFACT.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(point)
    ARTIFACT.write_text(json.dumps(history, indent=2) + "\n")


def test_sweep_speedup_and_parity(ray_model):
    """The headline gate: >= 4x, <= 1e-9 relative."""
    spec, model = ray_model
    n = spec.space.size
    all_idx = np.arange(n, dtype=np.int64)

    t0 = time.perf_counter()
    ref = model.predict_indices_reference(all_idx)
    t_ref = time.perf_counter() - t0

    # Fresh model object so the sweeper compiles inside the timed region
    # exactly once, as it would for a tuner's single post-fit sweep.
    swept = PerformanceModel(spec.space, seed=21)
    swept._model = model._model
    t0 = time.perf_counter()
    pred = swept.predict_all()
    t_sweep = time.perf_counter() - t0

    rel = float(np.max(np.abs(pred - ref) / np.abs(ref)))
    speedup = t_ref / t_sweep
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    emit(
        f"prediction sweep, {n:,} raycasting configs (K40 model):\n"
        f"  reference (chunked): {t_ref:8.3f} s "
        f"({n / t_ref:12,.0f} configs/s)\n"
        f"  fused sweeper (f64): {t_sweep:8.3f} s "
        f"({n / t_sweep:12,.0f} configs/s)\n"
        f"  speedup            : {speedup:8.2f}x\n"
        f"  max relative error : {rel:.3e}\n"
        f"  peak RSS           : {peak_rss_mb:8.0f} MB"
    )
    _append_trajectory(
        {
            "bench": "sweep_speedup_and_parity",
            "space": spec.name,
            "n_configs": int(n),
            "reference_s": round(t_ref, 4),
            "sweep_s": round(t_sweep, 4),
            "configs_per_sec": round(n / t_sweep),
            "baseline_configs_per_sec": round(n / t_ref),
            "speedup": round(speedup, 2),
            "max_rel_err": rel,
            "peak_rss_mb": round(peak_rss_mb),
        }
    )
    assert rel <= MAX_REL_ERR, f"sweeper off by {rel:.2e} relative"
    assert speedup >= MIN_SPEEDUP, f"sweeper only {speedup:.2f}x faster"


def test_streaming_top_m_matches_full_selection(ray_model):
    """Streaming top-M over 655K configs == selection over the full
    prediction array, element for element."""
    from repro.core.sweep import select_top_m

    spec, model = ray_model
    pred = model.predict_all()
    _, want = select_top_m(pred, np.arange(spec.space.size, dtype=np.int64), 300)
    got = model.top_m(300)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_train,m", [(2000, 200), (500, 100)])
def test_tuner_pick_unchanged_by_engine(n_train, m, monkeypatch):
    """The engine is a perf change, not a semantic one: at the fig11
    paper-anchor settings the tuner's best_index must not move."""
    spec = ConvolutionKernel()

    def tune():
        ctx = Context(NVIDIA_K40, seed=13)
        settings = TunerSettings(n_train=n_train, m_candidates=m)
        tuner = MLAutoTuner(ctx, spec, settings)
        return tuner.tune(np.random.default_rng(13), model_seed=13)

    on = tune()
    # Engine off: every prediction takes the reference route.
    monkeypatch.setattr(PerformanceModel, "_get_sweeper", lambda self: None)
    off = tune()
    emit(
        f"tuner pick, N={n_train}, M={m}: engine on -> {on.best_index}, "
        f"off -> {off.best_index}"
    )
    assert on.best_index == off.best_index
    assert on.best_time_s == off.best_time_s


def test_perf_sweep_throughput(benchmark, ray_model):
    """The sweeper alone (compile + whole-space top-M) for the benchmark
    table."""
    spec, model = ray_model

    def run():
        m = PerformanceModel(spec.space, seed=21)
        m._model = model._model
        return m.top_m(300)

    top = benchmark(run)
    assert top.shape == (300,)
