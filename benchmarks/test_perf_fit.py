"""Acceptance gate for adaptive ensemble training.

Three contracts, all against the "classic" baseline: cold fits with
member freezing off (``freeze_patience=math.inf``), the global-stop loop
where every member trains until the mean loss plateaus:

* **campaign fit wall-time** — a training *trajectory* at the fig11
  paper-anchor set sizes (N=2000 and N=500 stage-one draws): one cold
  fit plus three drift-regime refits, the workload the online tuner and
  the serve daemon's watch campaigns actually run.  Adaptive training
  (member freezing on the cold fit, warm starts on the refits) must be
  ``>= MIN_SPEEDUP`` faster in aggregate, with mean prediction
  divergence ``<= MAX_REL_DIVERGENCE`` on every fit.
* **tuner-pick parity** — with freezing disabled the training loop is
  bit-identical to the reference global-stop loop
  (``tests/test_ml_adaptive.py::classic_train``), so the end-to-end
  tuner pick must not move: 20 seeded tunes per trainer, 20/20
  identical picks (the same acceptance pattern the fused sweep engine
  shipped under in
  ``test_perf_predict_sweep.py::test_tuner_pick_unchanged_by_engine``).
* **warm-restart convergence** — a warm refit must spend fewer epochs
  than the cold fits it replaces (deterministic, wall-noise-free).

Each run appends a trajectory point to ``benchmarks/BENCH_fit.json``
(rendered by ``repro bench-report``) so fit-speed regressions show up
as a series, not just a pass/fail bit.
"""

import importlib.util
import json
import math
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.encoding import ConfigEncoder
from repro.core.measure import Measurer
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import get_benchmark
from repro.ml.ensemble import EnsembleMLPRegressor
from repro.runtime import Context
from repro.simulator import get_device

from conftest import emit

ARTIFACT = Path(__file__).parent / "BENCH_fit.json"

#: Acceptance gates (ISSUE: adaptive ensemble-training engine).
MIN_SPEEDUP = 2.5          # aggregate campaign wall, classic / adaptive
MAX_REL_DIVERGENCE = 0.10  # mean |pred_a - pred_c| / pred_c, per fit
PICK_SEEDS = 20            # seeded tunes in the parity stage

KERNEL = "convolution"
DEVICE = "gtx980"
ANCHORS = (2000, 500)      # fig11 stage-one sizes
REFITS = 3                 # drift regimes per anchor


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


def _campaign_targets(n_train: int):
    """Stage-one features plus one clean + ``REFITS`` drifted target sets.

    The drifted sets model what a re-tune refits on: the same
    configurations, re-measured under a contention regime (a global
    level plus per-configuration quirks that reorder the space).
    """
    spec = get_benchmark(KERNEL)
    ctx = Context(get_device(DEVICE), seed=0)
    ms = Measurer(ctx, spec).sample_and_measure(n_train, np.random.default_rng(0))
    X = ConfigEncoder(spec.space).encode_indices(ms.indices)
    rng = np.random.default_rng(42)
    targets = [np.log(ms.times_s)]
    for r in range(REFITS):
        factors = (1.1 + 0.1 * r) * rng.lognormal(0.0, 0.05, ms.times_s.shape)
        targets.append(np.log(ms.times_s * factors))
    return X, targets


def _run_campaign(X, targets, adaptive):
    """Fit the clean set cold, then refit each drifted set.

    The classic baseline (freezing off) refits cold every time, which is
    exactly what pre-adaptive campaigns paid; adaptive training freezes
    members and warm-starts the refits.
    """
    if adaptive:
        model = EnsembleMLPRegressor(seed=0)
    else:
        model = EnsembleMLPRegressor(seed=0, freeze_patience=math.inf)
    wall = 0.0
    epochs = 0
    work = 0
    preds = []
    for i, y in enumerate(targets):
        t0 = time.perf_counter()
        model.fit(X, y, warm_start=(adaptive and i > 0))
        wall += time.perf_counter() - t0
        epochs += len(model.loss_curve_)
        work += int(model.member_epochs_.sum())
        preds.append(model.predict(X))
    return model, wall, epochs, work, preds


def test_campaign_fit_speedup_and_quality():
    per_anchor = []
    wall_c = wall_a = 0.0
    for n in ANCHORS:
        X, targets = _campaign_targets(n)
        _, wc, ec, workc, pc = _run_campaign(X, targets, adaptive=False)
        ma, wa, ea, worka, pa = _run_campaign(X, targets, adaptive=True)
        rel = max(
            float(np.mean(np.abs(np.exp(a) - np.exp(c)) / np.exp(c)))
            for a, c in zip(pa, pc)
        )
        per_anchor.append({
            "n_train": n,
            "n_valid": int(X.shape[0]),
            "classic_wall_s": round(wc, 3),
            "adaptive_wall_s": round(wa, 3),
            "classic_epochs": ec,
            "adaptive_epochs": ea,
            "classic_member_epochs": workc,
            "adaptive_member_epochs": worka,
            "speedup": round(wc / wa, 2),
            "max_rel_divergence": round(rel, 4),
            "final_frozen": int(ma.n_frozen_),
            "final_stop": ma.stop_reason_,
        })
        wall_c += wc
        wall_a += wa
        assert rel <= MAX_REL_DIVERGENCE, (
            f"N={n}: adaptive predictions diverge {rel:.3f} from classic "
            f"(gate {MAX_REL_DIVERGENCE})"
        )

    speedup = wall_c / wall_a
    lines = [
        f"campaign fit trajectory ({KERNEL} @ {DEVICE}, "
        f"1 cold fit + {REFITS} drift refits per anchor):"
    ]
    for a in per_anchor:
        lines.append(
            f"  N={a['n_train']:4d} ({a['n_valid']:4d} valid): "
            f"classic {a['classic_wall_s']:7.2f} s / {a['classic_epochs']} ep"
            f"   adaptive {a['adaptive_wall_s']:7.2f} s / {a['adaptive_epochs']} ep"
            f"   {a['speedup']:.2f}x  (divergence {a['max_rel_divergence']:.3f})"
        )
    lines.append(
        f"  aggregate: {wall_c:.2f} s -> {wall_a:.2f} s = {speedup:.2f}x "
        f"(gate {MIN_SPEEDUP}x)"
    )
    emit("\n".join(lines))
    _append_trajectory({
        "bench": "campaign_fit_speedup",
        "kernel": KERNEL,
        "device": DEVICE,
        "refits": REFITS,
        "classic_wall_s": round(wall_c, 3),
        "adaptive_wall_s": round(wall_a, 3),
        "speedup": round(speedup, 2),
        "anchors": per_anchor,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"campaign fit only {speedup:.2f}x faster (gate {MIN_SPEEDUP}x)"
    )


def test_warm_refit_spends_fewer_epochs():
    """Deterministic companion to the wall gate: warm refits must spend
    strictly fewer member-epochs than the cold fits they replace."""
    X, targets = _campaign_targets(500)
    _, _, ec, workc, _ = _run_campaign(X, targets, adaptive=False)
    _, _, ea, worka, _ = _run_campaign(X, targets, adaptive=True)
    emit(
        f"refit epoch spend (N=500): classic {ec} epochs / {workc} "
        f"member-epochs, adaptive {ea} epochs / {worka} member-epochs"
    )
    assert ea < ec
    assert worka < workc


def _classic_train():
    """The reference global-stop loop, kept as the oracle in
    ``tests/test_ml_adaptive.py`` (loaded by path: the benchmark suite
    does not put the test package on ``sys.path``)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "test_ml_adaptive.py"
    spec = importlib.util.spec_from_file_location("_ml_adaptive_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.classic_train


@pytest.mark.slow
def test_tuner_pick_unchanged_by_adaptive_engine(monkeypatch):
    """Freezing off, the training loop is the reference global-stop loop
    bit for bit — so over PICK_SEEDS seeded end-to-end tunes the pick
    must never move."""
    spec = get_benchmark(KERNEL)
    classic_train = _classic_train()
    parity = TunerSettings(
        n_train=300,
        m_candidates=30,
        freeze_patience=math.inf,
    )

    def tune(seed, reference):
        with monkeypatch.context() as mp:
            if reference:
                mp.setattr(EnsembleMLPRegressor, "_train", classic_train)
            ctx = Context(get_device(DEVICE), seed=seed)
            tuner = MLAutoTuner(ctx, spec, parity)
            return tuner.tune(np.random.default_rng(seed), model_seed=seed)

    matched = 0
    for seed in range(PICK_SEEDS):
        c = tune(seed, reference=True)
        a = tune(seed, reference=False)
        assert a.best_index == c.best_index, (
            f"seed {seed}: adaptive pick {a.best_index} != "
            f"classic {c.best_index}"
        )
        assert a.best_time_s == c.best_time_s
        matched += 1
    emit(
        f"tuner pick parity ({KERNEL} @ {DEVICE}, N=300/M=30, "
        f"freeze disabled): {matched}/{PICK_SEEDS} seeds identical"
    )
    assert matched == PICK_SEEDS
