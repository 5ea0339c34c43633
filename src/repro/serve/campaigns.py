"""Campaign execution for the daemon: the CLI ``tune`` path, verbatim.

A fresh campaign is :func:`~repro.core.recipe.run_tune` on the request's
:class:`~repro.core.recipe.TuneSpec` — the very call ``repro tune``
makes, so it is bit-identical to the CLI for the same spec.  The only
additions are invisible to the numbers: the shared measurement broker
(whose FIFO execution through ``measure_batch_direct`` preserves the
engine's serial-equivalence invariant) and an optional streaming tracer
(observability only).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.measure import Measurer
from repro.core.online import OnlineSettings, OnlineTuner
from repro.core.recipe import TuneSpec, run_tune
from repro.core.tuner import TunerSettings
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import Context
from repro.simulator.devices import get_device
from repro.simulator.noise import CostLedger


def _cost(ledger: CostLedger) -> Dict[str, float]:
    return {
        "compile_s": ledger.compile_s,
        "run_s": ledger.run_s,
        "failed_s": ledger.failed_s,
        "retry_s": ledger.retry_s,
        "total_s": ledger.total_s,
    }


def result_payload(result, space) -> Dict[str, Any]:
    """JSON-portable view of a :class:`~repro.core.results.TuningResult`."""
    best_config = None
    if not result.failed:
        best_config = dict(space[result.best_index])
    return {
        "kernel": result.kernel,
        "device": result.device,
        "best_index": int(result.best_index),
        "best_config": best_config,
        "best_time_s": float(result.best_time_s),
        "n_trained": int(result.n_trained),
        "n_stage2": int(result.n_stage2),
        "stage2_invalid": int(result.stage2_invalid),
        "evaluated_fraction": float(result.evaluated_fraction),
        "total_cost_s": float(result.total_cost_s),
        "failed": bool(result.failed),
        "degraded": bool(result.degraded),
        "degraded_reason": result.degraded_reason,
        "failure_breakdown": dict(result.failure_breakdown),
    }


def run_campaign(
    spec: TuneSpec,
    batcher=None,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    register: Optional[Callable[[Measurer], None]] = None,
) -> Dict[str, Any]:
    """Execute one campaign; returns payload + accounting + the model.

    Runs synchronously (the server dispatches it to a worker thread).
    ``batcher`` routes every measurement batch through the shared broker;
    ``sink`` receives the campaign's trace records as they happen;
    ``register`` receives the campaign's :class:`Measurer` before tuning
    starts, so the server's ``stats`` op can report the live per-campaign
    ``failure_breakdown()`` while the campaign is in flight.
    """
    tracer = Tracer(sink=sink) if sink is not None else NULL_TRACER
    t0 = time.perf_counter()
    try:
        result, tuner = run_tune(
            spec, tracer=tracer, batcher=batcher, register=register
        )
    finally:
        tracer.close()
    wall_s = time.perf_counter() - t0

    model = tuner.model
    if model is not None:
        # The model outlives the campaign in the shared cache; detach the
        # (now closed) campaign tracer so later predicts don't emit into it.
        model.tracer = NULL_TRACER
        if model._model is not None:
            model._model.tracer = NULL_TRACER

    return {
        "result": result_payload(result, tuner.spec.space),
        "cost": _cost(tuner.context.ledger),
        "wall_s": wall_s,
        # Fitted stage-one model (None when training was skipped/degraded);
        # the server parks it in the shared ModelCache for `predict`.
        "model": model,
    }


def run_watch(
    params: Dict[str, Any],
    batcher=None,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    register: Optional[Callable[[Measurer], None]] = None,
) -> Dict[str, Any]:
    """Execute one online (watch) campaign; returns payload + accounting.

    ``params`` is a canonicalized ``watch`` request
    (:func:`repro.serve.protocol.validate_watch`).  Unlike
    :func:`run_campaign` there is no model to cache and no result-cache
    identity: a watch lives on its own drift clock, so two "identical"
    watches are different campaigns by definition.
    """
    tune = params["spec"]
    spec = tune.kernel_spec()
    tracer = Tracer(sink=sink) if sink is not None else NULL_TRACER
    ctx = Context(
        get_device(tune.device),
        seed=tune.seed,
        tracer=tracer,
        faults=tune.faults,
        drift=params["drift"],
    )
    tune_settings = TunerSettings(
        n_train=tune.n_train,
        m_candidates=tune.m_candidates,
    )
    measurer = Measurer(
        ctx, spec, repeats=tune_settings.repeats, batcher=batcher
    )
    if register is not None:
        register(measurer)
    online = OnlineTuner(
        ctx,
        spec,
        settings=OnlineSettings(
            steps=params["steps"],
            step_interval_s=params["interval_s"],
            retune_window=params["retune_window"],
            warm_start_refits=params["warm_start"],
        ),
        tune_settings=tune_settings,
        measurer=measurer,
    )
    rng = np.random.default_rng(tune.seed)
    t0 = time.perf_counter()
    try:
        report = online.run(rng, model_seed=tune.seed)
    finally:
        tracer.close()
    wall_s = time.perf_counter() - t0

    payload = report.as_dict()
    payload["initial"] = result_payload(report.initial, spec.space)
    if not report.initial.failed:
        payload["incumbent_config"] = dict(spec.space[report.incumbent])
    payload["detector"] = online.detector.snapshot()

    return {"result": payload, "cost": _cost(ctx.ledger), "wall_s": wall_s}
