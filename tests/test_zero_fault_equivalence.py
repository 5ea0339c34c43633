"""The zero-fault regression gate.

``tests/data/zero_fault_fixtures.json`` was recorded from the pre-PR code
(commit 6046c7c), before the fault-injection runtime and the resilient
measurement pipeline existed.  With no fault profile attached, every
output of the new code — measured values, valid/invalid splits, ledger
totals, the RNG stream position, the tuners' picks and costs — must be
**bit-identical** to those recordings: resilience must cost nothing when
nothing fails.

Values are compared through ``float.hex`` (no tolerance), the RNG through
the PCG64 state word (any extra or missing draw shifts it).

The tuner and iterative fixtures train with member freezing off
(``freeze_patience=math.inf``) — the global-stop loop the recordings were
made with; that setting's bit-identity with the global-stop loop is
pinned separately by ``tests/test_ml_adaptive.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.iterative import IterativeSettings, IterativeTuner
from repro.core.measure import Measurer
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import get_benchmark
from repro.runtime import Context
from repro.simulator import NVIDIA_K40

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "zero_fault_fixtures.json").read_text()
)
KERNELS = sorted(FIXTURES["kernels"])


def _ledger_hex(ledger) -> dict:
    return {
        "compile_s": float.hex(ledger.compile_s),
        "run_s": float.hex(ledger.run_s),
        "failed_s": float.hex(ledger.failed_s),
        "total_s": float.hex(ledger.total_s),
    }


def _rng_word(ctx) -> str:
    return str(ctx.measurement.rng.bit_generator.state["state"]["state"])


@pytest.mark.parametrize("kernel", KERNELS)
def test_serial_measurements_bit_identical(kernel):
    want = FIXTURES["kernels"][kernel]["serial"]
    spec = get_benchmark(kernel)
    ctx = Context(NVIDIA_K40, seed=123)
    measurer = Measurer(ctx, spec)
    indices = spec.space.sample_indices(40, np.random.default_rng(42))
    assert [int(i) for i in indices] == want["indices"]
    values = [measurer.measure(int(i)) for i in indices]
    got = [None if v is None else float.hex(v) for v in values]
    assert got == want["values"]
    assert _ledger_hex(ctx.ledger) == want["ledger"]
    assert ctx.ledger.retry_s == 0.0  # the new bucket never fills fault-free
    assert _rng_word(ctx) == want["rng_state"]
    # No resilience machinery fired.
    s = measurer.stats
    assert (s.n_transient, s.n_timeouts, s.n_retries, s.n_quarantined) == (
        0, 0, 0, 0,
    )
    assert measurer.quarantine == set()


@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_measurements_bit_identical(kernel):
    want = FIXTURES["kernels"][kernel]["batch"]
    spec = get_benchmark(kernel)
    ctx = Context(NVIDIA_K40, seed=123)
    measurer = Measurer(ctx, spec)
    indices = spec.space.sample_indices(40, np.random.default_rng(42))
    ms = measurer.measure_batch(indices)
    assert [int(i) for i in ms.indices] == want["valid_indices"]
    assert [float.hex(float(t)) for t in ms.times_s] == want["times"]
    assert [int(i) for i in ms.invalid_indices] == want["invalid_indices"]
    assert ms.n_quarantined == 0
    assert _ledger_hex(ctx.ledger) == want["ledger"]
    assert ctx.ledger.retry_s == 0.0
    assert _rng_word(ctx) == want["rng_state"]


@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNELS)
def test_tuner_pick_bit_identical(kernel):
    want = FIXTURES["kernels"][kernel]["tune"]
    spec = get_benchmark(kernel)
    ctx = Context(NVIDIA_K40, seed=7)
    # Freezing off: the fixtures anchor to the pre-PR global-stop
    # trainer, and this gate pins the measurement/ledger/RNG machinery,
    # not member freezing.  Freeze-never training parity has its own
    # anchor (tests/test_ml_adaptive.py).
    tuner = MLAutoTuner(
        ctx,
        spec,
        TunerSettings(
            n_train=600, m_candidates=60, k_bag=11, freeze_patience=math.inf
        ),
    )
    result = tuner.tune(np.random.default_rng(7), model_seed=7)
    assert result.best_index == want["best_index"]
    assert float.hex(result.best_time_s) == want["best_time_s"]
    assert result.n_trained == want["n_trained"]
    assert result.n_stage2 == want["n_stage2"]
    assert result.stage2_invalid == want["stage2_invalid"]
    assert float.hex(result.total_cost_s) == want["total_cost_s"]
    assert _ledger_hex(ctx.ledger) == want["ledger"]
    assert _rng_word(ctx) == want["rng_state"]
    # The result payload of a fault-free run carries no degradation.
    assert result.degraded is False
    assert result.degraded_reason == ""
    assert dict(result.failure_breakdown) == {}
    assert tuner.replenish_rounds_used == 0


@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNELS)
def test_iterative_pick_bit_identical(kernel):
    want = FIXTURES["kernels"][kernel]["iterative"]
    spec = get_benchmark(kernel)
    ctx = Context(NVIDIA_K40, seed=11)
    tuner = IterativeTuner(
        ctx,
        spec,
        IterativeSettings(
            total_budget=300, rounds=2, freeze_patience=math.inf
        ),
    )
    result = tuner.tune(np.random.default_rng(11), model_seed=11)
    assert result.best_index == want["best_index"]
    assert float.hex(result.best_time_s) == want["best_time_s"]
    assert float.hex(result.total_cost_s) == want["total_cost_s"]
    assert _ledger_hex(ctx.ledger) == want["ledger"]
    assert _rng_word(ctx) == want["rng_state"]
    assert result.degraded is False
    assert dict(result.failure_breakdown) == {}
