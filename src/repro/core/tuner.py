"""The two-stage ML auto-tuner (§5 / Fig. 3 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.measure import MeasurementSet, Measurer
from repro.core.model import PerformanceModel
from repro.core.results import TuningResult
from repro.kernels.base import KernelSpec
from repro.runtime import Context


@dataclass(frozen=True)
class TunerSettings:
    """Knobs of the auto-tuner.

    Attributes
    ----------
    n_train:
        Stage-one random configurations to measure (the paper sweeps
        100..4000).
    m_candidates:
        Stage-two candidates: the M lowest-predicted configurations are
        measured for real (the paper uses 10..300).
    k_bag:
        Bagging folds of the ANN ensemble (11 in the paper).
    repeats:
        Launches per measurement (best-of).
    candidate_pool:
        When set, stage two predicts over a uniform random pool of this
        size instead of the whole space — an option for spaces too large
        even for cheap model sweeps.  ``None`` sweeps everything, as the
        paper does.
    filter_known_invalid:
        When True, stage two asks the device's *static* validity rules
        before proposing a candidate (the §7 "better scheme" extension;
        the paper's baseline behaviour is False: invalid candidates waste
        stage-two slots).
    replenish_rounds:
        Stage-one resilience: when invalid (or quarantined) draws leave
        fewer valid measurements than the model needs (``max(2, k_bag)``),
        up to this many extra batches of ``n_train`` random
        configurations are measured — bounded, and charged to the ledger
        like any measurement (§5.2 drops invalids but still trains on
        real samples).  A run that replenished is marked ``degraded``.
    max_cost_s:
        Optional cap on the *simulated* seconds (ledger spend) this run
        may consume.  ``None`` (the default) reproduces the paper's
        uncapped pipeline.  A capped run never crashes: once the ledger
        delta crosses the cap, remaining stages are skipped and the best
        measurement gathered so far is returned as a ``degraded`` result
        (reason ``budget_exhausted``).  This is the mechanism the
        ``repro.serve`` daemon uses to enforce per-client budgets.
    freeze_patience / freeze_tol:
        Optional member-freeze threshold overrides forwarded to the
        ensemble (``None`` keeps its defaults; ``freeze_patience=math.inf``
        disables freezing, so every member trains until the mean loss
        plateaus — the baseline ``benchmarks/test_perf_fit.py`` gates
        the default against).
    """

    n_train: int = 2000
    m_candidates: int = 200
    k_bag: int = 11
    repeats: int = 3
    candidate_pool: Optional[int] = None
    filter_known_invalid: bool = False
    replenish_rounds: int = 4
    max_cost_s: Optional[float] = None
    freeze_patience: Optional[float] = None
    freeze_tol: Optional[float] = None

    def __post_init__(self):
        if self.n_train < self.k_bag:
            raise ValueError("n_train must be >= k_bag")
        if self.m_candidates < 1:
            raise ValueError("m_candidates must be >= 1")
        if self.replenish_rounds < 0:
            raise ValueError("replenish_rounds must be >= 0")
        if self.max_cost_s is not None and self.max_cost_s <= 0:
            raise ValueError("max_cost_s must be positive (or None)")


class MLAutoTuner:
    """Ties the pipeline together for one (kernel, device) pair.

    Usage::

        ctx = Context(NVIDIA_K40, seed=7)
        tuner = MLAutoTuner(ctx, ConvolutionKernel(), TunerSettings())
        result = tuner.tune(rng=np.random.default_rng(7))
    """

    def __init__(
        self,
        context: Context,
        spec: KernelSpec,
        settings: Optional[TunerSettings] = None,
        measurer: Optional[Measurer] = None,
    ):
        # A TunerSettings default argument would be instantiated once at
        # class-definition time and shared by every tuner; build per
        # instance instead.
        settings = settings if settings is not None else TunerSettings()
        self.context = context
        self.spec = spec
        self.settings = settings
        self.measurer = measurer or Measurer(context, spec, repeats=settings.repeats)
        self.model: Optional[PerformanceModel] = None
        self.training_set: Optional[MeasurementSet] = None
        self.stage2_set: Optional[MeasurementSet] = None
        #: Extra stage-one batches measured because invalids/quarantines
        #: left fewer than ``max(2, k_bag)`` valid samples (see tune()).
        self.replenish_rounds_used: int = 0

    # -- stages ------------------------------------------------------------

    def collect_training_data(
        self, rng: np.random.Generator, cost0: Optional[float] = None
    ) -> MeasurementSet:
        """Stage one: measure ``n_train`` uniform random configurations.

        When invalid or quarantined draws leave fewer valid measurements
        than the model can train on (``max(2, k_bag)``), replacement
        batches are sampled and measured — at most
        ``settings.replenish_rounds`` of them, every one charged to the
        ledger — before giving up.  Previously this starvation crashed
        ``train_model`` with "increase n_train".

        ``cost0`` is the ledger snapshot the run's budget
        (``settings.max_cost_s``) is measured against; replenish rounds
        stop once the budget is spent (the batch already measured stays —
        its cost is charged either way).
        """
        need = max(2, self.settings.k_bag)
        train = self.measurer.sample_and_measure(self.settings.n_train, rng)
        rounds = 0
        tracer = self.context.tracer
        while (
            train.n_valid < need
            and rounds < self.settings.replenish_rounds
            and not self._budget_spent(cost0)
        ):
            rounds += 1
            with tracer.span("stage1.replenish", round=rounds) as sp:
                extra = self.measurer.sample_and_measure(
                    self.settings.n_train, rng
                )
                sp.set(n_valid=extra.n_valid, n_invalid=extra.n_invalid)
            train = train.merged_with(extra)
        self.replenish_rounds_used = rounds
        self.training_set = train
        return train

    def _budget_spent(self, cost0: Optional[float]) -> bool:
        """True when this run's ledger spend has crossed ``max_cost_s``."""
        budget = self.settings.max_cost_s
        if budget is None or cost0 is None:
            return False
        return self.context.ledger.total_s - cost0 >= budget

    def train_model(self, seed: Optional[int] = None) -> PerformanceModel:
        """Fit the bagged-ANN performance model on the stage-one data."""
        if self.training_set is None:
            raise RuntimeError("collect_training_data() first")
        if self.training_set.n_valid < max(2, self.settings.k_bag):
            raise RuntimeError(
                f"only {self.training_set.n_valid} valid training samples "
                f"after {self.replenish_rounds_used} replenish rounds; "
                "increase n_train or replenish_rounds"
            )
        self.model = PerformanceModel(
            self.spec.space,
            k=self.settings.k_bag,
            seed=seed,
            tracer=self.context.tracer,
            freeze_patience=self.settings.freeze_patience,
            freeze_tol=self.settings.freeze_tol,
        )
        self.model.fit_measurements(self.training_set)
        return self.model

    def propose_candidates(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Stage two, part one: the M lowest-predicted configurations."""
        if self.model is None:
            raise RuntimeError("train_model() first")
        pool = None
        if self.settings.candidate_pool is not None:
            if rng is None:
                raise ValueError("candidate_pool sampling needs an rng")
            pool = self.spec.space.sample_indices(
                min(self.settings.candidate_pool, self.spec.space.size), rng
            )
        if not self.settings.filter_known_invalid:
            return self.model.top_m(self.settings.m_candidates, pool)
        # Extension (§7 future work): over-propose, keep the best M that
        # pass the device's validity check, escalating the window until M
        # valid candidates are found (a model that ranks a large invalid
        # region first would otherwise still starve stage two).  Each
        # escalation used to re-predict the entire space; now the sorted
        # order is computed at most twice (an optimistic 4M prefix, then —
        # only if the model really did rank a huge invalid region first —
        # the full order once), and each round merely widens the
        # validity-filter window over it.  Deterministic tie-breaking
        # makes the optimistic prefix an exact prefix of the full order.
        m = self.settings.m_candidates
        limit = self.spec.space.size if pool is None else len(pool)
        checked = min(m * 4, limit)
        order = self.model.top_m(checked, pool)
        keep = [int(i) for i in order if self.measurer.is_valid(int(i))]
        while len(keep) < m and checked < limit:
            if len(order) < limit:
                order = self.model.top_m(limit, pool)
            widened = min(checked * 4, limit)
            keep.extend(
                int(i)
                for i in order[checked:widened]
                if self.measurer.is_valid(int(i))
            )
            checked = widened
        return np.asarray(keep[:m], dtype=np.int64)

    def evaluate_candidates(self, candidates: np.ndarray) -> MeasurementSet:
        """Stage two, part two: measure the proposed configurations."""
        self.stage2_set = self.measurer.measure_batch(candidates)
        return self.stage2_set

    # -- the whole pipeline -----------------------------------------------------

    def tune(self, rng: np.random.Generator, model_seed: Optional[int] = None) -> TuningResult:
        """Run stages one and two; return the tuner's pick.

        The pipeline degrades instead of crashing or going silent:

        * stage one replenishes random samples when invalids (or
          quarantined flaky configurations) starve the training set;
        * when every stage-two candidate fails, the pick falls back to
          the best *stage-one* measurement (a real, measured
          configuration) instead of the paper's "no prediction at all"
          — ``best_index = -1`` only remains when not a single valid
          measurement exists anywhere.

        Either fallback marks the result ``degraded`` with a reason, and
        the fault counters of the measurement engine for *this run* are
        attached as ``failure_breakdown``.
        """
        tracer = self.context.tracer
        # The ledger is cumulative over the context's lifetime; snapshot it
        # so total_cost_s reports *this* run, not every run sharing the
        # context (a second tuner must not be billed for the first).  The
        # engine stats get the same treatment for failure_breakdown.
        cost0 = self.context.ledger.total_s
        stats0 = self.measurer.stats
        self.measurer.stats = type(stats0)()
        with tracer.span(
            "tune", kernel=self.spec.name, device=self.context.device.name
        ):
            with tracer.span("stage1.measure") as sp:
                train = self.collect_training_data(rng, cost0=cost0)
                sp.set(
                    n_valid=train.n_valid,
                    n_invalid=train.n_invalid,
                    replenish_rounds=self.replenish_rounds_used,
                )
            tracer.count("tuner.stage1_valid", train.n_valid)
            tracer.count("tuner.stage1_invalid", train.n_invalid)
            budget_spent = self._budget_spent(cost0)
            if budget_spent:
                # The budget died in stage one: stop measuring, return the
                # best sample already paid for.  Training a model whose
                # candidates we cannot afford to measure would be wasted
                # wall-clock — and a capped request must never crash.
                tracer.event("tuner.budget_exhausted", stage="stage1")
                candidates = np.empty(0, dtype=np.int64)
                stage2 = self.stage2_set = MeasurementSet(
                    indices=np.empty(0, dtype=np.int64),
                    times_s=np.empty(0, dtype=np.float64),
                    invalid_indices=np.empty(0, dtype=np.int64),
                )
            else:
                with tracer.span("stage2.train"):
                    self.train_model(model_seed)
                with tracer.span("stage2.propose") as sp:
                    candidates = self.propose_candidates(rng)
                    sp.set(m=len(candidates))
                with tracer.span("stage2.evaluate") as sp:
                    stage2 = self.evaluate_candidates(candidates)
                    sp.set(n_valid=stage2.n_valid, n_invalid=stage2.n_invalid)
            tracer.count("tuner.stage2_invalid", stage2.n_invalid)

            degraded, reason = False, ""
            if budget_spent:
                if train.n_valid > 0:
                    best_index, best_time = train.best()
                    degraded, reason = True, "budget_exhausted"
                else:
                    best_index, best_time = -1, float("nan")
                    degraded, reason = True, "no_valid_measurements"
            elif stage2.n_valid > 0:
                best_index, best_time = stage2.best()
            elif train.n_valid > 0:
                # Every stage-two candidate failed (invalid, or transient
                # beyond the retry budget).  The best stage-one sample is
                # a real measurement of this kernel on this device — a
                # degraded pick beats no pick (used to raise/return -1).
                best_index, best_time = train.best()
                degraded, reason = True, "stage2_exhausted"
            else:
                best_index, best_time = -1, float("nan")
                degraded, reason = True, "no_valid_measurements"
            if self.replenish_rounds_used and not degraded:
                degraded, reason = True, "stage1_replenished"

        run_stats = self.measurer.stats
        self.measurer.stats = stats0.merge(run_stats)
        breakdown = run_stats.failure_breakdown()
        if self.replenish_rounds_used:
            breakdown["stage1_replenish_rounds"] = self.replenish_rounds_used
        if reason == "stage2_exhausted":
            breakdown["stage2_fallback"] = 1
        if reason == "budget_exhausted":
            breakdown["budget_exhausted"] = 1

        measured = (
            train.n_valid + train.n_invalid + train.n_quarantined
            + stage2.n_valid + stage2.n_invalid + stage2.n_quarantined
        )
        total = stage2.n_valid + stage2.n_invalid
        if total:
            tracer.gauge("tuner.stage2_invalid_rate", stage2.n_invalid / total)
        if degraded:
            tracer.count("tuner.degraded")
            tracer.event("tuner.degraded", reason=reason)
        tracer.gauge("tuner.best_index", best_index)
        return TuningResult(
            kernel=self.spec.name,
            device=self.context.device.name,
            best_index=best_index,
            best_time_s=best_time,
            n_trained=train.n_valid,
            n_stage2=len(candidates),
            stage2_invalid=stage2.n_invalid,
            evaluated_fraction=measured / self.spec.space.size,
            total_cost_s=self.context.ledger.total_s - cost0,
            degraded=degraded,
            degraded_reason=reason,
            failure_breakdown=breakdown,
        )
