"""One tune recipe: :class:`TuneSpec` names a tune, :func:`run_tune` runs it.

The paper's method is one two-stage pipeline per (kernel, device) pair.
Every front end — ``repro tune``, the campaign grid, the portability
campaign, the daemon and its drift smoke — describes that run with a
:class:`TuneSpec` and hands it to :func:`run_tune`, so the knobs, their
defaults and their checks live here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.measure import Measurer
from repro.core.results import TuningResult
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import BENCHMARKS, get_benchmark
from repro.kernels.base import KernelSpec
from repro.runtime import Context
from repro.simulator.devices import get_device
from repro.simulator.faults import FaultProfile, get_fault_profile


@dataclass(frozen=True)
class TuneSpec:
    """Complete identity of one tune.

    The pipeline is deterministic in these fields, so two equal specs
    compute the same result — which is what makes the daemon's
    coalescing and result cache invisible.

    Attributes
    ----------
    kernel:
        A benchmark name, or a :class:`~repro.kernels.base.KernelSpec`
        for a kernel (or problem size) outside the catalog.
    device:
        Device key or full name (``repro.simulator.devices.get_device``).
    n_train / m_candidates:
        Stage-one samples and stage-two candidates.  A model-free
        ``strategy`` gets their sum as its measurement budget.
    seed:
        Seeds the context's noise, the sampling RNG and the model.
    budget_s:
        Optional cap on the simulated seconds the run may spend; a capped
        run degrades instead of crashing.
    faults:
        Optional fault profile (spec string or
        :class:`~repro.simulator.faults.FaultProfile`).
    strategy:
        ``"ml"`` (the paper's ANN tuner) or a strategy-zoo name /
        ``"bandit"`` (:data:`~repro.core.strategies.STRATEGY_CHOICES`).
    """

    kernel: Union[str, KernelSpec]
    device: str
    n_train: int = 1000
    m_candidates: int = 100
    seed: int = 0
    budget_s: Optional[float] = None
    faults: Union[str, FaultProfile, None] = None
    strategy: str = "ml"

    def __post_init__(self):
        from repro.core.strategies import STRATEGY_CHOICES

        if isinstance(self.kernel, str):
            if self.kernel not in BENCHMARKS:
                raise ValueError(
                    f"unknown kernel {self.kernel!r}; "
                    f"known: {sorted(BENCHMARKS)}"
                )
        elif not isinstance(self.kernel, KernelSpec):
            raise ValueError("'kernel' must be a benchmark name or a KernelSpec")
        if not isinstance(self.device, str):
            raise ValueError("'device' must be a string")
        try:
            get_device(self.device)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        for name in ("n_train", "m_candidates", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"'{name}' must be an integer")
            object.__setattr__(self, name, int(value))
        if self.n_train < 1 or self.m_candidates < 1:
            raise ValueError("'n_train' and 'm_candidates' must be >= 1")
        if self.seed < 0:
            raise ValueError("'seed' must be >= 0")
        choices = ("ml",) + STRATEGY_CHOICES
        if self.strategy not in choices:
            raise ValueError(f"'strategy' must be one of {sorted(choices)}")
        # Model-free strategies fit nothing, so only the ANN needs one
        # stage-one sample per bagging fold.
        if self.strategy == "ml" and self.n_train < TunerSettings.k_bag:
            raise ValueError(
                f"'n_train' must be >= {TunerSettings.k_bag} (the ANN's "
                "bagging folds) for the 'ml' strategy"
            )
        if self.budget_s is not None:
            if not isinstance(self.budget_s, Real) or isinstance(
                self.budget_s, bool
            ):
                raise ValueError("'budget_s' must be a number")
            if not self.budget_s > 0:
                raise ValueError("'budget_s' must be positive")
            object.__setattr__(self, "budget_s", float(self.budget_s))
        if isinstance(self.faults, str):
            get_fault_profile(self.faults)  # ValueError names the problem
        elif self.faults is not None and not isinstance(
            self.faults, FaultProfile
        ):
            raise ValueError("'faults' must be a profile spec string")

    def kernel_spec(self) -> KernelSpec:
        if isinstance(self.kernel, KernelSpec):
            return self.kernel
        return get_benchmark(self.kernel)

    def model_key(self) -> Tuple[Any, str, int, int]:
        """What determines the fitted stage-one model (the daemon's
        model cache key): the same training set, the same model seed."""
        return (self.kernel, self.device, self.n_train, self.seed)

    def as_dict(self) -> Dict[str, Any]:
        """Portable view (the daemon's ``key`` object, trace manifests);
        ``problem`` is rendered from the kernel spec."""
        kernel = self.kernel_spec()
        out = {"kernel": kernel.name, "device": self.device,
               "problem": str(kernel.problem)}
        out.update((f.name, getattr(self, f.name)) for f in fields(self)[2:])
        return out


def run_tune(
    spec: TuneSpec,
    *,
    tracer=None,
    db=None,
    batcher=None,
    register=None,
    drift=None,
    pins=(),
) -> Tuple[TuningResult, Any]:
    """Run one tune; returns ``(result, tuner)``.

    ``tracer``, ``db`` (a :class:`~repro.core.results.MeasurementDB`) and
    ``batcher`` (the daemon's measurement broker) are passed to the
    context and the measurer; ``register`` receives the measurer before
    tuning starts.  ``drift`` and ``pins`` (parameters held fixed by a
    model-free search) are the CLI's extras.  The tuner keeps the
    context, the measurer and — for ``"ml"`` — the fitted model.
    """
    kernel = spec.kernel_spec()
    ctx = Context(
        get_device(spec.device),
        seed=spec.seed,
        tracer=tracer,
        faults=spec.faults,
        drift=drift,
    )
    # Every tuner's settings default to the measurer's best-of-3 repeats.
    measurer = Measurer(ctx, kernel, db=db, batcher=batcher)
    if register is not None:
        register(measurer)
    if spec.strategy == "ml":
        settings = TunerSettings(
            n_train=spec.n_train,
            m_candidates=spec.m_candidates,
            max_cost_s=spec.budget_s,
        )
        tuner = MLAutoTuner(ctx, kernel, settings, measurer=measurer)
    else:
        from repro.core.strategies import SearchSettings, SearchTuner

        settings = SearchSettings(
            budget=spec.n_train + spec.m_candidates,
            max_cost_s=spec.budget_s,
            pins=pins,
        )
        tuner = SearchTuner(
            ctx, kernel, spec.strategy, settings, measurer=measurer
        )
    result = tuner.tune(np.random.default_rng(spec.seed), model_seed=spec.seed)
    return result, tuner
