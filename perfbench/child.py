"""Child process of the benchmark: runs one operation and prints one JSON line.

    python perfbench/child.py '<json op spec>'

Ops:

``tune``
    One two-stage tune in-process, exactly as ``repro tune`` builds it,
    with layer spans (traced pass only; untraced tunes run the real CLI).
``sweep``
    A measure-sweep session.  Each operation is an exhaustive measured
    sweep of one slice of convolution for one device under fault
    injection and drift, written through a durable ``MeasurementDB`` with
    checkpoints, then replayed from that DB by a fresh ``Measurer``.
    Runs traced or untraced.
``sweep-setup``
    Set-up only: imports, context, DB and measurer, then exit.
``references``
    Reference optima for one kernel (kept out of the parent, whose peak
    RSS every child it spawns would otherwise inherit).
``serve``
    The daemon in-process on a private loop plus the serve-mixed clients
    (traced pass only; untraced runs drive a ``repro serve`` process).

Spans are recorded here, in the benchmark, by wrapping the program's
public methods for the life of this process; nothing under ``src/`` is
instrumented.  Times are ``time.monotonic()`` stamps (one system-wide
clock on Linux), so the parent can relate them to its own.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

SWEEP_FAULTS = "flaky-gpu"
SWEEP_DRIFT = "thermal-throttle"
#: The space is swept in SWEEP_SLICES slices so a run holds many
#: operations.  The slices split a fixed random permutation of the space,
#: so each is a uniform sample and every slice costs about the same.
SWEEP_SLICES = 4
SLICE_SEED = 20150525
SWEEP_CHUNK = 4096
SWEEP_CHECKPOINT_EVERY = 2


class Spans:
    """In-memory span recorder with per-thread nesting and self time."""

    def __init__(self) -> None:
        self.records = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"name": name, "id": next(self._ids),
               "parent": stack[-1]["name"] if stack else None,
               "child_s": 0.0, **attrs}
        # Spans sharing a root belong to one operation (one tune, one pass).
        rec["root"] = stack[0]["id"] if stack else rec["id"]
        stack.append(rec)
        rec["t0"] = time.monotonic()
        try:
            yield rec
        finally:
            rec["t1"] = time.monotonic()
            stack.pop()
            rec["dur_s"] = rec["t1"] - rec["t0"]
            rec["self_s"] = rec["dur_s"] - rec.pop("child_s")
            if stack:
                stack[-1]["child_s"] += rec["dur_s"]
            with self._lock:
                self.records.append(rec)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``after(span, self,
        args, result)`` may add attributes once the call returns."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def spanned(obj, *args, **kwargs):
            with self.span(name) as sp:
                out = fn(obj, *args, **kwargs)
                if after is not None:
                    after(sp, obj, args, out)
            return out

        setattr(owner, attr, spanned)


def instrument(spans: Spans) -> None:
    """Wrap each layer's public entry points (class-wide, this process)."""
    from repro.core.measure import Measurer
    from repro.core.model import PerformanceModel
    from repro.core.results import MeasurementDB
    from repro.core.tuner import MLAutoTuner
    from repro.ml.ensemble import EnsembleMLPRegressor

    def fit_stats(sp, ens, args, _out):
        sp.update(
            n_samples=int(args[0].shape[0]),
            epochs=len(ens.loss_curve_),
            member_epochs=int(sum(ens.member_epochs_)),
            frozen_frac=ens.n_frozen_ / ens.k,
        )

    def top_m_configs(sp, model, args, _out):
        cand = args[1] if len(args) > 1 else None
        sp["configs"] = model.space.size if cand is None else len(cand)

    def batch_configs(sp, _measurer, args, _out):
        sp["configs"] = len(args[0])

    def stage2_outcome(sp, _tuner, _args, out):
        sp.update(n_valid=out.n_valid, n_attempted=out.n_valid
                  + out.n_invalid + out.n_quarantined)

    spans.wrap(MLAutoTuner, "tune", "tune")
    spans.wrap(MLAutoTuner, "collect_training_data", "tuner.stage1")
    spans.wrap(MLAutoTuner, "train_model", "tuner.train_model")
    spans.wrap(MLAutoTuner, "propose_candidates", "tuner.propose")
    spans.wrap(MLAutoTuner, "evaluate_candidates", "tuner.stage2",
               after=stage2_outcome)
    spans.wrap(EnsembleMLPRegressor, "fit", "ensemble.fit", after=fit_stats)
    spans.wrap(PerformanceModel, "top_m", "model.top_m", after=top_m_configs)
    spans.wrap(Measurer, "measure_batch", "measurer.measure_batch",
               after=batch_configs)
    spans.wrap(MeasurementDB, "save", "db.save")


def op_tune(spec_in: dict, spans: Spans) -> dict:
    import numpy as np

    from repro import Context, MLAutoTuner, TunerSettings
    from repro.kernels import get_benchmark
    from repro.simulator.devices import get_device

    instrument(spans)
    spec = get_benchmark(spec_in["kernel"])
    device = get_device(spec_in["device"])
    seed = spec_in["seed"]
    t0 = time.monotonic()
    settings = TunerSettings(n_train=spec_in["n"], m_candidates=spec_in["m"])
    ctx = Context(device, seed=seed)
    tuner = MLAutoTuner(ctx, spec, settings)
    result = tuner.tune(np.random.default_rng(seed), model_seed=seed)
    wall = time.monotonic() - t0
    stats = tuner.measurer.stats
    return {
        "wall_s": wall,
        "best_index": int(result.best_index),
        "best_time_s": float(result.best_time_s),
        "cost_s": float(result.total_cost_s),
        "degraded": bool(result.degraded),
        "stats": stats.as_dict(),
        "model_mre": float(tuner.model.relative_error(
            spec_in["holdout"]["indices"], spec_in["holdout"]["true_s"])),
    }


def sweep_plan(j: int, devices, base_seed: int) -> dict:
    """The j-th measure-sweep operation: devices rotate fastest, then the
    slice, so the first ``len(devices) * SWEEP_SLICES`` operations sweep
    every device's whole space once."""
    return {"device": devices[j % len(devices)],
            "slice": (j // len(devices)) % SWEEP_SLICES, "seed": base_seed + j}


@functools.lru_cache(maxsize=None)
def slice_indices(size: int, part: int):
    import numpy as np

    perm = np.random.default_rng(SLICE_SEED).permutation(size)
    return np.sort(perm[part::SWEEP_SLICES])


def sweep_once(plan: dict, db_path, spans: Spans) -> dict:
    """Write pass then replay pass over one slice for one device."""
    import numpy as np

    from repro import Context
    from repro.core.measure import Measurer
    from repro.core.results import MeasurementDB
    from repro.core.search import exhaustive_search
    from repro.kernels import get_benchmark
    from repro.simulator.devices import get_device
    from repro.simulator.faults import get_fault_profile

    spec = get_benchmark("convolution")
    device = get_device(plan["device"])
    indices = slice_indices(spec.space.size, plan["slice"])[:plan.get("limit")]

    def context():
        return Context(device, seed=plan["seed"],
                       faults=get_fault_profile(SWEEP_FAULTS), drift=SWEEP_DRIFT)

    t_op = time.monotonic()
    ctx = context()
    db = MeasurementDB(db_path)
    measurer = Measurer(ctx, spec, db=db)
    with spans.span("search.exhaustive") as sp:
        written = exhaustive_search(measurer, db=db, indices=indices,
                                    chunk_size=SWEEP_CHUNK,
                                    checkpoint_every=SWEEP_CHECKPOINT_EVERY)
    write_s = sp["t1"] - sp["t0"]
    db_bytes = db_path.stat().st_size

    t_replay = time.monotonic()
    with spans.span("db.load") as sp:
        db2 = MeasurementDB(db_path)
    load_s = sp["t1"] - sp["t0"]
    replayer = Measurer(context(), spec, db=db2)
    with spans.span("search.exhaustive"):
        replayed = exhaustive_search(replayer, db=db2, indices=indices,
                                     chunk_size=SWEEP_CHUNK,
                                     checkpoint_every=SWEEP_CHECKPOINT_EVERY)
    t_end = time.monotonic()
    db_path.unlink()

    identical = all(
        np.array_equal(getattr(written, f), getattr(replayed, f))
        for f in ("indices", "times_s", "invalid_indices", "quarantined_indices")
    )
    best_index, best_time = written.best()
    return {
        **plan,
        "write_s": write_s,
        "replay_s": t_end - t_replay,
        "op_s": t_end - t_op,
        "load_s": load_s,
        "db_bytes": db_bytes,
        "best_index": int(best_index),
        "best_time_s": float(best_time),
        "n_valid": written.n_valid,
        "n_invalid": written.n_invalid,
        "n_quarantined": written.n_quarantined,
        "cost_s": float(ctx.ledger.total_s),
        "stats": measurer.stats.as_dict(),
        "replay_stats": replayer.stats.as_dict(),
        "identical": bool(identical),
    }


def op_sweep(spec_in: dict, spans: Spans) -> dict:
    """A measure-sweep session: an untimed warm-up sweep of a few
    checkpoints' worth of configurations, then operations from
    ``sweep_plan`` until every device's space was swept once and the
    operations have taken ``seconds`` (or exactly ``n_ops`` of them)."""
    from pathlib import Path

    if spec_in["trace"]:
        instrument(spans)
    devices, base = spec_in["devices"], spec_in["base_seed"]
    db_path = Path(spec_in["db"])
    sweep_once({"device": devices[0], "slice": 0, "seed": base - 1,
                "limit": 2 * SWEEP_CHUNK * SWEEP_CHECKPOINT_EVERY}, db_path, Spans())
    spans.records.clear()
    n_ops, cover = spec_in.get("n_ops"), len(devices) * SWEEP_SLICES
    ops, busy = [], 0.0
    while (len(ops) < n_ops if n_ops is not None
           else len(ops) < cover or busy < spec_in["seconds"]):
        op = sweep_once(sweep_plan(len(ops), devices, base), db_path, spans)
        busy += op["op_s"]
        op["spans"], spans.records = spans.records, []
        ops.append(op)
    return {"ops": ops}


def op_sweep_setup(spec_in: dict, _spans: Spans) -> dict:
    from pathlib import Path

    from repro import Context
    from repro.core.measure import Measurer
    from repro.core.results import MeasurementDB
    from repro.kernels import get_benchmark
    from repro.simulator.devices import get_device
    from repro.simulator.faults import get_fault_profile

    ctx = Context(get_device(spec_in["device"]), seed=spec_in["seed"],
                  faults=get_fault_profile(SWEEP_FAULTS), drift=SWEEP_DRIFT)
    Measurer(ctx, get_benchmark("convolution"),
             db=MeasurementDB(Path(spec_in["db"])))
    return {"t_ready": time.monotonic()}


def op_serve(spec_in: dict, spans: Spans) -> dict:
    import loadgen
    from repro.serve.server import ServerThread, TuningServer

    instrument(spans)
    keys = loadgen.distinct_keys(
        spec_in["base_seed"], spec_in["devices"], spec_in["predict"],
        spec_in["n_train"], spec_in["m_candidates"],
    )
    server = TuningServer()
    with ServerThread(server) as port:
        loadgen.warm_up(port, loadgen.distinct_keys(
            spec_in["base_seed"] - 2, spec_in["devices"], spec_in["predict"],
            spec_in["n_train"], spec_in["m_candidates"]))
        spans.records.clear()
        load = loadgen.run_clients(port, keys, spec_in["seconds"])
    return {"load": load}


def op_references(spec_in: dict, _spans: Spans) -> dict:
    """Reference optimum per device: exhaustive, or the best of a fixed
    random sample when ``sample`` is given."""
    import numpy as np

    from repro.experiments.oracle import TrueTimeOracle
    from repro.kernels import get_benchmark
    from repro.simulator.devices import get_device

    spec = get_benchmark(spec_in["kernel"])
    sample = spec_in["sample"]
    optima = {}
    for device in spec_in["devices"]:
        oracle = TrueTimeOracle(spec, get_device(device))
        if sample:
            idx = spec.space.sample_indices(
                sample["size"], np.random.default_rng(sample["sample_seed"]))
            index, time_s = oracle.best_among(idx)
        else:
            index, time_s = oracle.global_optimum()
        optima[device] = {"index": index, "time_s": time_s}
    return {"optima": optima}


OPS = {"tune": op_tune, "sweep": op_sweep, "sweep-setup": op_sweep_setup,
       "serve": op_serve, "references": op_references}


def main() -> int:
    spec_in = json.loads(sys.argv[1])
    spans = Spans()
    out = OPS[spec_in["op"]](spec_in, spans)
    out["spans"] = spans.records
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
