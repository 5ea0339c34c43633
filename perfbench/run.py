"""End-to-end benchmark of the auto-tuner, with per-layer attribution.

Run from the root of a checkout (no install step; the program is imported
from ``src/``)::

    python3 perfbench/run.py --workload tune-large --seed 1 --seconds 30 --trace 0

Workloads (all closed loop; the seed only chooses the generated inputs):

``tune-large``
    Cold ``repro tune`` processes, one at a time, on stereo (2.36M
    configurations) x {intel, nvidia, amd}, ``-n 300 -m 30``.  The
    prediction sweep (``top_m``) dominates; on the GPUs stage two often
    falls back to the best stage-one sample, which is kept as real
    behaviour.
``measure-sweep``
    Exhaustive measured sweep of one quarter of convolution per
    operation under fault injection and drift, written through a durable
    ``MeasurementDB``, then replayed from that DB by a fresh
    ``Measurer``; one child process runs every operation after an
    untimed warm-up.  Bypasses the model and the sweep entirely.
``serve-mixed``
    A ``repro serve`` daemon and two closed-loop client threads sending
    tunes with distinct keys, each followed by a burst of predicts
    (``loadgen.py``), after one untimed warm-up tune per client.  The
    only concurrent path; the ensemble fit dominates.

Every workload repeats its operation over the three devices in turn
until each device ran once (measure-sweep: swept its whole space) and
the operations have taken ``--seconds`` (serve: clients start no tune
after that), then aggregates per device and combines devices by
geometric mean, so the device mix never moves a figure.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same untraced window, then a traced pass in child
processes with spans around the layer entry points (``child.py``) and
prints the per-layer metrics.  The traced pass repeats every tune
(tune-large; a fresh process each, so the first-``top_m`` stall can show),
the first 12 operations (measure-sweep) or a half-length serve window,
and must reproduce the untraced picks and simulated costs.

Ground truth (``experiments.oracle``) is computed outside every timed
region, cached per source tree in ``.perfbench_cache/`` and checked
against ``references.json``.  Scratch files go to ``.perfbench_work/``.
The last stdout line is the result object; the line before it is the
full record (host block, checks, raw operations).  Exit status is 1
when any check fails.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import loadgen
from child import SWEEP_SLICES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
PY = sys.executable

DEVICES = ("intel", "nvidia", "amd")
SETUP_PROBES = 5
#: Daemon start-ups timed before and again after the serve window.
SERVE_SETUP_PROBES = 1
CHILD_TIMEOUT_S = 170.0
#: Held-out configurations for model error and predicts: a fixed draw per
#: (kernel, device), independent of the workload seed.
HOLDOUT_SEED = 20150525
HOLDOUT_DRAW = 2000
HOLDOUT_N = 400
PREDICT_BURST = 16
SERVE_N_TRAIN, SERVE_M = 400, 40
#: A top_m call slower than this multiple of the run's median is a stall.
STALL_FACTOR = 3.0

#: (kernel, n_train, m_candidates) of the CLI tune workload.
TUNES = {"tune-large": ("stereo", 300, 30)}
#: The layer each workload claims to stress (checked on the traced pass).
DOMINANT = {"tune-large": "core.sweep", "measure-sweep": "core.measure+results",
            "serve-mixed": "ml"}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def by_device(ops, field, agg):
    """Aggregate ``field`` per device, then geomean across devices, so an
    uneven device mix does not move the figure."""
    per = [agg([o[field] for o in ops if o["device"] == d]) for d in DEVICES
           if any(o["device"] == d for o in ops)]
    return geomean(per) if per else 0.0


def peak_rss_self_mb() -> float:
    """This process's own peak RSS (``VmHWM``), which a child spawned now
    would report as its floor."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Effective OpenBLAS thread count of numpy's bundled BLAS, or None."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def host_block(digest: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except OSError:
        rev = ""
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "rev": rev or f"src-sha256:{digest[:16]}",
    }


class Proc:
    """A finished child process with its own rusage (``os.wait4``)."""

    def __init__(self, argv, work: Path, tag: str, env: dict,
                 timeout: float = CHILD_TIMEOUT_S):
        out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.t_spawn = time.monotonic()
            p = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, p.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                killer.cancel()
            self.t_exit = time.monotonic()
            p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.wall_s = self.t_exit - self.t_spawn
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")

    def json(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])

    def why(self) -> str:
        return f"exit {self.rc}: {self.stderr.strip()[-400:]}"


class Bench:
    """One benchmark run: inputs, child processes, checks and metrics."""

    def __init__(self, args, spec: dict, work: Path):
        self.args = args
        self.workload = args.workload
        self.work = work
        self.units = {m["name"]: m["unit"] for m in
                      spec["end_to_end"] + spec["per_layer"]}
        self.layer_names = [m["name"] for m in spec["per_layer"]]
        self.e2e_names = [m["name"] for m in spec["end_to_end"]]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.seeds = random.Random(f"{args.workload}:{args.seed}")
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.n_procs = 0
        self.layers = dict.fromkeys(self.layer_names, 0.0)
        self.record = {"workload": self.workload, "seed": args.seed}
        self.setups, self.imports = [], []
        self._oracles = {}

    # -- bookkeeping -----------------------------------------------------------

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append({"check": name, "detail": str(detail)})
            log(f"FAILED {name}: {detail}")
        return ok

    def layer(self, name: str, value) -> None:
        if name not in self.layers:
            raise KeyError(f"per-layer metric {name!r} is not in BENCHMARK.json")
        self.layers[name] = float(value)

    def spawn(self, argv, tag: str) -> Proc:
        self.n_procs += 1
        return Proc(argv, self.work, f"{self.n_procs:03d}-{tag}", self.env)

    def next_seed(self) -> int:
        return self.seeds.randrange(1, 2**31 - 1)

    # -- ground truth (never inside a timed region) ------------------------------

    def oracle(self, kernel: str, device: str):
        from repro.experiments.oracle import TrueTimeOracle
        from repro.kernels import get_benchmark
        from repro.simulator.devices import get_device

        key = (kernel, device)
        if key not in self._oracles:
            self._oracles[key] = TrueTimeOracle(get_benchmark(kernel),
                                                get_device(device))
        return self._oracles[key]

    def references(self, kernel: str, digest: str) -> dict:
        """Reference optimum per device, cached per source tree and
        checked against the pinned values.  Computed in a child process:
        on Linux a child's peak RSS (``os.wait4``) starts from the
        parent's peak, so the parent must stay small."""
        pinned = json.loads((HERE / "references.json").read_text())
        cache_file = CACHE / f"references-{digest[:24]}.json"
        cached = json.loads(cache_file.read_text()) if cache_file.exists() else {}
        missing = [d for d in DEVICES if f"{kernel}@{d}" not in cached]
        if missing:
            p = self.spawn([PY, str(HERE / "child.py"), json.dumps({
                "op": "references", "kernel": kernel, "devices": missing,
                "sample": pinned["stereo_sample"] if kernel == "stereo" else None,
            })], "references")
            if not self.check(f"{kernel} references computed", p.rc == 0, p.why()):
                raise ValueError("no reference optima")
            for device, ref in p.json()["optima"].items():
                cached[f"{kernel}@{device}"] = ref
            CACHE.mkdir(exist_ok=True)
            tmp = cache_file.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(cached))
            os.replace(tmp, cache_file)
        refs = {}
        for device in DEVICES:
            name = f"{kernel}@{device}"
            got, want = cached[name], pinned["optima"][name]
            self.check(f"reference {name}", got["index"] == want["index"]
                       and math.isclose(got["time_s"], want["time_s"], rel_tol=1e-12),
                       f"computed {got}, pinned {want}")
            refs[device] = got["time_s"]
        return refs

    def holdout(self, kernel: str, device: str) -> dict:
        import numpy as np

        oracle = self.oracle(kernel, device)
        idx = oracle.spec.space.sample_indices(
            HOLDOUT_DRAW, np.random.default_rng(HOLDOUT_SEED))
        true = oracle.times_for(idx)
        keep = np.isfinite(true)
        return {"indices": [int(i) for i in idx[keep][:HOLDOUT_N]],
                "true_s": [float(t) for t in true[keep][:HOLDOUT_N]]}

    def score_pick(self, op: dict, kernel: str, refs: dict) -> bool:
        """Attach the pick's true time and gap; False if the pick is invalid."""
        true = self.oracle(kernel, op["device"]).time_of(op["index"])
        op["true_s"] = true
        if not math.isfinite(true):
            return False
        op["gap"] = true / refs[op["device"]]
        return True

    # -- shared measurements -----------------------------------------------------

    def import_probe(self) -> None:
        """A fresh interpreter until ``repro.cli`` is imported (set-up of
        the CLI workloads); appends to ``self.setups``/``self.imports``."""
        p = self.spawn([PY, "-c", IMPORT_PROBE], "import")
        if self.check("import probe", p.rc == 0, p.why()):
            self.setups.append(p.wall_s)
            self.imports.append(float(p.stdout.strip().splitlines()[-1]))

    def rounds(self, op, probe) -> list:
        """Run ``op(device, seed)`` over the devices in turn until every
        device ran once and the operations have taken ``--seconds``, with
        one set-up ``probe()`` before each so set-up is sampled across the
        whole run."""
        ops, busy = [], 0.0
        while len(ops) < len(DEVICES) or busy < self.args.seconds:
            probe()
            t0 = time.monotonic()
            ops.append(op(DEVICES[len(ops) % len(DEVICES)], self.next_seed()))
            busy += time.monotonic() - t0
        return ops

    def traced_layers(self, traced: list) -> None:
        """Per-layer metrics shared by every workload's traced pass;
        ``traced`` holds one ``{"spans": [...]}`` record per operation."""
        spans = [s for r in traced for s in r["spans"]]

        def named(name):
            return [s for s in spans if s["name"] == name]

        def per_op(name, field="dur_s"):
            return [sum(s[field] for s in r["spans"] if s["name"] == name)
                    for r in traced]

        fits = named("ensemble.fit")
        if fits:
            self.layer("ml.fit_s", statistics.median(per_op("tuner.train_model")))
            self.layer("ml.epochs", statistics.median(s["epochs"] for s in fits))
            self.layer("ml.member_epochs",
                       statistics.median(s["member_epochs"] for s in fits))
            self.layer("ml.s_per_member_epoch", statistics.median(
                s["dur_s"] / s["member_epochs"] for s in fits))
            self.layer("ml.frozen_frac",
                       statistics.mean(s["frozen_frac"] for s in fits))
            self.layer("ml.n_samples",
                       statistics.median(s["n_samples"] for s in fits))
        top = named("model.top_m")
        if top:
            durs = [s["dur_s"] for s in top]
            med = statistics.median(durs)
            self.layer("core.sweep.top_m_p50_s", med)
            self.layer("core.sweep.top_m_max_s", max(durs))
            self.layer("core.sweep.stalls", sum(d > STALL_FACTOR * med for d in durs))
            self.layer("core.sweep.configs",
                       statistics.median(s["configs"] for s in top))
            self.layer("core.sweep.configs_per_s",
                       sum(s["configs"] for s in top) / sum(durs))
        if named("tuner.stage1"):
            self.layer("core.measure.stage1_s",
                       statistics.median(per_op("tuner.stage1")))
            self.layer("core.measure.stage2_s",
                       statistics.median(per_op("tuner.stage2")))
            stage2 = named("tuner.stage2")
            attempted = sum(s["n_attempted"] for s in stage2)
            self.layer("core.tuner.stage2_valid_frac",
                       sum(s["n_valid"] for s in stage2) / max(attempted, 1))
        batches = named("measurer.measure_batch")
        self.layer("core.measure.configs",
                   statistics.median(per_op("measurer.measure_batch", "configs")))
        self.layer("core.measure.batch_s",
                   statistics.median(per_op("measurer.measure_batch")))
        self.layer("core.measure.configs_per_s",
                   sum(s["configs"] for s in batches)
                   / max(sum(s["dur_s"] for s in batches), 1e-9))

        # Self time per layer: the largest share must be the claimed one.
        groups = {
            "ml": ("tuner.train_model", "ensemble.fit"),
            "core.sweep": ("model.top_m",),
            "core.measure+results": ("measurer.measure_batch", "tuner.stage1",
                                     "tuner.stage2", "db.save", "db.load"),
            "core.search": ("search.exhaustive",),
            "tuner": ("tune", "tuner.propose"),
        }
        share = {g: sum(s["self_s"] for s in spans if s["name"] in names)
                 for g, names in groups.items()}
        self.record["layer_self_s"] = share
        claimed = DOMINANT.get(self.workload)
        if claimed is not None:
            top_layer = max(share, key=share.get)
            self.check(f"{claimed} dominates", top_layer == claimed,
                       f"largest self time is {top_layer}: {share}")

    def overhead(self, traced_s, untraced_s) -> None:
        """Traced minus untraced wall of the same operations (median)."""
        self.layer("trace.overhead_s", statistics.median(
            t - u for t, u in zip(traced_s, untraced_s)))

    def proc_layers(self, ops) -> None:
        self.layer("proc.cpu_s", statistics.median(o["cpu_s"] for o in ops))
        self.layer("proc.cpu_per_wall", sum(o["cpu_s"] for o in ops)
                   / sum(o["proc_wall_s"] for o in ops))

    def stats_layers(self, stats: list) -> None:
        requested = sum(s["n_requested"] for s in stats)
        self.layer("core.measure.invalid_frac",
                   sum(s["n_invalid"] for s in stats) / requested)
        self.layer("core.measure.retries",
                   statistics.median(s["n_retries"] for s in stats))
        self.layer("core.measure.quarantined",
                   statistics.median(s["n_quarantined"] for s in stats))
        self.layer("core.measure.cache_hit_frac",
                   sum(s["n_cache_hits"] + s["n_db_hits"] for s in stats) / requested)


# -- workloads -------------------------------------------------------------------

COST_RE = re.compile(r"^simulated cost\s*:\s*([0-9.]+) s \(", re.M)
BEST_RE = re.compile(r"^best configuration: (\{.*\})$", re.M)
TIME_RE = re.compile(r"^measured time\s*:\s*([0-9.]+) ms$", re.M)


def cli_tune(b: Bench, kernel: str, device: str, n: int, m: int, seed: int) -> dict:
    """One cold ``repro tune`` process; returns the parsed op record."""
    from repro.kernels import get_benchmark

    p = b.spawn([PY, "-m", "repro", "tune", "-k", kernel, "-d", device,
                 "-n", str(n), "-m", str(m), "--seed", str(seed)], f"tune-{device}")
    op = {"device": device, "seed": seed, "rc": p.rc, "wall_s": p.wall_s,
          "proc_wall_s": p.wall_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb}
    best, cost, ms = BEST_RE.search(p.stdout), COST_RE.search(p.stdout), \
        TIME_RE.search(p.stdout)
    if p.rc != 0 or not (best and cost and ms):
        op["error"] = p.why()
        return op
    config = ast.literal_eval(best.group(1))
    op.update(
        index=get_benchmark(kernel).space.config(**config).index,
        cost_text=cost.group(1), cost_s=float(cost.group(1)),
        measured_text=ms.group(1), measured_s=float(ms.group(1)) * 1e-3,
        degraded="degraded          : yes" in p.stdout,
    )
    return op


def run_tune(b: Bench, digest: str) -> dict:
    kernel, n, m = TUNES[b.workload]
    refs = b.references(kernel, digest)
    ops = b.rounds(lambda device, seed: cli_tune(b, kernel, device, n, m, seed),
                   b.import_probe)
    for o in ops:
        o["ok"] = b.check(f"tune {o['device']} seed {o['seed']}", "index" in o
                          and b.score_pick(o, kernel, refs)
                          and 0.5 < o["measured_s"] / o["true_s"] < 2.0,
                          o.get("error", o))
    b.record["ops"] = ops
    good = [o for o in ops if o["ok"]]
    if b.args.trace:
        b.layer("startup.import_s", statistics.median(b.imports))
        b.proc_layers(good)
        b.layer("core.tuner.degraded_frac",
                sum(o["degraded"] for o in good) / len(good))
        traced = []
        for o in good:
            t = b.spawn([PY, str(HERE / "child.py"), json.dumps({
                "op": "tune", "kernel": kernel, "device": o["device"],
                "seed": o["seed"], "n": n, "m": m,
                "holdout": b.holdout(kernel, o["device"])})], "traced-tune")
            if not b.check("traced tune ran", t.rc == 0, t.why()):
                continue
            r = t.json()
            same = (r["best_index"] == o["index"]
                    and f"{r['cost_s']:.1f}" == o["cost_text"]
                    and f"{r['best_time_s'] * 1e3:.3f}" == o["measured_text"])
            b.check(f"CLI == in-process tune {o['device']} seed {o['seed']}",
                    same, f"cli {o['index']}/{o['cost_text']}s, in-process "
                    f"{r['best_index']}/{r['cost_s']:.1f}s")
            # Untraced counterpart: the CLI process minus its interpreter
            # start and import (the traced wall is the in-process tune).
            r["untraced_s"] = o["wall_s"] - statistics.median(b.setups)
            traced.append(r)
        if traced:
            b.traced_layers(traced)
            b.overhead([r["wall_s"] for r in traced], [r["untraced_s"] for r in traced])
            b.stats_layers([r["stats"] for r in traced])
            b.layer("ml.model_mre", statistics.median(r["model_mre"] for r in traced))
        return {}
    return {
        "setup_s": statistics.median(b.setups),
        "wall_p50_s": by_device(good, "wall_s", statistics.median),
        "ops_per_s": by_device(good, "wall_s", lambda w: len(w) / sum(w)),
        "pick_gap": by_device(good, "gap", geomean),
        "sim_cost_s": by_device(good, "cost_s", geomean),
        "peak_rss_mb": max(o["rss_mb"] for o in ops),
    }


def run_sweep(b: Bench, digest: str) -> dict:
    kernel = "convolution"
    refs = b.references(kernel, digest)
    base = b.next_seed()

    def probe():
        """Fresh process until context, empty DB and measurer are ready."""
        p = b.spawn([PY, str(HERE / "child.py"), json.dumps({
            "op": "sweep-setup", "device": DEVICES[len(b.setups) % 3], "seed": 1,
            "db": str(b.work / "setup.json")})], "sweep-setup")
        if b.check("sweep set-up probe", p.rc == 0, p.why()):
            b.setups.append(p.json()["t_ready"] - p.t_spawn)

    def session(trace, n_ops=None):
        """One child process running sweep operations: (process, ops)."""
        p = b.spawn([PY, str(HERE / "child.py"), json.dumps({
            "op": "sweep", "devices": list(DEVICES), "base_seed": base,
            "seconds": b.args.seconds, "n_ops": n_ops, "trace": trace,
            "db": str(b.work / f"sweep-{int(trace)}.json")})], "sweep")
        if not b.check(f"sweep session (trace {int(trace)}) ran", p.rc == 0, p.why()):
            raise ValueError("no sweep operations to aggregate")
        return p, p.json()["ops"]

    for _ in range(SETUP_PROBES):
        probe()
    proc, ops = session(False)
    # The first cover sweeps every device's whole space once: its union is
    # the exhaustive sweep, so the pick is its fastest measured config.
    cover = len(DEVICES) * SWEEP_SLICES
    for o in ops:
        o["ok"] = b.check(f"sweep {o['device']} slice {o['slice']} seed {o['seed']}",
                          o["identical"], "replay differs from write pass")
    sweeps = []
    for device in DEVICES:
        part = [o for o in ops[:cover] if o["device"] == device]
        best = min(part, key=lambda o: o["best_time_s"])
        s = {"device": device, "index": best["best_index"],
             "cost_s": sum(o["cost_s"] for o in part),
             "configs": sum(o["n_valid"] + o["n_invalid"] + o["n_quarantined"]
                            for o in part)}
        s["ok"] = b.check(f"exhaustive sweep {device}",
                          s["configs"] == 131072 and b.score_pick(s, kernel, refs),
                          f"{s['configs']} configurations, pick {s['index']}")
        sweeps.append(s)
    b.record.update(ops=ops, sweeps=sweeps)
    good = [o for o in ops if o["ok"]]
    if b.args.trace:
        for _ in range(SETUP_PROBES):
            b.import_probe()
        b.layer("startup.import_s", statistics.median(b.imports))
        # One session process runs every operation (and one warm-up).
        b.layer("proc.cpu_s", proc.cpu_s / (len(ops) + 1))
        b.layer("proc.cpu_per_wall", proc.cpu_s / proc.wall_s)
        traced = session(True, n_ops=cover)[1]
        for r, o in zip(traced, ops):
            b.check(f"untraced == traced sweep {o['device']} slice {o['slice']}",
                    (r["best_index"], r["cost_s"], r["n_valid"], r["identical"])
                    == (o["best_index"], o["cost_s"], o["n_valid"], True),
                    f"{r['best_index']}/{r['cost_s']} vs {o['best_index']}/{o['cost_s']}")
        b.traced_layers(traced)
        b.overhead([r["write_s"] for r in traced], [o["write_s"] for o in ops[:cover]])
        b.stats_layers([r["stats"] for r in traced])
        spans = [r["spans"] for r in traced]
        b.layer("core.results.save_s", statistics.median(
            sum(s["dur_s"] for s in sp if s["name"] == "db.save") for sp in spans))
        b.layer("core.results.load_s", statistics.median(r["load_s"] for r in traced))
        b.layer("core.results.db_bytes",
                statistics.median(r["db_bytes"] for r in traced))
        b.layer("core.results.db_hit_frac", sum(
            r["replay_stats"]["n_db_hits"] for r in traced) / sum(
            r["replay_stats"]["n_requested"] for r in traced))
        b.layer("core.search.exhaustive_s",
                statistics.median(r["write_s"] for r in traced))
        # Both passes checkpoint at the same chunk boundaries.
        b.layer("core.search.checkpoints", statistics.median(
            sum(s["name"] == "db.save" for s in sp) / 2 for sp in spans))
        return {}
    return {
        "setup_s": statistics.median(b.setups),
        "wall_p50_s": by_device(good, "write_s", statistics.median),
        "ops_per_s": by_device(good, "op_s", lambda w: 2 * len(w) / sum(w)),
        "pick_gap": by_device(sweeps, "gap", geomean),
        "sim_cost_s": by_device(sweeps, "cost_s", geomean),
        "peak_rss_mb": proc.rss_mb,
    }


class Daemon:
    """A ``repro serve`` process; ``setup_s`` runs from spawn to first pong."""

    def __init__(self, b: Bench, tag: str):
        b.n_procs += 1
        self.err_path = b.work / f"{b.n_procs:03d}-{tag}.err"
        self._err = open(self.err_path, "wb")
        self.t_spawn = time.monotonic()
        self.p = subprocess.Popen(
            [PY, "-m", "repro", "serve", "--port", "0"], cwd=ROOT, env=b.env,
            stdout=subprocess.DEVNULL, stderr=self._err)
        deadline = self.t_spawn + 60.0
        self.port = None
        while self.port is None and time.monotonic() < deadline:
            found = re.search(r"listening on [\d.]+:(\d+)",
                              self.err_path.read_text(errors="replace"))
            if found:
                self.port = int(found.group(1))
            elif self.p.poll() is not None:
                break
            else:
                time.sleep(0.002)
        self.up = self.port is not None and loadgen.wait_for_pong(self.port, deadline)
        self.setup_s = time.monotonic() - self.t_spawn

    def stop(self) -> dict:
        """Drain: stats (nothing may be in flight), shutdown, wait for exit 0."""
        out = {"inflight": None, "rc": None}
        if self.up:
            try:
                conn = loadgen.Connection(self.port, timeout=30.0)
                try:
                    out["stats"] = conn.call({"op": "stats", "id": "stats"})["stats"]
                    out["inflight"] = out["stats"]["inflight"]
                    conn.call({"op": "shutdown", "id": "shutdown"})
                finally:
                    conn.close()
            except (OSError, ValueError, KeyError) as exc:
                out["error"] = f"{type(exc).__name__}: {exc}"
        if self.p.returncode is None:
            killer = threading.Timer(60.0, self.p.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(self.p.pid, 0)
            finally:
                killer.cancel()
            self.p.returncode = out["rc"] = os.waitstatus_to_exitcode(status)
            out.update(cpu_s=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0)
        out["wall_s"] = time.monotonic() - self.t_spawn
        self._err.close()
        return out


def serve_keys(b: Bench):
    from repro.kernels import get_benchmark

    space = get_benchmark("convolution").space
    predict = {}
    for device in DEVICES:
        h = b.holdout("convolution", device)
        predict[device] = [
            {"config": dict(space[i]), "index": i, "true_s": t}
            for i, t in zip(h["indices"][:PREDICT_BURST], h["true_s"][:PREDICT_BURST])]
    base = b.seeds.randrange(1, 2**30)
    return base, predict


def run_serve(b: Bench, digest: str) -> dict:
    refs = b.references("convolution", digest)
    base, predict = serve_keys(b)
    rss = []

    def probes():
        for _ in range(SERVE_SETUP_PROBES):
            d = Daemon(b, "serve-setup")
            end = d.stop()
            if b.check("daemon set-up probe", d.up and end["rc"] == 0, end):
                b.setups.append(d.setup_s)
                rss.append(end["rss_mb"])

    probes()
    daemon = Daemon(b, "serve")
    b.check("daemon answers ping", daemon.up, daemon.err_path.read_text()[-400:])
    b.setups.append(daemon.setup_s)
    keys = loadgen.distinct_keys(base, list(DEVICES), predict,
                                 SERVE_N_TRAIN, SERVE_M)
    if daemon.up:
        warm = loadgen.warm_up(daemon.port, loadgen.distinct_keys(
            base - 2, list(DEVICES), predict, SERVE_N_TRAIN, SERVE_M))
        b.check("warm-up: no client errors", not warm["errors"], warm["errors"][:3])
        load = loadgen.run_clients(daemon.port, keys, b.args.seconds)
    else:
        load = {"tunes": [], "predicts": [], "errors": [], "hung_clients": 0,
                "window_s": 1.0}
    end = daemon.stop()
    b.check("daemon drained: nothing in flight, exit 0",
            end["inflight"] == 0 and end["rc"] == 0 and not load["hung_clients"],
            end)
    b.check("no client errors", not load["errors"], load["errors"][:3])
    rss.append(end.get("rss_mb", 0.0))
    probes()

    tunes = []
    for t in load["tunes"]:
        o = {"device": t["key"]["device"], "seed": t["key"]["seed"]}
        res = t["reply"].get("result", {}) if t.get("type") == "result" else {}
        ok = (t.get("type") == "result" and t.get("coalesced") is False
              and t.get("cached") is False and not res.get("failed", True))
        if ok:
            o.update(index=res["best_index"], cost_s=res["total_cost_s"],
                     degraded=res["degraded"], wall_s=t["t_done"] - t["t_send"],
                     ack_s=t["t_ack"] - t["t_send"], exec_s=t["t_done"] - t["t_ack"])
            ok = b.score_pick(o, "convolution", refs)
        o["ok"] = b.check(f"served tune {o['device']} seed {o['seed']}", ok,
                          t.get("reply"))
        tunes.append(o)
    predicts = load["predicts"]
    for p in predicts:
        b.check("predict", p["ok"] and p["index"] == p["expect_index"]
                and isinstance(p["predicted_s"], float) and p["predicted_s"] > 0, p)
    good = [o for o in tunes if o["ok"]]
    b.record.update(ops=tunes, n_predicts=len(predicts), daemon=end)
    if b.args.trace:
        for _ in range(SETUP_PROBES):
            b.import_probe()
        b.layer("startup.import_s", statistics.median(b.imports))
        lat = [(p["t_done"] - p["t_send"]) * 1e3 for p in predicts if p["ok"]]
        b.layer("serve.predict_p50_ms", statistics.median(lat))
        b.layer("serve.predict_p90_ms", statistics.quantiles(lat, n=10)[-1])
        b.layer("serve.ack_p50_ms", statistics.median(o["ack_s"] for o in good) * 1e3)
        b.layer("serve.exec_p50_s", statistics.median(o["exec_s"] for o in good))
        counters = end["stats"]["counters"]
        b.layer("serve.rejections", counters["rejected"])
        b.layer("serve.campaigns", counters["campaigns"])
        b.layer("serve.coalesced", counters["coalesced"])
        b.layer("serve.cache_hits", counters["cache_hits"])
        b.layer("ml.model_mre", statistics.mean(
            abs(p["predicted_s"] - p["true_s"]) / p["true_s"] for p in predicts if p["ok"]))
        b.layer("core.tuner.degraded_frac",
                sum(o["degraded"] for o in good) / len(good))
        b.layer("proc.cpu_s", end["cpu_s"])
        b.layer("proc.cpu_per_wall", end["cpu_s"] / end["wall_s"])

        # The daemon must give the CLI's answer for the same key.
        first = good[0]
        cli = cli_tune(b, "convolution", first["device"], SERVE_N_TRAIN, SERVE_M,
                       first["seed"])
        b.check("daemon tune == CLI tune", cli.get("index") == first["index"]
                and cli.get("cost_text") == f"{first['cost_s']:.1f}",
                f"cli {cli.get('index')}/{cli.get('cost_text')}, daemon "
                f"{first['index']}/{first['cost_s']:.1f}")

        t = b.spawn([PY, str(HERE / "child.py"), json.dumps({
            "op": "serve", "base_seed": base, "devices": list(DEVICES),
            "predict": predict, "n_train": SERVE_N_TRAIN, "m_candidates": SERVE_M,
            "seconds": b.args.seconds / 2})], "traced-serve")
        if b.check("traced serve ran", t.rc == 0, t.why()):
            r = t.json()
            served = {o["seed"]: o for o in good}
            traced_tunes = [x for x in r["load"]["tunes"] if x.get("type") == "result"]
            for x in traced_tunes:
                res, o = x["reply"]["result"], served.get(x["key"]["seed"])
                if o is not None:
                    b.check("traced daemon == daemon", (res["best_index"],
                            res["total_cost_s"]) == (o["index"], o["cost_s"]),
                            f"seed {o['seed']}")
            b.check("traced serve: no errors", not r["load"]["errors"],
                    r["load"]["errors"][:3])
            campaigns = {}
            for s in r["spans"]:
                campaigns.setdefault(s["root"], []).append(s)
            b.traced_layers([{"spans": sp} for sp in campaigns.values()
                             if any(s["name"] == "tune" for s in sp)])
            b.overhead([statistics.median(x["t_done"] - x["t_send"]
                                          for x in traced_tunes)],
                       [statistics.median(o["wall_s"] for o in good)])
        return {}
    return {
        "setup_s": statistics.median(b.setups),
        "wall_p50_s": by_device(good, "wall_s", statistics.median),
        "ops_per_s": (len(good) + sum(p["ok"] for p in predicts)) / load["window_s"],
        "pick_gap": by_device(good, "gap", geomean),
        "sim_cost_s": by_device(good, "cost_s", geomean),
        "peak_rss_mb": max(rss),
    }


RUNNERS = {"tune-large": run_tune, "measure-sweep": run_sweep,
           "serve-mixed": run_serve}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        log(f"no program to benchmark: run from a checkout holding src/repro "
            f"and BENCHMARK.json (looked in {ROOT})")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    b = Bench(args, spec, work)
    try:
        digest = src_digest()
        b.record["host"] = host_block(digest)
        e2e = RUNNERS[args.workload](b, digest)
    except (ArithmeticError, IndexError, KeyError, ValueError) as exc:
        # No successful operation to aggregate: the failures are logged.
        log(f"cannot compute metrics: {type(exc).__name__}: {exc}")
        print(json.dumps({"record": b.record}, default=str))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = b.layer_names if args.trace else b.e2e_names
    values = b.layers if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": b.units[name]} for name in wanted}
    b.record["failed_checks"] = b.failures
    b.record["parent_hwm_mb"] = peak_rss_self_mb()
    print(json.dumps({"record": b.record}, default=str))
    print(json.dumps({"correct": b.failed == 0, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))
    return 0 if b.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
