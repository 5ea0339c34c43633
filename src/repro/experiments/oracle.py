"""Ground-truth access to the simulator, bypassing the runtime facade.

Experiments repeatedly need *true* (noise-free) times — for global optima
(Figs. 1, 11-13) and for scoring tuner picks — and sometimes for tens of
thousands of configurations.  Going through Program/Kernel objects would
only add object churn, so the oracle calls the pure simulator functions
directly and memoizes.  This is evaluation machinery: the auto-tuner itself
never sees true times, only noisy measurements through the runtime.

Memoization is fully vectorized: a dense value array plus a boolean
presence mask over the space (instead of a per-int Python dict), so
``times_for`` on fig14-scale index sets is a couple of numpy gathers.
When a :class:`~repro.experiments.oracle_store.OracleStore` is attached,
full tables load as read-only memory maps computed once *ever* and partial
tables persist across processes and sessions (see ``oracle_store``).
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.base import KernelSpec
from repro.simulator.device import DeviceSpec
from repro.simulator.executor import execute_batch, simulate_kernel_time
from repro.simulator.hashing import splitmix64, unit_open_of
from repro.simulator.validity import validate

#: Chunk size for vectorized true-time sweeps.
ORACLE_CHUNK = 1 << 15

# -- keyed measurement noise ---------------------------------------------------
#
# ``measure`` draws its noise from a counter-based generator keyed on
# (call key, index, repeat) rather than consuming ``rng`` positionally.
# Positional draws made the noise depend on where an index sat in the
# request: measure([a, b]) and measure([b, a]) from identical generator
# states disagreed on both entries.  With keyed noise the contract is:
#
# * one ``rng`` draw per call (the call key), so successive calls stay
#   independent;
# * within a call, noise is a pure function of (call key, index, repeat):
#   permuting the index set permutes the results, and duplicate indices
#   receive identical values.

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX_A = _U64(0xBF58476D1CE4E5B9)
_MIX_B = _U64(0x94D049BB133111EB)


def keyed_standard_normal(
    call_key: int, indices: np.ndarray, repeats: int
) -> np.ndarray:
    """(repeats, n) standard normals, a pure function of (key, index, repeat).

    splitmix64 streams turned Gaussian via Box-Muller; vectorized over
    both axes.  Equal indices get equal columns.
    """
    idx = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    key = _U64(int(call_key) & 0xFFFFFFFFFFFFFFFF)
    lanes = (np.arange(repeats, dtype=np.uint64) + _U64(1)) * _GAMMA
    seed = splitmix64(splitmix64(idx ^ key)[None, :] ^ lanes[:, None])
    u1 = unit_open_of(splitmix64(seed ^ _MIX_A))
    u2 = unit_open_of(splitmix64(seed ^ _MIX_B))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


class TrueTimeOracle:
    """Noise-free times of one (kernel, device) pair, lazily memoized.

    ``times_for`` computes on demand; ``full_table`` materializes the whole
    space (only sensible for convolution-sized spaces).  Invalid
    configurations are NaN.  ``store`` (an
    :class:`~repro.experiments.oracle_store.OracleStore`) makes both layers
    persistent.
    """

    def __init__(
        self, spec: KernelSpec, device: DeviceSpec, store=None
    ):
        self.spec = spec
        self.device = device
        self.store = store
        self._key = None
        if store is not None:
            from repro.experiments.oracle_store import OracleKey

            self._key = OracleKey.for_pair(spec, device)
        self._full: Optional[np.ndarray] = None
        # Vectorized partial cache: dense values + presence mask, allocated
        # lazily (the stereo space is 2.36M entries = 21 MB of float64).
        self._times: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None
        self._dirty = 0  # partial entries computed since the last save
        self._probed_full = False

    def _compute(self, index: int) -> float:
        config = self.spec.space[index]
        profile = self.spec.workload(config, self.device)
        if not validate(profile, self.device):
            return float("nan")
        return simulate_kernel_time(
            profile,
            self.device,
            jitter_key=(self.spec.name, config.as_tuple()),
        )

    def time_of(self, index: int) -> float:
        """True time of one configuration (NaN if invalid)."""
        index = int(index)
        if self._full is not None:
            return float(self._full[index])
        return float(self.times_for(np.array([index], dtype=np.int64))[0])

    def _compute_batch(self, indices: np.ndarray) -> np.ndarray:
        """True times of many configurations via the batch executor.

        Bit-identical to looping :meth:`_compute` (the batch-engine
        property tests pin this), just vectorized; chunked so the whole
        131K convolution space fits comfortably in memory.
        """
        out = np.empty(indices.shape[0], dtype=np.float64)
        for start in range(0, indices.shape[0], ORACLE_CHUNK):
            chunk = indices[start : start + ORACLE_CHUNK]
            tuples = self.spec.config_tuples(chunk)
            wb = self.spec.workload_batch(chunk, self.device, config_tuples=tuples)
            be = execute_batch(
                wb, self.device, kernel_name=self.spec.name, config_tuples=tuples
            )
            out[start : start + chunk.shape[0]] = be.times
        return out

    def _maybe_adopt_stored_full(self) -> None:
        """Opportunistically memory-map a persisted full table.

        A sampled-times request is cheaper served from an existing full
        table than by computing a partial one; the probe is a pair of
        stat calls plus an mmap open, and an absent table costs nothing
        (``count_miss=False`` — no recompute obligation was implied).
        """
        if (
            self._probed_full
            or self.store is None
            or self.spec.space.size > 1_000_000
        ):
            return
        self._probed_full = True
        from repro.experiments.oracle_store import OracleStoreError

        try:
            self._full = self.store.load_full(self._key, count_miss=False)
        except OracleStoreError as exc:
            print(f"[oracle] ignoring bad archive: {exc}", file=sys.stderr)

    def _ensure_partial(self) -> None:
        """Allocate the mask/value arrays; pre-seed them from the store."""
        if self._times is not None:
            return
        size = self.spec.space.size
        self._times = np.empty(size, dtype=np.float64)
        self._mask = np.zeros(size, dtype=bool)
        if self.store is not None:
            from repro.experiments.oracle_store import OracleStoreError

            try:
                persisted = self.store.load_partial(self._key)
            except OracleStoreError as exc:
                print(f"[oracle] ignoring bad archive: {exc}", file=sys.stderr)
                persisted = None
            if persisted is not None:
                idx, times = persisted
                self._times[idx] = times
                self._mask[idx] = True

    def times_for(self, indices: Sequence[int]) -> np.ndarray:
        """True times for many configurations (NaN where invalid)."""
        idx = np.asarray(indices, dtype=np.int64)
        if self._full is None and self._times is None:
            self._maybe_adopt_stored_full()
        if self._full is not None:
            return np.asarray(self._full[idx], dtype=np.float64)
        self._ensure_partial()
        unknown = idx[~self._mask[idx]]
        if unknown.size:
            missing = np.unique(unknown)
            self._times[missing] = self._compute_batch(missing)
            self._mask[missing] = True
            self._dirty += int(missing.size)
        return self._times[idx].astype(np.float64, copy=True)

    def full_table(self) -> np.ndarray:
        """True times of the *entire* space.

        Feasible for convolution (131K) in seconds; refuses spaces past a
        million points — use ``times_for`` / ``global_optimum_sampled``
        there, as the paper itself resorts to sampling for those.  With a
        store attached the table is computed at most once per store
        lifetime and served as a read-only memory map afterwards.
        """
        if self._full is None:
            size = self.spec.space.size
            if size > 1_000_000:
                raise ValueError(
                    f"space of {size} too large to exhaust; the paper also "
                    "could not ('time constraints prevented us', §6)"
                )
            table = None
            if self.store is not None:
                from repro.experiments.oracle_store import OracleStoreError

                try:
                    table = self.store.load_full(self._key)
                except OracleStoreError as exc:
                    print(
                        f"[oracle] ignoring bad archive: {exc}", file=sys.stderr
                    )
            if table is None:
                table = self._compute_batch(np.arange(size, dtype=np.int64))
                if self.store is not None:
                    self.store.save_full(self._key, table)
            self._full = table
        return self._full

    def save_partial(self) -> int:
        """Persist un-saved partial entries to the store; returns how many.

        A no-op without a store, with nothing new, or once the full table
        exists (``full_table`` already persisted the superset).
        """
        if self.store is None or self._dirty == 0 or self._full is not None:
            return 0
        idx = np.nonzero(self._mask)[0]
        self.store.save_partial(self._key, idx, self._times[idx])
        saved, self._dirty = self._dirty, 0
        return saved

    def global_optimum(self) -> Tuple[int, float]:
        """(index, true time) of the global optimum via full enumeration."""
        table = self.full_table()
        idx = int(np.nanargmin(table))
        return idx, float(table[idx])

    def best_among(self, indices: Sequence[int]) -> Tuple[int, float]:
        """(index, true time) of the best valid configuration in a subset."""
        times = self.times_for(indices)
        if np.all(np.isnan(times)):
            raise ValueError("no valid configuration in subset")
        j = int(np.nanargmin(times))
        return int(np.asarray(indices)[j]), float(times[j])

    # -- noisy views (for fair comparisons against the tuner) -----------------

    def measure(
        self, indices: Sequence[int], rng: np.random.Generator, repeats: int = 3
    ) -> np.ndarray:
        """Vectorized best-of-``repeats`` noisy measurements (NaN invalid).

        The noise is keyed, not positional: ``rng`` is consumed exactly
        once per call (a 64-bit call key), and each entry's noise is a
        pure function of (call key, configuration index, repeat).  Calling
        with a permuted index set therefore returns permuted results, and
        duplicate indices within one call measure identically.
        """
        idx = np.asarray(indices, dtype=np.int64)
        true = self.times_for(idx)
        sigma = self.device.timing_noise_sigma
        call_key = int(rng.integers(0, np.iinfo(np.int64).max, dtype=np.int64))
        z = keyed_standard_normal(call_key, idx, repeats)
        return true * np.exp(sigma * z).min(axis=0)
