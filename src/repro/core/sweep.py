"""Fused, streaming whole-space prediction sweeps.

Stage two of the auto-tuner is "feasible because evaluating the model is
orders of magnitude faster than running kernels" (§5.3) — so the model
sweep over the 131K/655K/2.36M-point spaces must run as fast as the
hardware allows.  The reference path
(:meth:`~repro.core.model.PerformanceModel.predict_indices_reference`)
walks the space in chunks, re-allocating a feature matrix, a scaled copy,
and half a dozen ``(k, n, hidden)`` temporaries per chunk.  This module
replaces it with a *compiled* pipeline:

* **scaler folding** — the fitted x-scaler is folded into the encoder's
  per-parameter value LUTs at compile time (scaled in float64, then cast
  to float32 — the reference's cast point, bit-for-bit); the y-scaler and
  the ensemble mean stay one float64 affine per chunk;
* **fused buffers** — LUT columns are gathered straight into one reused
  ``(chunk, n_features)`` buffer (no ``np.concatenate``), the forward
  pass runs in-place through preallocated ``(k, chunk, hidden)``
  activations, and the sigmoid is applied as five in-place ufunc calls;
* **streaming top-M** — candidates are reduced per chunk with a bounded
  ``argpartition`` merge, so selecting the M best of a 2.36M-point space
  needs O(chunk + M) memory instead of a full-space prediction array,
  with an exact ``(prediction, index)`` tie-break that makes the result
  deterministic and independent of chunking.

The engine and the reference path both chunk by :data:`SWEEP_CHUNK`,
so they issue the same GEMM shapes and agree to <= 1e-9 relative
whatever the BLAS thread count (``tests/test_sweep.py``;
``benchmarks/test_perf_predict_sweep.py`` also times the engine against
the reference).  See ``docs/performance.md`` for the folding math.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.activations import get_activation

#: Configurations per pipeline pass, for the engine and the reference
#: path alike: large enough to keep BLAS busy, small enough that the
#: (k, chunk, hidden) activation buffer stays cache-resident
#: (11 x 16384 x 30 float32 ~ 21 MiB).
SWEEP_CHUNK = 1 << 14


def select_top_m(
    values: np.ndarray, indices: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``m`` smallest ``(value, index)`` pairs, sorted, ties exact.

    Unlike a bare ``argpartition`` (whose boundary is arbitrary among
    tied values), ties at the m-th value are broken by smallest index —
    so the result is a pure function of the *set* of pairs, independent
    of input order or chunking.  That property is what makes the
    streaming top-M equal to the reference selection element-for-element.
    """
    values = np.asarray(values)
    indices = np.asarray(indices)
    n = values.shape[0]
    if m < 0:
        raise ValueError("m must be >= 0")
    m = min(m, n)
    if m == 0:
        return values[:0].copy(), indices[:0].copy()
    if m == n:
        order = np.lexsort((indices, values))
        return values[order], indices[order]
    part = np.argpartition(values, m - 1)
    kth = values[part[m - 1]]
    smaller = np.flatnonzero(values < kth)
    ties = np.flatnonzero(values == kth)
    need = m - smaller.shape[0]
    if need < ties.shape[0]:
        ties = ties[np.argsort(indices[ties], kind="stable")[:need]]
    pick = np.concatenate([smaller, ties])
    order = np.lexsort((indices[pick], values[pick]))
    return values[pick][order], indices[pick][order]


class _TopMAccumulator:
    """Bounded streaming top-M: absorbs chunk-level prunes, merges when
    the pending pool exceeds ~2x its target, O(m + chunk) memory."""

    def __init__(self, m: int, chunk: int):
        self.m = m
        self._merge_at = 2 * max(m, chunk)
        self._values: List[np.ndarray] = []
        self._indices: List[np.ndarray] = []
        self._pending = 0

    def absorb(self, values: np.ndarray, indices: np.ndarray) -> None:
        v, i = select_top_m(values, indices, self.m)
        self._values.append(v)
        self._indices.append(i)
        self._pending += v.shape[0]
        if self._pending > self._merge_at:
            self._merge()

    def _merge(self) -> None:
        v, i = select_top_m(
            np.concatenate(self._values), np.concatenate(self._indices), self.m
        )
        self._values, self._indices = [v], [i]
        self._pending = v.shape[0]

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self._values:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        self._merge()
        return self._values[0], self._indices[0]


class _Buffers:
    """Preallocated scratch for the fused pipeline."""

    __slots__ = ("X", "A1", "P", "dig", "rem", "pred")

    def __init__(self, chunk: int, d: int, k: int, h: int):
        self.X = np.empty((chunk, d), dtype=np.float32)
        self.A1 = np.empty((k, chunk, h), dtype=np.float32)
        self.P = np.empty((k, chunk, 1), dtype=np.float32)
        self.dig = np.empty(chunk, dtype=np.int64)
        self.rem = np.empty(chunk, dtype=np.int64)
        self.pred = np.empty(chunk, dtype=np.float64)


class PredictionSweeper:
    """The compiled sweep engine bound to one fitted
    :class:`~repro.core.model.PerformanceModel`.

    Compiles the model's :class:`~repro.ml.ensemble.EnsembleMLPRegressor`
    once (plain ndarrays: the space's mixed-radix place values, the
    scaler-folded encoder LUTs, the member weights) and sweeps it many
    times.  Spans ``sweep.compile``, ``sweep.predict`` and
    ``sweep.top_m`` and counters ``sweep.configs`` / ``sweep.chunks`` go
    to the model's current tracer.
    """

    def __init__(self, model):
        self.model = model
        ensemble = model._model
        with model.tracer.span("sweep.compile", k=ensemble.k):
            W1, b1, W2, b2 = ensemble._params
            x_mean = np.asarray(ensemble._x_scaler.mean_, dtype=np.float64)
            x_scale = np.asarray(ensemble._x_scaler.scale_, dtype=np.float64)
            self.out_shift = float(np.ravel(ensemble._y_scaler.mean_)[0])
            self.out_scale = float(np.ravel(ensemble._y_scaler.scale_)[0])
            self.places = np.asarray(model.space._places, dtype=np.int64)
            # x-scaler folded into the LUT entries: scaling each entry in
            # float64 then casting gives bit-identical features to the
            # reference's scale-then-cast, since each feature value exists
            # only in its small per-parameter LUT.
            self.col_slices: List[Tuple[int, int]] = []
            self.luts: List[np.ndarray] = []
            start = 0
            for lut in model.encoder._columns:
                c0, c1 = start, start + lut.shape[1]
                self.col_slices.append((c0, c1))
                self.luts.append(
                    ((lut - x_mean[c0:c1]) / x_scale[c0:c1]).astype(np.float32)
                )
                start = c1
            self.W1 = np.ascontiguousarray(W1, dtype=np.float32)
            self.b1 = np.ascontiguousarray(b1, dtype=np.float32)
            self.W2 = np.ascontiguousarray(W2, dtype=np.float32)
            self.b2 = np.ascontiguousarray(b2, dtype=np.float32)
            self.activation = ensemble.activation.name
            self.k, self.d, self.h = self.W1.shape

    # -- the fused chunk kernel ------------------------------------------------

    def _forward_chunk(self, idx_chunk: np.ndarray, bufs: _Buffers) -> np.ndarray:
        """Fused encode -> forward -> mean -> exp for one chunk.

        Returns a float64 view ``bufs.pred[:c]`` — valid until the next
        call on the same buffers.
        """
        c = idx_chunk.shape[0]
        if c != bufs.X.shape[0]:
            # Partial (final) chunk: exact-size buffers keep every view
            # contiguous, so matmul hits the same BLAS path as a full
            # chunk (and as the reference) — one extra allocation per
            # sweep, never per chunk.
            bufs = _Buffers(c, self.d, self.k, self.h)
        Xv, A1v, Pv = bufs.X, bufs.A1, bufs.P
        rem, dig = bufs.rem, bufs.dig

        # Mixed-radix decompose + gather scaled LUT rows, no concatenate.
        np.copyto(rem, idx_chunk)
        for place, lut, (c0, c1) in zip(self.places, self.luts, self.col_slices):
            np.floor_divide(rem, place, out=dig)
            np.remainder(rem, place, out=rem)
            Xv[:, c0:c1] = lut[dig]

        np.matmul(Xv, self.W1, out=A1v)
        A1v += self.b1[:, None, :]
        if self.activation == "sigmoid":
            # In-place sigmoid: the exact ufunc sequence of
            # ml.activations.Sigmoid.value, minus the six temporaries.
            np.clip(A1v, -40.0, 40.0, out=A1v)
            np.negative(A1v, out=A1v)
            np.exp(A1v, out=A1v)
            A1v += 1.0
            np.reciprocal(A1v, out=A1v)
        else:
            A1v[...] = get_activation(self.activation).value(A1v)
        np.matmul(A1v, self.W2[:, :, None], out=Pv)

        out = bufs.pred[:c]
        member = Pv[:, :, 0] + self.b2[:, None]  # float32 (k, c)
        np.mean(member, axis=0, dtype=np.float64, out=out)
        if self.out_scale != 1.0 or self.out_shift != 0.0:
            out *= self.out_scale
            out += self.out_shift
        if self.model.log_transform:
            np.exp(out, out=out)
        return out

    def _sweep(self, indices: Optional[np.ndarray], n: int):
        """Yield ``(index chunk, predictions)`` over ``indices``, or over
        the whole space when None (index chunks are built one at a time,
        so no full-space ``arange`` is materialized)."""
        bufs = _Buffers(min(n, SWEEP_CHUNK), self.d, self.k, self.h)
        for s in range(0, n, SWEEP_CHUNK):
            if indices is None:
                chunk = np.arange(s, min(s + SWEEP_CHUNK, n), dtype=np.int64)
            else:
                chunk = indices[s : s + SWEEP_CHUNK]
            yield chunk, self._forward_chunk(chunk, bufs)
        tracer = self.model.tracer
        tracer.count("sweep.configs", n)
        tracer.count("sweep.chunks", -(-n // SWEEP_CHUNK))

    def _checked(self, indices: Optional[Sequence[int]]) -> Optional[np.ndarray]:
        if indices is None:
            return None
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.model.space.size):
            raise IndexError("index out of range")
        return idx

    # -- public API ------------------------------------------------------------

    def predict(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Predicted seconds for ``indices`` (None = the whole space)."""
        idx = self._checked(indices)
        n = self.model.space.size if idx is None else idx.shape[0]
        out = np.empty(n, dtype=np.float64)
        with self.model.tracer.span("sweep.predict", n=n):
            pos = 0
            for chunk, pred in self._sweep(idx, n):
                out[pos : pos + chunk.shape[0]] = pred
                pos += chunk.shape[0]
        return out

    def top_m(
        self, m: int, indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Indices of the ``m`` lowest predictions, best first.

        Ties are broken by smallest configuration index, so the result is
        identical across chunk sizes.
        """
        if m < 0:
            raise ValueError("m must be >= 0")
        idx = self._checked(indices)
        n = self.model.space.size if idx is None else idx.shape[0]
        m = min(m, n)
        acc = _TopMAccumulator(m, SWEEP_CHUNK)
        with self.model.tracer.span("sweep.top_m", n=n, m=m):
            for chunk, pred in self._sweep(idx, n):
                acc.absorb(pred, chunk)
        return acc.result()[1]
