"""Property tests for the fused prediction-sweep engine.

The engine's contract (``src/repro/core/sweep.py``):

* it matches the chunked reference path to <= 1e-9 relative (with and
  without the log transform), whatever the BLAS thread count;
* top-M is deterministic under prediction ties (smallest index wins) and
  identical across chunk sizes and streaming vs full selection;
* empty and singleton candidate sets behave like the reference.
"""

import numpy as np
import pytest

import repro.core.sweep as sweep_mod
from repro.core.model import PerformanceModel
from repro.core.sweep import PredictionSweeper, _TopMAccumulator, select_top_m
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels import ConvolutionKernel
from repro.simulator import NVIDIA_K40


@pytest.fixture(scope="module")
def spec():
    return ConvolutionKernel()


@pytest.fixture(scope="module")
def fitted(spec):
    """One fitted model reused by every test (training is the slow part)."""
    oracle = TrueTimeOracle(spec, NVIDIA_K40)
    rng = np.random.default_rng(7)
    idx = spec.space.sample_indices(700, rng)
    t = oracle.measure(idx, rng)
    ok = ~np.isnan(t)
    model = PerformanceModel(spec.space, seed=7).fit(idx[ok], t[ok])
    return model


class TestSelectTopM:
    def test_plain_selection_sorted(self):
        v = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        i = np.arange(5)
        vals, idx = select_top_m(v, i, 3)
        np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(idx, [1, 3, 2])

    def test_ties_at_boundary_broken_by_smallest_index(self):
        v = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 2.0])
        i = np.array([9, 4, 2, 8, 1, 0])
        _, idx = select_top_m(v, i, 3)
        # Both zeros enter; of the three tied 1.0s the smallest index (1)
        # fills the last slot.
        np.testing.assert_array_equal(idx, [2, 9, 1])

    def test_result_independent_of_input_order(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 5, 200).astype(np.float64)  # many ties
        i = rng.permutation(200).astype(np.int64)
        base = select_top_m(v, i, 17)
        for _ in range(5):
            p = rng.permutation(200)
            got = select_top_m(v[p], i[p], 17)
            np.testing.assert_array_equal(got[0], base[0])
            np.testing.assert_array_equal(got[1], base[1])

    def test_split_merge_equals_global(self):
        """Selecting per part then re-selecting over the survivors equals
        one global selection — the streaming correctness core."""
        rng = np.random.default_rng(1)
        v = rng.integers(0, 7, 500).astype(np.float64)
        i = rng.permutation(500).astype(np.int64)
        m = 23
        base = select_top_m(v, i, m)
        for parts in (2, 3, 7):
            vs, iss = [], []
            for vp, ip in zip(np.array_split(v, parts), np.array_split(i, parts)):
                a, b = select_top_m(vp, ip, m)
                vs.append(a)
                iss.append(b)
            got = select_top_m(np.concatenate(vs), np.concatenate(iss), m)
            np.testing.assert_array_equal(got[0], base[0])
            np.testing.assert_array_equal(got[1], base[1])

    def test_m_zero_and_m_beyond_n(self):
        v = np.array([2.0, 1.0])
        i = np.array([5, 3])
        vals, idx = select_top_m(v, i, 0)
        assert vals.shape == (0,) and idx.shape == (0,)
        vals, idx = select_top_m(v, i, 10)
        np.testing.assert_array_equal(vals, [1.0, 2.0])
        np.testing.assert_array_equal(idx, [3, 5])

    def test_accumulator_matches_one_shot(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(10_000)
        i = np.arange(10_000, dtype=np.int64)
        acc = _TopMAccumulator(m=50, chunk=512)
        for s in range(0, 10_000, 512):
            acc.absorb(v[s : s + 512], i[s : s + 512])
        vals, idx = acc.result()
        base_vals, base_idx = select_top_m(v, i, 50)
        np.testing.assert_array_equal(vals, base_vals)
        np.testing.assert_array_equal(idx, base_idx)


class TestFloat64Parity:
    """The engine vs the chunked reference path."""

    def test_parity_on_random_subset(self, fitted):
        rng = np.random.default_rng(3)
        idx = rng.choice(fitted.space.size, 50_001, replace=False).astype(np.int64)
        ref = fitted.predict_indices_reference(idx)
        got = PredictionSweeper(fitted).predict(idx)
        rel = np.max(np.abs(got - ref) / np.abs(ref))
        assert rel <= 1e-9

    def test_parity_without_log_transform(self, spec):
        oracle = TrueTimeOracle(spec, NVIDIA_K40)
        rng = np.random.default_rng(11)
        idx = spec.space.sample_indices(400, rng)
        t = oracle.measure(idx, rng)
        ok = ~np.isnan(t)
        model = PerformanceModel(spec.space, seed=11, log_transform=False).fit(
            idx[ok], t[ok]
        )
        probe = np.arange(0, spec.space.size, 17, dtype=np.int64)
        ref = model.predict_indices_reference(probe)
        got = PredictionSweeper(model).predict(probe)
        rel = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300))
        assert rel <= 1e-9

    def test_parity_across_chunk_sizes(self, fitted, monkeypatch):
        idx = np.arange(0, fitted.space.size, 11, dtype=np.int64)
        monkeypatch.setattr(sweep_mod, "SWEEP_CHUNK", 1 << 14)
        base = PredictionSweeper(fitted).predict(idx)
        for chunk in (256, 1 << 10, 1 << 16):
            monkeypatch.setattr(sweep_mod, "SWEEP_CHUNK", chunk)
            got = PredictionSweeper(fitted).predict(idx)
            np.testing.assert_array_equal(got, base)

    def test_range_work_equals_array_work(self, fitted):
        s = PredictionSweeper(fitted)
        lo = fitted.space.size - 40_000
        all_pred = s.predict(None)
        np.testing.assert_array_equal(
            all_pred[lo:],
            s.predict(np.arange(lo, fitted.space.size, dtype=np.int64)),
        )


class TestTopM:
    def test_streaming_equals_reference_selection(self, fitted):
        idx = np.arange(fitted.space.size, dtype=np.int64)
        ref = fitted.predict_indices_reference(idx)
        _, want = select_top_m(ref, idx, 300)
        got = PredictionSweeper(fitted).top_m(300)
        np.testing.assert_array_equal(got, want)

    def test_model_routes_match_either_engine(self, fitted):
        """PerformanceModel.top_m through the engine gives the same answer
        as selecting over the reference oracle's predictions."""
        model = PerformanceModel(fitted.space, seed=7)
        model._model = fitted._model
        idx = np.arange(fitted.space.size, dtype=np.int64)
        _, want = select_top_m(fitted.predict_indices_reference(idx), idx, 100)
        np.testing.assert_array_equal(model.top_m(100), want)

    def test_nested_prefix_property(self, fitted):
        """top_m(M) is a prefix of top_m(M') for M < M' — what the tuner's
        escalation and the fig11 shared-model grid rely on."""
        s = PredictionSweeper(fitted)
        big = s.top_m(400)
        for m in (1, 50, 399):
            np.testing.assert_array_equal(s.top_m(m), big[:m])

    def test_deterministic_under_ties(self):
        """An artificially tied model: every prediction equal, so top-M
        must be the M smallest *indices*, on both engines."""
        v = np.full(1000, 2.5)
        i = np.arange(1000, dtype=np.int64)
        _, idx = select_top_m(v, i, 10)
        np.testing.assert_array_equal(idx, np.arange(10))
        acc = _TopMAccumulator(m=10, chunk=64)
        for s in range(0, 1000, 64):
            acc.absorb(v[s : s + 64], i[s : s + 64])
        _, idx = acc.result()
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_m_larger_than_pool(self, fitted):
        pool = np.array([5, 3, 1000], dtype=np.int64)
        got = PredictionSweeper(fitted).top_m(50, pool)
        assert sorted(got.tolist()) == [3, 5, 1000]


class TestEdgeCases:
    def test_empty_candidate_set(self, fitted):
        s = PredictionSweeper(fitted)
        assert s.predict(np.array([], dtype=np.int64)).shape == (0,)
        assert s.top_m(10, np.array([], dtype=np.int64)).shape == (0,)

    def test_singleton_candidate_set(self, fitted):
        s = PredictionSweeper(fitted)
        one = s.predict(np.array([1234], dtype=np.int64))
        assert one.shape == (1,) and one[0] > 0
        np.testing.assert_array_equal(
            s.top_m(5, np.array([1234], dtype=np.int64)), [1234]
        )

    def test_out_of_range_rejected(self, fitted):
        s = PredictionSweeper(fitted)
        with pytest.raises(IndexError):
            s.predict(np.array([fitted.space.size], dtype=np.int64))
        with pytest.raises(IndexError):
            s.predict(np.array([-1], dtype=np.int64))

    def test_non_1d_rejected(self, fitted):
        with pytest.raises(ValueError):
            PredictionSweeper(fitted).predict(np.zeros((2, 2), dtype=np.int64))

    def test_custom_model_family_falls_back(self, spec):
        """A non-ensemble model has no weights to fold: the model must
        quietly use the reference path, not crash."""
        from repro.ml import RidgeRegression

        oracle = TrueTimeOracle(spec, NVIDIA_K40)
        rng = np.random.default_rng(5)
        idx = spec.space.sample_indices(200, rng)
        t = oracle.measure(idx, rng)
        ok = ~np.isnan(t)
        model = PerformanceModel(
            spec.space, k=3, seed=5, base_factory=lambda: RidgeRegression()
        ).fit(idx[ok], t[ok])
        assert model._get_sweeper() is None
        assert model.top_m(5).shape == (5,)

    def test_engine_emits_into_the_models_current_tracer(self, fitted, tmp_path):
        """The compiled engine reads the tracer from its model, so a model
        moved to a new tracer (the daemon's cached models) keeps its
        engine and traces into the new sink."""
        from repro.obs import Tracer

        model = PerformanceModel(fitted.space, seed=7)
        model._model = fitted._model
        paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        engines = []
        for path in paths:
            model.tracer = Tracer(path)
            model.top_m(5)
            model.tracer.close()
            engines.append(model._sweeper)
        assert engines[0] is engines[1]
        for path in paths:
            assert '"sweep.top_m"' in path.read_text()
