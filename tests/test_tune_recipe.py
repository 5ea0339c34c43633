"""One tune recipe, three front ends.

The CLI ``tune`` command, a ``run_campaign_grid`` cell and the daemon's
``tune`` op all run the paper's single (kernel, device) pipeline.  For
the same identity they must agree exactly: same pick, same measured
time, same simulated ledger spend — for the ANN tuner and for the
model-free strategies alike.  They share one recipe: a
:class:`~repro.core.recipe.TuneSpec` run by
:func:`~repro.core.recipe.run_tune`.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.core.campaign import run_campaign_grid
from repro.core.recipe import TuneSpec, run_tune
from repro.core.strategies import SearchTuner
from repro.core.tuner import MLAutoTuner
from repro.kernels import get_benchmark
from repro.kernels.convolution import ConvolutionKernel, ConvolutionProblem
from repro.serve.client import TuningClient
from repro.serve.server import ServerThread, TuningServer

KERNEL, DEVICE, N_TRAIN, M, SEED = "convolution", "nvidia", 150, 15, 7


def _cli_tune(strategy, monkeypatch, capsys):
    """Run ``repro tune`` and capture the tuner's result and ledger."""
    seen = []
    for cls in (MLAutoTuner, SearchTuner):
        original = cls.tune

        def spy(self, *args, _original=original, **kwargs):
            result = _original(self, *args, **kwargs)
            seen.append((result, self.context.ledger.total_s))
            return result

        monkeypatch.setattr(cls, "tune", spy)
    main(["tune", "-k", KERNEL, "-d", DEVICE, "-n", str(N_TRAIN),
          "-m", str(M), "--seed", str(SEED), "--strategy", strategy])
    capsys.readouterr()
    assert len(seen) == 1
    result, total_s = seen[0]
    return result.best_index, result.best_time_s, total_s


def _grid_tune(strategy):
    report = run_campaign_grid(
        [get_benchmark(KERNEL)], [DEVICE], n_train=N_TRAIN, m_candidates=M,
        max_workers=1, seed=SEED, strategy=strategy,
    )
    (cell,) = report.cells
    return cell.result.best_index, cell.result.best_time_s, cell.ledger.total_s


def _daemon_tune(strategy):
    with ServerThread(TuningServer(max_pending=2, max_workers=1)) as port:
        with TuningClient("127.0.0.1", port) as client:
            client.send({
                "op": "tune", "id": "t", "kernel": KERNEL, "device": DEVICE,
                "n_train": N_TRAIN, "m_candidates": M, "seed": SEED,
                "strategy": strategy,
            })
            reply = client.recv()
            while reply["type"] == "ack":
                reply = client.recv()
    assert reply["type"] == "result", reply
    assert reply["key"]["strategy"] == strategy
    result = reply["result"]
    return result["best_index"], result["best_time_s"], reply["cost"]["total_s"]


@pytest.mark.parametrize("strategy", ["ml", "random", "bandit"])
def test_cli_grid_and_daemon_agree_exactly(strategy, monkeypatch, capsys):
    cli = _cli_tune(strategy, monkeypatch, capsys)
    monkeypatch.undo()
    assert cli[0] >= 0
    assert _grid_tune(strategy) == cli
    assert _daemon_tune(strategy) == cli


# -- the spec itself -----------------------------------------------------------


class TestTuneSpec:
    def test_defaults_hash_and_replace(self):
        spec = TuneSpec("convolution", "nvidia")
        assert (spec.n_train, spec.m_candidates, spec.seed, spec.strategy) == (
            1000, 100, 0, "ml"
        )
        assert {spec: 1}[TuneSpec("convolution", "nvidia")] == 1
        capped = dataclasses.replace(spec, budget_s=30)
        assert capped.budget_s == 30.0 and capped != spec
        assert capped.model_key() == spec.model_key() == (
            "convolution", "nvidia", 1000, 0
        )

    def test_as_dict_renders_the_wire_key(self):
        fields = TuneSpec("convolution", "nvidia", seed=3).as_dict()
        assert list(fields) == [
            "kernel", "device", "problem", "n_train", "m_candidates", "seed",
            "budget_s", "faults", "strategy",
        ]
        assert fields["problem"] == str(get_benchmark("convolution").problem)

    def test_kernel_spec_instances_are_accepted(self):
        small = ConvolutionKernel(ConvolutionProblem(64, 48, 5))
        spec = TuneSpec(small, "intel", n_train=60, m_candidates=6, seed=1)
        assert spec.kernel_spec() is small
        assert spec.as_dict()["problem"] == str(small.problem)
        result, tuner = run_tune(spec)
        assert result.kernel == "convolution" and tuner.spec is small

    @pytest.mark.parametrize("patch", [
        {"kernel": "nope"},
        {"kernel": 3},
        {"device": "nope"},
        {"n_train": 0},
        {"n_train": 10},  # fewer than the ANN's 11 bagging folds
        {"n_train": 1.5},
        {"m_candidates": 0},
        {"seed": -1},
        {"seed": True},
        {"strategy": "magic"},
        {"budget_s": 0},
        {"budget_s": "1"},
        {"faults": "bogus-profile"},
        {"faults": 7},
    ])
    def test_rejects_unrunnable_specs(self, patch):
        with pytest.raises(ValueError):
            TuneSpec(**{"kernel": "convolution", "device": "nvidia", **patch})

    def test_model_free_strategies_take_small_n(self):
        spec = TuneSpec("convolution", "nvidia", n_train=5, m_candidates=3,
                        strategy="random")
        result, tuner = run_tune(spec)
        assert tuner.model is None
        assert tuner.measurer.stats.n_requested <= 8
        assert result.total_cost_s == tuner.context.ledger.total_s
