"""Tests for multi-device portability campaigns."""

import numpy as np
import pytest

from repro.core.campaign import PortabilityCampaign
from repro.core.results import MeasurementDB
from repro.kernels import ConvolutionKernel


@pytest.fixture(scope="module")
def campaign_result():
    spec = ConvolutionKernel()
    campaign = PortabilityCampaign(
        spec,
        devices=("intel", "nvidia"),
        n_train=400, m_candidates=40,
    )
    return campaign.run(seed=3)


class TestCampaign:
    def test_tunes_every_device(self, campaign_result):
        assert set(campaign_result.results) == {"intel", "nvidia"}
        for r in campaign_result.results.values():
            assert not r.failed

    def test_matrix_diagonal_is_own_time(self, campaign_result):
        for d in ("intel", "nvidia"):
            own = campaign_result.transplant_matrix[d][d]
            assert own is not None and own > 0
            assert campaign_result.slowdown(d, d) == pytest.approx(1.0)

    def test_cross_device_transplant_costs(self, campaign_result):
        # CPU<->GPU transplants are expensive (or invalid) in each direction.
        s = campaign_result.slowdown("intel", "nvidia")
        assert s != s or s > 1.5

    def test_report_renders(self, campaign_result):
        text = campaign_result.report()
        assert "portability campaign: convolution" in text
        assert "transplant slowdowns" in text
        assert "intel" in text and "nvidia" in text

    def test_db_persistence(self, tmp_path):
        spec = ConvolutionKernel()
        db = MeasurementDB(tmp_path / "campaign.json")
        campaign = PortabilityCampaign(
            spec,
            devices=("nvidia",),
            n_train=150, m_candidates=15,
            db=db,
        )
        result = campaign.run(seed=5)
        assert len(db) > 100
        # The winning configuration's measurement is in the store.
        if not result.results["nvidia"].failed:
            stored = db.get("convolution", "Nvidia K40",
                            result.results["nvidia"].best_index)
            assert stored is not None
        # And it survived to disk.
        assert MeasurementDB(tmp_path / "campaign.json").best(
            "convolution", "Nvidia K40"
        )[1] > 0

    def test_empty_devices_rejected(self):
        with pytest.raises(ValueError):
            PortabilityCampaign(ConvolutionKernel(), devices=())


class TestCampaignGrid:
    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        spec = ConvolutionKernel()
        db_path = tmp_path_factory.mktemp("grid") / "grid.json"
        db = MeasurementDB(db_path)
        from repro.core.campaign import run_campaign_grid

        report = run_campaign_grid(
            [spec],
            ["intel", "nvidia"],
            n_train=150, m_candidates=15,
            db=db,
            max_workers=2,
            seed=7,
        )
        return report, db, db_path, spec

    def test_every_cell_tuned_in_parallel(self, grid):
        report, _, _, _ = grid
        assert len(report.cells) == 2
        devices = {c.device for c in report.cells}
        assert devices == {"Intel i7 3770", "Nvidia K40"}
        for cell in report.cells:
            assert cell.kernel == "convolution"
            assert cell.stats.n_requested >= 165
            assert cell.ledger.total_s > 0

    def test_shards_merged_into_main_db(self, grid):
        report, db, db_path, spec = grid
        for cell in report.cells:
            assert db.table(spec.name, cell.device), cell.device
            r = cell.result
            if not r.failed:
                assert db.has(spec.name, cell.device, r.best_index)
        # and persisted to disk
        assert len(MeasurementDB(db_path)) == len(db)

    def test_report_carries_engine_counters(self, grid):
        report, _, _, _ = grid
        text = report.report()
        assert "campaign grid: 2 (kernel, device) cells" in text
        assert "cache hit" in text and "configs/s" in text
        total = report.total_stats
        assert total.n_requested == sum(c.stats.n_requested for c in report.cells)

    def test_rerun_resumes_entirely_from_db(self, grid):
        report, db, db_path, spec = grid
        from repro.core.campaign import run_campaign_grid

        again = run_campaign_grid(
            [spec],
            ["intel", "nvidia"],
            n_train=150, m_candidates=15,
            db=MeasurementDB(db_path),
            max_workers=1,  # inline: same semantics as the pooled path
            seed=7,
        )
        assert again.total_stats.n_simulated == 0
        assert again.total_cost_s == 0.0
        for cell in again.cells:
            before = report.result(cell.kernel, cell.device)
            assert cell.result.best_index == before.best_index
            assert not cell.result.failed
            assert cell.result.best_time_s == before.best_time_s

    def test_empty_grid_rejected(self):
        from repro.core.campaign import run_campaign_grid

        with pytest.raises(ValueError):
            run_campaign_grid([], ["intel"])
        with pytest.raises(ValueError):
            run_campaign_grid([ConvolutionKernel()], [])
