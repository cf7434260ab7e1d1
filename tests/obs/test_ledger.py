"""CostLedger: EWMA cells, drift resets, calibration, persistence."""

import pytest

from repro.obs.ledger import CostLedger, LedgerCell


class TestRecording:
    def test_first_observation_seeds_the_cell(self):
        led = CostLedger()
        cell = led.record("fp", 3, 3, "GBC", "fast", 0.5,
                          predicted_seconds=1.0)
        assert isinstance(cell, LedgerCell)
        assert cell.observed_seconds == 0.5
        assert cell.ratio == 0.5
        assert cell.observations == 1

    def test_ewma_converges_toward_recent_observations(self):
        led = CostLedger(alpha=0.5)
        led.record("fp", 3, 3, "GBC", "fast", 1.0)
        cell = led.record("fp", 3, 3, "GBC", "fast", 3.0)
        assert cell.observed_seconds == pytest.approx(2.0)
        assert cell.observations == 2

    def test_cells_are_keyed_per_shape_method_backend(self):
        led = CostLedger()
        led.record("fp", 3, 3, "GBC", "fast", 1.0)
        led.record("fp", 3, 4, "GBC", "fast", 2.0)
        led.record("fp", 3, 3, "BCL", "fast", 3.0)
        led.record("fp", 3, 3, "GBC", "native", 4.0)
        led.record("other", 3, 3, "GBC", "fast", 5.0)
        assert len(led) == 5
        assert led.lookup("fp", 3, 3, "GBC", "fast").observed_seconds == 1.0

    def test_no_prediction_keeps_ratio_unset(self):
        """An unpriced run sets no ratio; the cell's measured seconds
        are then its calibrated price, whatever the prediction."""
        led = CostLedger()
        cell = led.record("fp", 2, 2, "Basic", "fast", 0.1)
        assert cell.ratio is None
        assert led.calibrated("fp", 2, 2, "Basic", "fast", 1.0) == 0.1

    def test_drift_outside_the_band_resets_the_cell(self):
        led = CostLedger(drift_band=4.0)
        led.record("fp", 3, 3, "GBC", "fast", 1.0, predicted_seconds=2.0)
        # observed/predicted jumps from 0.5 to 25x — the graph changed
        # out from under the fingerprint's statistics
        cell = led.record("fp", 3, 3, "GBC", "fast", 25.0,
                          predicted_seconds=2.0)
        assert led.drift_resets == 1
        assert cell.observations == 1          # fresh cell
        assert cell.observed_seconds == 25.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostLedger(alpha=0.0)
        with pytest.raises(ValueError):
            CostLedger(alpha=1.5)
        with pytest.raises(ValueError):
            CostLedger(drift_band=1.0)


class TestCalibration:
    def test_calibrated_scales_prediction_by_observed_ratio(self):
        led = CostLedger()
        led.record("fp", 3, 3, "GBC", "fast", 0.5, predicted_seconds=1.0)
        assert led.calibrated("fp", 3, 3, "GBC", "fast", 2.0) \
            == pytest.approx(1.0)

    def test_unknown_cell_calibrates_to_none(self):
        led = CostLedger()
        assert led.calibrated("fp", 3, 3, "GBC", "fast", 2.0) is None

    def test_forget_drops_one_fingerprint_only(self):
        led = CostLedger()
        led.record("a", 2, 2, "GBC", "fast", 1.0)
        led.record("a", 3, 3, "GBC", "fast", 1.0)
        led.record("b", 2, 2, "GBC", "fast", 1.0)
        assert led.forget("a") == 2
        assert len(led) == 1
        assert led.lookup("b", 2, 2, "GBC", "fast") is not None


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        led = CostLedger(alpha=0.4, drift_band=3.0)
        led.record("fp", 3, 3, "GBC", "fast", 0.5, predicted_seconds=1.0)
        led.record("fp", 2, 2, "BCL", "native", 0.25)
        path = tmp_path / "ledger.json"
        assert led.save(path) == 2
        back = CostLedger.load(path)
        assert back.alpha == 0.4
        assert back.drift_band == 3.0
        assert len(back) == 2
        cell = back.lookup("fp", 3, 3, "GBC", "fast")
        assert cell.observed_seconds == 0.5
        assert cell.ratio == 0.5

    def test_load_rejects_unknown_format_version(self, tmp_path):
        import json
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"version": 999, "cells": {}}))
        with pytest.raises(ValueError, match="version"):
            CostLedger.load(path)
