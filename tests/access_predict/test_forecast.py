"""WindowedAccessForecaster: warm-start EWMA rates over sliding windows."""

import numpy as np
import pytest

from repro.core.access_predict import WindowedAccessForecaster


class TestUpdateAndRate:
    def test_converges_to_constant_rate(self):
        forecaster = WindowedAccessForecaster(alpha=0.5, blend=1.0)
        for epoch in range(20):
            forecaster.update(epoch, {"a": 10.0})
        assert forecaster.rate("a") == pytest.approx(10.0, rel=1e-3)

    def test_silent_months_decay_the_rate(self):
        forecaster = WindowedAccessForecaster(alpha=0.5, blend=1.0)
        forecaster.update(0, {"a": 16.0})
        # four silent months: rate halves each month at alpha=0.5
        assert forecaster.rate("a", epoch=4) == pytest.approx(
            forecaster.rate("a", epoch=0) * 0.5**4
        )

    def test_lazy_decay_equals_explicit_zero_updates(self):
        lazy = WindowedAccessForecaster(alpha=0.3, blend=1.0)
        explicit = WindowedAccessForecaster(alpha=0.3, blend=1.0)
        lazy.update(0, {"a": 9.0})
        explicit.update(0, {"a": 9.0})
        for epoch in range(1, 6):
            explicit.update(epoch, {"a": 0.0})
        lazy.update(6, {"a": 4.0})
        explicit.update(6, {"a": 4.0})
        assert lazy.rate("a") == pytest.approx(explicit.rate("a"))

    def test_unknown_partition_rates_zero(self):
        assert WindowedAccessForecaster().rate("ghost") == 0.0

    def test_rejects_time_travel_and_negatives(self):
        forecaster = WindowedAccessForecaster()
        forecaster.update(5, {"a": 1.0})
        with pytest.raises(ValueError):
            forecaster.update(4, {"a": 1.0})
        with pytest.raises(ValueError):
            forecaster.update(6, {"a": -1.0})

    def test_rejects_repeated_epoch(self):
        """Folding the same epoch twice would double-apply the EWMA; an
        epoch's reads must be aggregated into a single update."""
        forecaster = WindowedAccessForecaster()
        forecaster.update(5, {"a": 60.0})
        with pytest.raises(ValueError, match="strictly increasing"):
            forecaster.update(5, {"a": 40.0})


class TestForecast:
    def test_blends_ewma_with_window_mean(self):
        forecaster = WindowedAccessForecaster(alpha=1.0, blend=0.5)
        forecaster.update(0, {"a": 10.0})
        forecast = forecaster.forecast_monthly(["a"], {"a": (2.0, 4.0)}, epoch=0)
        assert forecast["a"] == pytest.approx(0.5 * 10.0 + 0.5 * 3.0)

    def test_empty_window_keeps_the_prior(self):
        forecaster = WindowedAccessForecaster(alpha=1.0, blend=0.5)
        forecaster.seed({"a": 8.0}, epoch=0)
        forecast = forecaster.forecast_monthly(["a"], {"a": ()}, epoch=0)
        assert forecast["a"] == pytest.approx(8.0)

    def test_seed_provides_bootstrap_priors(self):
        forecaster = WindowedAccessForecaster(alpha=0.4, blend=1.0)
        forecaster.seed({"hot": 50.0, "cold": 0.0}, epoch=-1)
        forecast = forecaster.forecast_monthly(["hot", "cold"], epoch=-1)
        assert forecast["hot"] == pytest.approx(50.0)
        assert forecast["cold"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedAccessForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            WindowedAccessForecaster(blend=1.5)
        with pytest.raises(ValueError):
            WindowedAccessForecaster().seed({"a": -2.0})

    def test_contains_reports_tracked_partitions(self):
        forecaster = WindowedAccessForecaster()
        assert "a" not in forecaster
        forecaster.seed({"a": 3.0})
        assert "a" in forecaster
        assert "b" not in forecaster


def forecaster_state(forecaster: WindowedAccessForecaster) -> tuple:
    return (
        forecaster._last_epoch,
        dict(forecaster._index),
        forecaster._value.tobytes(),
        forecaster._at.tobytes(),
    )


class TestRejectedInputChangesNothing:
    """A rejected update or seed leaves every rate and the epoch unchanged,
    so the corrected call for the same epoch is accepted."""

    @staticmethod
    def warm() -> WindowedAccessForecaster:
        forecaster = WindowedAccessForecaster(alpha=0.4, blend=1.0)
        forecaster.seed({"a": 3.0, "b": 1.0}, epoch=-1)
        forecaster.update(0, {"a": 6.0})
        return forecaster

    def test_update(self):
        forecaster = self.warm()
        before = forecaster_state(forecaster)
        rate = forecaster.rate("a")
        with pytest.raises(ValueError, match="negative read count for 'b'"):
            forecaster.update(1, {"a": 100.0, "b": -1.0, "new": 2.0})
        assert forecaster_state(forecaster) == before
        assert forecaster.rate("a") == rate
        assert "new" not in forecaster
        forecaster.update(1, {"a": 100.0, "b": 1.0, "new": 2.0})
        assert forecaster.rate("a") == 0.4 * 100.0 + 0.6 * rate
        assert forecaster.rate("new") == 0.4 * 2.0

    @pytest.mark.parametrize(
        "rows, observed, message",
        [
            ([0, 1], [1.0, -1.0], "negative read count for 'b'"),
            ([0, 1], [np.nan, -1.0], "negative read count for 'b'"),
            ([0, 2], [1.0, 1.0], "row outside"),
            ([-1], [1.0], "row outside"),
            ([0], [1.0, 2.0], "same length"),
        ],
    )
    def test_update_rows(self, rows, observed, message):
        forecaster = self.warm()
        before = forecaster_state(forecaster)
        with pytest.raises(ValueError, match=message):
            forecaster.update_rows(
                1, np.array(rows, dtype=np.intp), np.array(observed)
            )
        assert forecaster_state(forecaster) == before
        forecaster.update_rows(1, forecaster.rows(["b"]), np.array([5.0]))
        assert forecaster.rate("b") == 0.4 * 5.0 + 0.6 * (1.0 * 0.6**1)

    def test_seed(self):
        forecaster = self.warm()
        before = forecaster_state(forecaster)
        with pytest.raises(ValueError, match="negative prior rate for 'd'"):
            forecaster.seed({"c": 3.0, "d": -2.0})
        assert forecaster_state(forecaster) == before
        assert "c" not in forecaster
        forecaster.seed({"c": 3.0, "d": 2.0})
        assert forecaster.rate("c", epoch=0) == 3.0

    def test_nan_does_not_hide_a_negative(self):
        forecaster = self.warm()
        before = forecaster_state(forecaster)
        with pytest.raises(ValueError, match="negative read count for 'b'"):
            forecaster.update(1, {"a": np.nan, "b": -1.0})
        with pytest.raises(ValueError, match="negative prior rate for 'd'"):
            forecaster.seed({"c": np.nan, "d": -2.0})
        assert forecaster_state(forecaster) == before
        forecaster.update(1, {"a": 100.0, "b": 1.0})
        assert forecaster.rate("b") == 0.4 * 1.0 + 0.6 * (1.0 * 0.6**1)


class TestRows:
    def test_rows_need_state(self):
        forecaster = WindowedAccessForecaster()
        forecaster.seed({"a": 1.0, "b": 2.0})
        assert forecaster.rows(["b", "a"]).tolist() == [1, 0]
        with pytest.raises(KeyError):
            forecaster.rows(["ghost"])

    def test_forecast_rows_matches_the_name_adapter(self):
        forecaster = WindowedAccessForecaster(alpha=0.3, blend=0.25)
        forecaster.seed({"a": 4.0, "b": 0.5, "c": 9.0}, epoch=-1)
        forecaster.update(0, {"a": 2.0, "c": 1.0})
        forecaster.update(3, {"b": 7.5})
        names = ["c", "a", "b"]
        window = np.array([[1.0, 0.1, 0.2], [0.0, 0.0, 0.0], [3.0, 2.5, 0.3]])
        got = forecaster.forecast_rows(forecaster.rows(names), window, epoch=5)
        want = forecaster.forecast_monthly(
            names, dict(zip(names, map(tuple, window.tolist()))), epoch=5
        )
        assert got.tolist() == [want[name] for name in names]
        alone = forecaster.forecast_rows(forecaster.rows(names))
        assert alone.tolist() == [forecaster.rate(name) for name in names]
        assert WindowedAccessForecaster().forecast_rows(np.zeros(0, np.intp)).size == 0

    def test_long_silence_decays_like_the_float_power(self):
        forecaster = WindowedAccessForecaster(alpha=0.001, blend=1.0)
        forecaster.update(0, {"a": 50.0})
        for gap in (1, 7, 4095, 4096, 10_000):
            assert forecaster.rate("a", epoch=gap) == 0.05 * 0.999**gap
