import math
import tracemalloc
from datetime import date

import numpy as np
import pytest

from conftest import defined_mask, make_dataset
from shufflerl.data import (
    RATIO_COLUMNS,
    DataError,
    MarketDataset,
    _mahalanobis_sq,
    align_forward_fill,
    compute_turbulence,
    daily_return_matrix,
    generate_synthetic_market,
    load_fundamentals,
    load_prices,
    read_csv,
    render_csv,
    split_by_date,
)
from shufflerl.errors import InsufficientHistoryError


def write_prices(path, rows):
    lines = ["date,ticker,close"] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_fundamentals(path, rows, header_ratios=RATIO_COLUMNS):
    lines = ["date,ticker," + ",".join(header_ratios)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def ratio_cells(value=1.0):
    return [value] * 15


class TestLoadPrices:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "p.csv"
        write_prices(path, [
            ("2015-01-02", "AXP", 92.5),
            ("2015-01-05", "AXP", 93.1),
            ("2015-01-06", "AXP", 91.8),
        ])
        table = load_prices(path)
        assert len(table) == 3
        assert sorted({t for _, t in table}) == ["AXP"]
        assert table[(date(2015, 1, 5), "AXP")] == 93.1

    def test_nonpositive_price_names_row(self, tmp_path):
        path = tmp_path / "p.csv"
        write_prices(path, [("2015-01-02", "AXP", 92.5), ("2015-01-05", "AXP", -5.0)])
        with pytest.raises(DataError) as excinfo:
            load_prices(path)
        assert excinfo.value.line == 3
        assert "-5.0" in str(excinfo.value)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "p.csv"
        write_prices(path, [("2015-01-02", "AXP", 92.5), ("2015-01-02", "AXP", 93.0)])
        with pytest.raises(DataError, match="duplicate"):
            load_prices(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_prices(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,symbol,close\n2015-01-02,AXP,92.5\n")
        with pytest.raises(DataError, match="header"):
            load_prices(path)

    def test_bad_date(self, tmp_path):
        path = tmp_path / "p.csv"
        write_prices(path, [("01/02/2015", "AXP", 92.5)])
        with pytest.raises(DataError, match="ISO-8601"):
            load_prices(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,ticker,close\n2015-01-02,AXP\n")
        with pytest.raises(DataError) as excinfo:
            load_prices(path)
        assert excinfo.value.line == 2


class TestLoadFundamentals:
    def test_two_quarterly_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        write_fundamentals(path, [
            ("2015-01-02", "AXP", *ratio_cells(1.0)),
            ("2015-04-02", "AXP", *ratio_cells(2.0)),
        ])
        table = load_fundamentals(path)
        assert len(table) == 2
        obs = [(d, v) for (d, t), v in table.items() if t == "AXP"]
        assert obs[0][0] == date(2015, 1, 2)
        np.testing.assert_array_equal(obs[1][1], np.full(15, 2.0))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "f.csv"
        write_fundamentals(path, [], header_ratios=RATIO_COLUMNS[:14])
        with pytest.raises(DataError, match="header"):
            load_fundamentals(path)

    def test_row_with_missing_cell(self, tmp_path):
        path = tmp_path / "f.csv"
        write_fundamentals(path, [("2015-01-02", "AXP", *ratio_cells()[:14])])
        with pytest.raises(DataError) as excinfo:
            load_fundamentals(path)
        assert excinfo.value.line == 2

    def test_nan_cell_named(self, tmp_path):
        path = tmp_path / "f.csv"
        cells = ratio_cells()
        cells[4] = "NaN"
        write_fundamentals(path, [("2015-01-02", "AXP", *cells)])
        with pytest.raises(DataError, match="debt_to_equity"):
            load_fundamentals(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "f.csv"
        cells = ratio_cells()
        cells[0] = "n/a"
        write_fundamentals(path, [("2015-01-02", "AXP", *cells)])
        with pytest.raises(DataError, match="current_ratio"):
            load_fundamentals(path)


class TestReadCsv:
    def test_rows_with_their_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(render_csv(["a", "b"], [[1, 2], [], ["x,y", 3]]))
        assert list(read_csv(path, ["a", "b"])) == [(2, ["1", "2"]), (4, ["x,y", "3"])]

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(render_csv(["a", "b"], []))
        assert list(read_csv(path, ["a", "b"])) == []

    @pytest.mark.parametrize("content, line, message", [
        (b"", 1, "expected header 'a,b', got None"),
        (b"a,c\r\n1,2\r\n", 1, "expected header 'a,b'"),
        (b"a,b\r\n1,2\r\n1,2,3\r\n", 3, "expected 2 columns, got 3"),
        (b"a,b\r\n\xff,2\r\n", None, "not a UTF-8 CSV file"),
    ])
    def test_error_names_file_and_line(self, tmp_path, content, line, message):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message) as excinfo:
            list(read_csv(path, ["a", "b"]))
        assert (excinfo.value.source, excinfo.value.line) == (str(path), line)


class TestAlignForwardFill:
    def _prices(self, tmp_path, tickers=("AXP",), days=5):
        path = tmp_path / "p.csv"
        rows = []
        dates = [f"2015-01-0{d}" for d in range(1, days + 1)]
        for di, day in enumerate(dates):
            for t in tickers:
                rows.append((day, t, 10.0 + di))
        write_prices(path, rows)
        return load_prices(path)

    def test_forward_fill_single_report(self, tmp_path):
        prices = self._prices(tmp_path)
        path = tmp_path / "f.csv"
        write_fundamentals(path, [("2015-01-01", "AXP", *ratio_cells(3.0))])
        dataset = align_forward_fill(prices, load_fundamentals(path))
        assert dataset.n_days == 5
        assert np.all(dataset.ratios == 3.0)

    def test_forward_fill_two_reports(self, tmp_path):
        prices = self._prices(tmp_path)
        path = tmp_path / "f.csv"
        write_fundamentals(path, [
            ("2015-01-01", "AXP", *ratio_cells(1.0)),
            ("2015-01-04", "AXP", *ratio_cells(2.0)),
        ])
        dataset = align_forward_fill(prices, load_fundamentals(path))
        assert np.all(dataset.ratios[:3] == 1.0)
        assert np.all(dataset.ratios[3:] == 2.0)

    def test_reports_out_of_date_order(self, tmp_path):
        prices = self._prices(tmp_path, tickers=("AXP", "GS"))
        path = tmp_path / "f.csv"
        write_fundamentals(path, [
            ("2015-01-04", "AXP", *ratio_cells(2.0)),
            ("2015-01-03", "GS", *ratio_cells(4.0)),
            ("2015-01-01", "AXP", *ratio_cells(1.0)),
            ("2015-01-01", "GS", *ratio_cells(3.0)),
        ])
        dataset = align_forward_fill(prices, load_fundamentals(path))
        assert dataset.n_days == 5
        assert np.all(dataset.ratios[:3, :, 0] == 1.0)
        assert np.all(dataset.ratios[3:, :, 0] == 2.0)
        assert np.all(dataset.ratios[:2, :, 1] == 3.0)
        assert np.all(dataset.ratios[2:, :, 1] == 4.0)

    def test_days_before_coverage_dropped(self, tmp_path):
        prices = self._prices(tmp_path)
        path = tmp_path / "f.csv"
        write_fundamentals(path, [("2015-01-03", "AXP", *ratio_cells(1.0))])
        dataset = align_forward_fill(prices, load_fundamentals(path))
        assert dataset.days[0] == date(2015, 1, 3)
        assert dataset.n_days == 3

    def test_missing_fundamentals_ticker(self, tmp_path):
        prices = self._prices(tmp_path, tickers=("AXP", "XYZ"))
        path = tmp_path / "f.csv"
        write_fundamentals(path, [("2015-01-01", "AXP", *ratio_cells(1.0))])
        with pytest.raises(DataError, match="XYZ"):
            align_forward_fill(prices, load_fundamentals(path))

    def test_incomplete_price_grid(self, tmp_path):
        path = tmp_path / "p.csv"
        write_prices(path, [
            ("2015-01-01", "AXP", 10.0),
            ("2015-01-01", "GS", 20.0),
            ("2015-01-02", "AXP", 11.0),
        ])
        fpath = tmp_path / "f.csv"
        write_fundamentals(fpath, [
            ("2015-01-01", "AXP", *ratio_cells()),
            ("2015-01-01", "GS", *ratio_cells()),
        ])
        with pytest.raises(DataError, match="incomplete"):
            align_forward_fill(load_prices(path), load_fundamentals(fpath))

    def test_idempotent_on_dense_data(self, tmp_path):
        prices = self._prices(tmp_path)
        fpath = tmp_path / "f.csv"
        # one observation per price day: already dense
        write_fundamentals(fpath, [(f"2015-01-0{d}", "AXP", *ratio_cells(float(d))) for d in range(1, 6)])
        fundamentals = load_fundamentals(fpath)
        once = align_forward_fill(prices, fundamentals)
        assert once.n_days == 5
        for di in range(5):
            assert np.all(once.ratios[di] == float(di + 1))

    def test_staggered_reports_match_reference(self, tmp_path):
        tickers = ("AXP", "GS", "KO")
        prices = self._prices(tmp_path, tickers=tickers, days=9)
        reports = {  # day of month -> value; GS reports before the first price day
            "AXP": {1: 1.0, 4: 2.0, 5: -0.0, 8: 1.0},
            "GS": {1: 3.0, 6: 4.0},
            "KO": {1: 5.0, 2: 6.0, 3: 7.0, 9: 8.0},
        }
        rows = [("2014-12-31", "GS", *ratio_cells(9.0))]
        rows += [(f"2015-01-0{d}", t, *ratio_cells(v)) for t in tickers for d, v in reports[t].items()]
        path = tmp_path / "f.csv"
        write_fundamentals(path, rows)
        dataset = align_forward_fill(prices, load_fundamentals(path))
        expected = np.empty((9, 15, 3))
        for ti, t in enumerate(tickers):
            for di in range(9):
                expected[di, :, ti] = reports[t][max(d for d in reports[t] if d <= di + 1)]
        assert dataset.ratios.tobytes() == expected.tobytes()


class TestMarketDataset:
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_close_must_be_finite_and_positive(self, bad):
        close = np.full((3, 2), 100.0)
        close[1, 0] = bad
        with pytest.raises(DataError, match="^all close prices must be finite and strictly positive$"):
            make_dataset(close)


class TestSyntheticMarket:
    def test_degenerate_walk(self):
        dataset = generate_synthetic_market(seed=1, tickers=3, days=10, drift=0.0, volatility=0.0)
        assert np.all(dataset.close == 100.0)

    def test_same_seed_byte_identical(self):
        a = generate_synthetic_market(seed=11, tickers=4, days=130)
        b = generate_synthetic_market(seed=11, tickers=4, days=130)
        assert a.close.tobytes() == b.close.tobytes()
        assert a.ratios.tobytes() == b.ratios.tobytes()
        assert a.days == b.days and a.tickers == b.tickers

    def test_different_seed_differs(self):
        a = generate_synthetic_market(seed=11, tickers=2, days=50)
        b = generate_synthetic_market(seed=12, tickers=2, days=50)
        assert a.close.tobytes() != b.close.tobytes()

    def test_zero_volatility_closed_form(self):
        r = 0.002
        dataset = generate_synthetic_market(seed=5, tickers=2, days=40, drift=r, volatility=0.0)
        expected = 100.0 * (1.0 + r) ** np.arange(40)
        np.testing.assert_allclose(dataset.close[:, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(dataset.close[:, 1], expected, rtol=1e-12)

    def test_quarterly_ratio_redraw(self):
        dataset = generate_synthetic_market(seed=3, tickers=1, days=130)
        assert np.all(dataset.ratios[0] == dataset.ratios[62])
        assert np.any(dataset.ratios[62] != dataset.ratios[63])
        assert np.all(dataset.ratios[63] == dataset.ratios[125])

    @pytest.mark.filterwarnings("error")  # an overflowing walk raises its own error, not a warning
    def test_bad_params(self):
        for params, message in [
            ({"tickers": 0}, "tickers and days must be >= 1"),
            ({"days": 0}, "tickers and days must be >= 1"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"volatility": -0.1}, "volatility must be finite and >= 0"),
            ({"volatility": math.nan}, "volatility must be finite and >= 0"),
            ({"volatility": math.inf}, "volatility must be finite and >= 0"),
            ({"drift": math.nan}, "drift must be finite and > -1"),
            ({"drift": math.inf}, "drift must be finite and > -1"),
            ({"drift": -1.0}, "drift must be finite and > -1"),
            ({"drift": -2.0}, "drift must be finite and > -1"),
            ({"drift": 1e300, "days": 40}, r"^drift 1e\+300 and volatility 0\.01 .* within 40 days$"),
            ({"volatility": 40.0, "days": 400}, r"^drift 0\.0005 and volatility 40\.0 .* within 400 days$"),
            ({"volatility": 1e200}, r"^drift 0\.0005 and volatility 1e\+200 .* within 10 days$"),
        ]:
            with pytest.raises(DataError, match=message):
                generate_synthetic_market(**{"seed": 0, "tickers": 1, "days": 10, **params})


def turbulence_oracle_one_day(dataset, lookback, t, ridge=1e-6):
    """Independent pure-Python turbulence for day t (2 tickers only)."""
    closes = dataset.close.tolist()
    rets = []
    for k in range(1, len(closes)):
        rets.append([closes[k][i] / closes[k - 1][i] - 1.0 for i in range(2)])
    window = rets[t - 1 - lookback : t - 1]
    n = len(window)
    mu = [sum(r[i] for r in window) / n for i in range(2)]
    # sample covariance, ddof = 1
    c = [[0.0, 0.0], [0.0, 0.0]]
    for r in window:
        for i in range(2):
            for j in range(2):
                c[i][j] += (r[i] - mu[i]) * (r[j] - mu[j])
    for i in range(2):
        for j in range(2):
            c[i][j] /= n - 1
        c[i][i] += ridge
    det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
    inv = [[c[1][1] / det, -c[0][1] / det], [-c[1][0] / det, c[0][0] / det]]
    dev = [rets[t - 1][i] - mu[i] for i in range(2)]
    return sum(dev[i] * inv[i][j] * dev[j] for i in range(2) for j in range(2))


class TestTurbulence:
    def test_identity_covariance_hand_value(self):
        assert _mahalanobis_sq(np.array([1.0, 2.0]), np.eye(2)) == pytest.approx(5.0, abs=1e-12)

    def test_zero_deviation_is_zero(self):
        assert _mahalanobis_sq(np.zeros(3), np.eye(3) * 0.25) == 0.0

    def test_constant_prices_all_zero(self, flat_market):
        series = compute_turbulence(flat_market, lookback=4)
        defined = series[defined_mask(series)]
        assert defined.shape == (5,)
        np.testing.assert_array_equal(defined, 0.0)

    def test_undefined_before_window_fills(self, flat_market):
        series = compute_turbulence(flat_market, lookback=4)
        assert np.all(np.isnan(series[:5]))

    def test_matches_pure_python_oracle(self):
        dataset = generate_synthetic_market(seed=9, tickers=2, days=30, drift=0.0, volatility=0.02)
        lookback = 6
        series = compute_turbulence(dataset, lookback=lookback)
        for t in [7, 15, 29]:
            expected = turbulence_oracle_one_day(dataset, lookback, t)
            assert series[t] == pytest.approx(expected, rel=1e-9)

    def test_nonnegative(self):
        dataset = generate_synthetic_market(seed=17, tickers=3, days=60, volatility=0.03)
        series = compute_turbulence(dataset, lookback=8)
        assert np.all(series[defined_mask(series)] >= 0.0)

    def test_invariant_to_uniform_rescaling(self):
        dataset = generate_synthetic_market(seed=21, tickers=2, days=40, volatility=0.02)
        scaled = MarketDataset(dataset.tickers, dataset.days, dataset.close * 7.0, dataset.ratios)
        a = compute_turbulence(dataset, lookback=6)
        b = compute_turbulence(scaled, lookback=6)
        np.testing.assert_allclose(
            a[defined_mask(a)], b[defined_mask(b)], rtol=1e-9
        )

    def test_insufficient_history(self, flat_market):
        with pytest.raises(InsufficientHistoryError):
            compute_turbulence(flat_market, lookback=9)

    def test_lookback_too_small_for_tickers(self, flat_market):
        with pytest.raises(DataError, match="D \\+ 2"):
            compute_turbulence(flat_market, lookback=3)

    def test_return_matrix(self, toy_market):
        rets = daily_return_matrix(toy_market)
        assert rets.shape == (4, 2)
        assert rets[0, 0] == pytest.approx(0.1)


def turbulence_reference(dataset, lookback=252, ridge=1e-6):
    """The index one day at a time: one ``np.cov`` and one solve per day."""
    d, n = dataset.ticker_count, dataset.n_days
    returns = daily_return_matrix(dataset)
    values = np.full(n, np.nan)
    for t in range(lookback + 1, n):
        window = returns[t - 1 - lookback : t - 1]
        mu = window.mean(axis=0)
        cov = np.cov(window, rowvar=False, ddof=1).reshape(d, d) + ridge * np.eye(d)
        deviation = returns[t - 1] - mu
        values[t] = max(float(deviation @ np.linalg.solve(cov, deviation)), 0.0)
    return values


def twin_market():
    """Three tickers, the first two with identical prices."""
    close = generate_synthetic_market(seed=4, tickers=2, days=80, volatility=0.02).close
    return make_dataset(close[:, [0, 0, 1]])


class TestBatchedTurbulence:
    """``compute_turbulence`` against the per-day loop."""

    @pytest.mark.parametrize("dataset, lookback, ridge, defined", [
        # The benchmark's shape: 30 tickers, lookback 252, 900 days.
        (generate_synthetic_market(seed=1, tickers=30, days=900), 252, 1e-6, 647),
        # Exactly one defined day.
        (generate_synthetic_market(seed=2, tickers=3, days=12), 10, 1e-6, 1),
        # The shortest lookback there is, over several blocks of days.
        (generate_synthetic_market(seed=3, tickers=5, days=400, volatility=0.02), 7, 1e-6, 392),
        # Drift dominates the day-to-day spread.
        (generate_synthetic_market(seed=3, tickers=30, days=900, drift=0.01, volatility=1e-4), 252, 1e-6, 647),
        # Drift 1e4 times the spread, under a ridge too small to hide it:
        # without centring, the one-pass covariance is off by about 2e-6.
        (generate_synthetic_market(seed=3, tickers=30, days=900, drift=0.01, volatility=1e-6), 252, 1e-14, 647),
        # Two tickers move together, so only the ridge keeps the covariance regular.
        (twin_market(), 20, 1e-6, 59),
    ], ids=["benchmark", "one-day", "minimal-lookback", "drift", "drift-tiny-ridge", "twins"])
    def test_matches_the_per_day_loop(self, dataset, lookback, ridge, defined):
        series = compute_turbulence(dataset, lookback=lookback, ridge=ridge)
        expected = turbulence_reference(dataset, lookback=lookback, ridge=ridge)
        np.testing.assert_array_equal(np.isnan(series), np.isnan(expected))
        assert np.isfinite(series).sum() == defined
        np.testing.assert_allclose(series, expected, rtol=1e-9, atol=0)

    def test_memory_at_benchmark_shape(self):
        # ppo.evaluate builds its env while the network is loaded, so what
        # this call holds adds to a backtest's peak RSS. One (days, D, D)
        # array of cumulative sums (6.5 MB here) would lift the backtest-cnn
        # benchmark's peak_rss_mb by megabytes.
        dataset = generate_synthetic_market(seed=1, tickers=30, days=900)
        tracemalloc.start()
        try:
            compute_turbulence(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestSplitByDate:
    def test_eighty_twenty(self):
        dataset = generate_synthetic_market(seed=2, tickers=2, days=100, volatility=0.0)
        boundary = dataset.days[80]
        train, test = split_by_date(dataset, boundary)
        assert train.n_days == 80
        assert test.n_days == 20
        assert train.tickers == test.tickers == dataset.tickers

    def test_partition_no_overlap(self):
        dataset = generate_synthetic_market(seed=2, tickers=2, days=50)
        train, test = split_by_date(dataset, dataset.days[33])
        assert train.n_days + test.n_days == dataset.n_days
        assert set(train.days).isdisjoint(test.days)
        assert train.days[-1] < test.days[0]

    def test_boundary_before_first_day(self):
        dataset = generate_synthetic_market(seed=2, tickers=1, days=10)
        with pytest.raises(DataError):
            split_by_date(dataset, date(2014, 1, 1))

    def test_boundary_after_last_day(self):
        dataset = generate_synthetic_market(seed=2, tickers=1, days=10)
        with pytest.raises(DataError):
            split_by_date(dataset, date(2030, 1, 1))

    def test_train_through_2022_test_covers_2023(self):
        # Calendar spanning Jan 2015 into September 2023, split at Jan 2023.
        dataset = generate_synthetic_market(seed=4, tickers=1, days=2270, volatility=0.0)
        assert dataset.days[0].year == 2015
        assert (dataset.days[-1].year, dataset.days[-1].month >= 9) == (2023, True)
        train, test = split_by_date(dataset, date(2023, 1, 1))
        assert train.days[-1].year == 2022 and train.days[-1].month == 12
        assert all(d.year == 2023 for d in test.days)
        assert test.days[0].month == 1
