"""Market data: CSV reading and rendering, forward-fill alignment,
synthetic generation, the turbulence index, and date splits.

Two input files feed the lab. A price CSV with header ``date,ticker,close``
(one row per day/ticker pair, ISO-8601 dates) and a fundamentals CSV with
``date,ticker`` followed by the fifteen ratio columns of
:data:`RATIO_COLUMNS`, in that order. Fundamentals are sparse in time
(typically quarterly). The loaders return plain dicts keyed by
``(date, ticker)``, and alignment forward-fills the fundamentals onto the
daily grid of the prices.

Only dates present in the price file count as trading days; there is no
exchange-calendar logic.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from shufflerl.errors import DataError, InsufficientHistoryError

RATIO_COLUMNS = (
    "current_ratio",
    "cash_ratio",
    "quick_ratio",
    "debt_ratio",
    "debt_to_equity",
    "inventory_turnover",
    "receivables_turnover",
    "payables_turnover",
    "operating_margin",
    "net_profit_margin",
    "return_on_assets",
    "return_on_equity",
    "earnings_per_share",
    "book_per_share",
    "dividend_per_share",
)

RATIO_COUNT = len(RATIO_COLUMNS)

# Typical magnitudes for the synthetic generator, one per ratio column.
_SYNTH_RATIO_BASE = np.array(
    [1.5, 0.6, 1.1, 0.5, 1.2, 6.0, 8.0, 7.0, 0.15, 0.10, 0.07, 0.14, 5.0, 30.0, 1.5]
)
# Trading days between re-draws of the synthetic ratios.
_QUARTER_LENGTH = 63


@dataclass(frozen=True)
class MarketDataset:
    """Dense day-by-ticker grid of closing prices and ratios.

    ``close`` has shape ``(n_days, D)``; ``ratios`` has shape
    ``(n_days, 15, D)`` with the ratio axis in :data:`RATIO_COLUMNS` order.
    Immutable once built; safe to share across threads.
    """

    tickers: tuple[str, ...]
    days: tuple[date, ...]
    close: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        close = np.asarray(self.close, dtype=np.float64)
        ratios = np.asarray(self.ratios, dtype=np.float64)
        close.setflags(write=False)
        ratios.setflags(write=False)
        object.__setattr__(self, "close", close)
        object.__setattr__(self, "ratios", ratios)
        n, d = len(self.days), len(self.tickers)
        if d < 1:
            raise DataError("dataset needs at least one ticker")
        if close.shape != (n, d):
            raise DataError(f"close grid shape {close.shape} != ({n}, {d})")
        if ratios.shape != (n, RATIO_COUNT, d):
            raise DataError(f"ratio grid shape {ratios.shape} != ({n}, {RATIO_COUNT}, {d})")
        if any(b <= a for a, b in zip(self.days, self.days[1:])):
            raise DataError("dates must be strictly increasing")
        if not np.all((0 < close) & (close < math.inf)):  # NaN fails too
            raise DataError("all close prices must be finite and strictly positive")
        if not np.all(np.isfinite(ratios)):
            raise DataError("all ratios must be finite")

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def ticker_count(self) -> int:
        return len(self.tickers)


def _parse_date(text: str, source: str, line: int) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"bad ISO-8601 date {text!r}", source=source, line=line) from None


def parse_number(text: str, column: str, source: str, line: int, parse=float):
    """``text`` as a finite ``parse`` value, ``float`` or ``int``."""
    try:
        value = parse(text)
    except ValueError:
        kind = "numeric" if parse is float else "integer"
        raise DataError(f"non-{kind} value {text!r} in column {column!r}", source=source, line=line) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text!r} in column {column!r}", source=source, line=line)
    return value


def read_csv(path, header: list[str]):
    """The reader of every CSV the package reads: yields ``(line, row)`` for
    each non-blank row after ``header``, which must be the file's first row,
    and checks each row's length. Every error is a ``DataError`` naming the
    file and, for a row, its line."""
    source = str(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open file: {exc.strerror}", source=source) from None
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise DataError(f"expected header {','.join(header)!r}, got {first}", source=source, line=1)
            for line, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    if not row:
                        continue
                    raise DataError(f"expected {len(header)} columns, got {len(row)}", source=source, line=line)
                yield line, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"not a UTF-8 CSV file ({exc})", source=source) from None


def _load_rows(path, kind: str, header: list[str], parse_cells) -> dict:
    """The rows of a ``kind`` CSV with ``header``, keyed by (date, ticker),
    each turned into its value by ``parse_cells(row, source, line)``. Checks
    dates, tickers and repeated pairs on top of :func:`read_csv`'s checks."""
    source = str(path)
    table: dict = {}
    for line, row in read_csv(path, header):
        day = _parse_date(row[0], source, line)
        ticker = row[1].strip()
        if not ticker:
            raise DataError("empty ticker", source=source, line=line)
        value = parse_cells(row, source, line)
        key = (day, ticker)
        if key in table:
            raise DataError(f"duplicate (date, ticker) pair ({day}, {ticker})", source=source, line=line)
        table[key] = value
    if not table:
        raise DataError(f"{kind} file contains no data rows", source=source)
    return table


def render_csv(header: list[str], rows) -> bytes:
    """The bytes of every CSV the package writes: ``header``, then ``rows``,
    in the ``csv`` module's default dialect (comma, minimal quoting, CRLF
    line ends), UTF-8. A float is written as its ``repr``, so it reads back
    bit-exact."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def _parse_close(row: list[str], source: str, line: int) -> float:
    price = parse_number(row[2], "close", source, line)
    if price <= 0:
        raise DataError(f"nonpositive close {price} for {row[1].strip()}", source=source, line=line)
    return price


def _parse_ratios(row: list[str], source: str, line: int) -> np.ndarray:
    return np.array([parse_number(cell, RATIO_COLUMNS[j], source, line) for j, cell in enumerate(row[2:])])


def load_prices(path) -> dict[tuple[date, str], float]:
    """Parse a ``date,ticker,close`` CSV into ``{(date, ticker): close}``;
    a nonpositive close is an error."""
    return _load_rows(path, "price", ["date", "ticker", "close"], _parse_close)


def load_fundamentals(path) -> dict[tuple[date, str], np.ndarray]:
    """Parse a fundamentals CSV (``date,ticker`` plus the 15 ratio columns)
    into ``{(date, ticker): ratios}``, each a length-15 array in
    :data:`RATIO_COLUMNS` order. Observations may be sparse in time and in
    any row order."""
    return _load_rows(path, "fundamentals", ["date", "ticker", *RATIO_COLUMNS], _parse_ratios)


def align_forward_fill(
    prices: dict[tuple[date, str], float], fundamentals: dict[tuple[date, str], np.ndarray]
) -> MarketDataset:
    """Merge sparse fundamentals onto the daily price grid, both as
    :func:`load_prices` and :func:`load_fundamentals` return them.

    Tickers are sorted by name and days by date. Each day carries the most
    recent ratio observation at or before it. Days on which any ticker
    still lacks an observation are dropped from the front of the dataset.
    Every price ticker must appear in the fundamentals.
    """
    tickers = sorted({t for _, t in prices})
    days = sorted({d for d, _ in prices})
    missing_price = [(d, t) for d in days for t in tickers if (d, t) not in prices]
    if missing_price:
        d, t = missing_price[0]
        raise DataError(
            f"price grid incomplete: {len(missing_price)} missing (date, ticker) cells, first ({d}, {t})"
        )

    # Every ticker's observations, each list in date order.
    per_ticker_obs: dict[str, list[tuple[date, np.ndarray]]] = {}
    for d, t in sorted(fundamentals):
        per_ticker_obs.setdefault(t, []).append((d, fundamentals[(d, t)]))
    for t in tickers:
        if t not in per_ticker_obs:
            raise DataError(f"ticker {t!r} has prices but no fundamentals")

    # First day on which every ticker has at least one observation.
    coverage_start = max(per_ticker_obs[t][0][0] for t in tickers)
    kept_days = [d for d in days if d >= coverage_start]
    if not kept_days:
        raise DataError(
            f"no price day is covered by fundamentals (first full coverage at {coverage_start})"
        )

    close = np.array([[prices[(day, t)] for t in tickers] for day in kept_days])
    ratios = np.empty((len(kept_days), RATIO_COUNT, len(tickers)))
    day_ordinals = [day.toordinal() for day in kept_days]
    for ti, t in enumerate(tickers):
        obs = per_ticker_obs[t]
        # Index of the latest observation at or before each kept day; never
        # -1, since every kept day is on or after this ticker's first one.
        latest = np.searchsorted([d.toordinal() for d, _ in obs], day_ordinals, side="right") - 1
        ratios[:, :, ti] = np.stack([v for _, v in obs])[latest]
    return MarketDataset(tuple(tickers), tuple(kept_days), close, ratios)


def _weekdays_from(start: date, count: int) -> list[date]:
    days = []
    current = start
    while len(days) < count:
        if current.weekday() < 5:
            days.append(current)
        current += timedelta(days=1)
    return days


@dataclass(frozen=True)
class SyntheticMarket:
    """The parameters of :func:`generate_synthetic_market`, with the
    defaults of a run config's synthetic dataset section."""

    seed: int = 0
    tickers: int = 30
    days: int = 500
    drift: float = 0.0005
    volatility: float = 0.01

    def __post_init__(self):
        if self.tickers < 1 or self.days < 1:
            raise DataError(f"tickers and days must be >= 1, got {self.tickers}, {self.days}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        # Written as `not lo < x < inf` so that NaN fails too.
        if not -1.0 < self.drift < math.inf:
            raise DataError(f"drift must be finite and > -1, got {self.drift}")
        if not 0.0 <= self.volatility < math.inf:
            raise DataError(f"volatility must be finite and >= 0, got {self.volatility}")


def generate_synthetic_market(
    seed: int,
    tickers: int,
    days: int,
    drift: float = SyntheticMarket.drift,
    volatility: float = SyntheticMarket.volatility,
) -> MarketDataset:
    """Geometric-random-walk market, deterministic for a fixed seed.

    Prices start at 100 and evolve as
    ``p[t+1] = p[t] * (1 + drift) * exp(vol * z - vol^2 / 2)`` with standard
    normal ``z``, so a zero-volatility market follows ``100 * (1+drift)^t``
    exactly. Ratios are piecewise-constant, re-drawn every ``_QUARTER_LENGTH``
    trading days. :class:`SyntheticMarket` checks the parameters, and a walk
    that leaves the finite positive range is a ``DataError`` too.
    """
    SyntheticMarket(seed, tickers, days, drift, volatility)
    rng = np.random.default_rng(seed)
    # Zero-padded to one width so that names sort in index order, as
    # `load_prices` sorts them.
    width = max(2, len(str(tickers - 1)))
    names = tuple(f"SYN{i:0{width}d}" for i in range(tickers))
    calendar = tuple(_weekdays_from(date(2015, 1, 5), days))

    close = np.empty((days, tickers))
    close[0] = 100.0
    with np.errstate(all="ignore"):  # the range check below catches any overflow
        if volatility == 0.0:
            for t in range(1, days):
                close[t] = close[t - 1] * (1.0 + drift)
        else:
            shocks = rng.standard_normal((days - 1, tickers)) if days > 1 else np.empty((0, tickers))
            # A float64 square is inf past 1.3e154, where a float one raises.
            factors = (1.0 + drift) * np.exp(volatility * shocks - 0.5 * np.float64(volatility) ** 2)
            for t in range(1, days):
                close[t] = close[t - 1] * factors[t - 1]
    if not np.all((0 < close) & (close < math.inf)):
        raise DataError(
            f"drift {drift} and volatility {volatility} take prices out of the finite "
            f"positive range within {days} days"
        )

    n_quarters = (days + _QUARTER_LENGTH - 1) // _QUARTER_LENGTH
    quarterly = _SYNTH_RATIO_BASE[None, :, None] * rng.lognormal(
        mean=0.0, sigma=0.25, size=(n_quarters, RATIO_COUNT, tickers)
    )
    ratios = np.empty((days, RATIO_COUNT, tickers))
    for t in range(days):
        ratios[t] = quarterly[t // _QUARTER_LENGTH]
    return MarketDataset(names, calendar, close, ratios)


def daily_return_matrix(dataset: MarketDataset) -> np.ndarray:
    """Per-ticker simple returns; row t is the return from day t to t+1."""
    return dataset.close[1:] / dataset.close[:-1] - 1.0


def _mahalanobis_sq(deviation: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """``deviation @ inv(covariance) @ deviation`` for each vector of a
    ``(..., D)`` stack and its ``(..., D, D)`` matrix, by one batched solve."""
    solved = np.linalg.solve(covariance, deviation[..., None])[..., 0]
    return np.einsum("...i,...i->...", deviation, solved)


# Days whose covariances one batched solve takes at once.
_TURBULENCE_BLOCK = 64


def check_turbulence_lookback(lookback: int, tickers: int) -> None:
    """Raise unless ``lookback`` daily returns are enough for the turbulence
    index of ``tickers`` tickers: at least D + 2 of them."""
    if lookback < tickers + 2:
        raise DataError(f"lookback {lookback} too small for {tickers} tickers (need >= D + 2)")


def compute_turbulence(dataset: MarketDataset, lookback: int = 252, ridge: float = 1e-6) -> np.ndarray:
    """Per-day turbulence, aligned to the dataset's days: the squared
    Mahalanobis distance of each day's return vector from the mean of the
    prior ``lookback`` daily returns, under their ridge-regularized sample
    covariance (Kritzman and Li's index, as FinRL logs it).

    Day t is defined once t-1 .. t-lookback all have returns, i.e. from day
    index ``lookback + 1`` on. Earlier entries are NaN, before the lookback
    fills; defined entries are nonnegative.

    There is no loop over days. Each window's sum and sum of outer products
    are the first window's plus cumulative sums of what each later window
    gains (the previous day's return) and loses (the return ``lookback``
    days before that one). The sums run over blocks of
    :data:`_TURBULENCE_BLOCK` days, each block starting from the last one's
    final window, so no array grows with the series. A window's covariance
    is then ``(Σ r rᵀ - lookback · m mᵀ) / (lookback - 1)``, with m its
    mean, and one batched solve per block gives the distances. The returns
    are first centred on their mean over the whole series. The index does
    not change under that shift, and without it this one-pass covariance
    would subtract two nearly equal terms wherever the drift dwarfs the
    day-to-day spread.
    """
    d = dataset.ticker_count
    check_turbulence_lookback(lookback, d)
    n = dataset.n_days
    first_defined = lookback + 1
    if n <= first_defined:
        raise InsufficientHistoryError(
            f"need more than {first_defined} days for lookback {lookback}, have {n}"
        )
    returns = daily_return_matrix(dataset)  # returns[t-1] is day t's return
    returns -= returns.mean(axis=0)
    window = returns[: first_defined - 1]  # day first_defined's window
    total, products = window.sum(axis=0), window.T @ window
    values = np.full(n, np.nan)
    ridged = ridge * np.eye(d)
    for start in range(first_defined, n, _TURBULENCE_BLOCK):
        # Day t's window is returns[t-1-lookback : t-1]; day t+1's adds
        # returns[t-1] and drops returns[t-1-lookback].
        own = returns[start - 1 : min(start + _TURBULENCE_BLOCK, n) - 1]
        old = returns[start - 1 - lookback : start - 1 - lookback + len(own)]
        sums = np.empty((len(own) + 1, d))
        sums[0] = total
        np.subtract(own, old, out=sums[1:])
        np.cumsum(sums, axis=0, out=sums)
        squares = np.empty((len(own) + 1, d, d))
        squares[0] = products
        np.multiply(own[:, :, None], own[:, None, :], out=squares[1:])
        squares[1:] -= old[:, :, None] * old[:, None, :]
        np.cumsum(squares, axis=0, out=squares)
        total, products = sums[-1], squares[-1].copy()
        mean = sums[:-1] / lookback
        covariance = squares[:-1]
        covariance -= sums[:-1, :, None] * mean[:, None, :]
        covariance /= lookback - 1
        covariance += ridged
        distance = _mahalanobis_sq(own - mean, covariance)
        values[start : start + len(own)] = np.maximum(distance, 0.0)
    return values


def split_by_date(dataset: MarketDataset, boundary: date) -> tuple[MarketDataset, MarketDataset]:
    """Partition days into ``train`` (< boundary) and ``test`` (>= boundary).

    The boundary must lie strictly inside the date range so both halves are
    non-empty; both keep the full ticker set.
    """
    if not dataset.days[0] < boundary <= dataset.days[-1]:
        raise DataError(
            f"boundary {boundary} outside open range ({dataset.days[0]}, {dataset.days[-1]}]"
        )
    cut = next(i for i, d in enumerate(dataset.days) if d >= boundary)
    train = MarketDataset(dataset.tickers, dataset.days[:cut], dataset.close[:cut], dataset.ratios[:cut])
    test = MarketDataset(dataset.tickers, dataset.days[cut:], dataset.close[cut:], dataset.ratios[cut:])
    return train, test
