from datetime import date, timedelta

import numpy as np
import pytest

from shufflerl.data import RATIO_COUNT, MarketDataset, TurbulenceSeries
from shufflerl.features import PermutationSpec


def weekday_calendar(n, start=date(2020, 1, 6)):
    days = []
    current = start
    while len(days) < n:
        if current.weekday() < 5:
            days.append(current)
        current += timedelta(days=1)
    return tuple(days)


def make_dataset(close, ratios=None, tickers=None):
    """MarketDataset from a (days, D) price array; zero ratios by default."""
    close = np.asarray(close, dtype=np.float64)
    n, d = close.shape
    if ratios is None:
        ratios = np.zeros((n, RATIO_COUNT, d))
    if tickers is None:
        tickers = tuple(f"T{i:02d}" for i in range(d))
    return MarketDataset(tuple(tickers), weekday_calendar(n), close, ratios)


def invert_permutation(spec: PermutationSpec) -> PermutationSpec:
    inverse = np.empty_like(spec.perm)
    inverse[spec.perm] = np.arange(len(spec))
    return PermutationSpec(inverse)


def defined_mask(series: TurbulenceSeries) -> np.ndarray:
    """Days whose turbulence is defined (past the lookback)."""
    return np.isfinite(series.values)


@pytest.fixture
def flat_market():
    """Ten days, two tickers, constant prices."""
    return make_dataset(np.tile([10.0, 20.0], (10, 1)))


@pytest.fixture
def toy_market():
    """Five days, two tickers, hand-picked prices."""
    close = np.array(
        [
            [10.0, 20.0],
            [11.0, 19.0],
            [9.5, 21.0],
            [12.0, 18.5],
            [10.5, 22.0],
        ]
    )
    return make_dataset(close)
