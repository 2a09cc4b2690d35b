"""Daily feature vectors, the ticker-block permutation, and the sliding
window matrix fed to the convolutional agents.

Canonical layout of a daily vector (length ``1 + 17 * D`` for ``D`` tickers):

    index 0                      scaled cash balance
    indices 1 .. D               closing prices, ticker order
    indices D+1 .. 2D            shares held, ticker order
    indices 2D+1 .. 2D+15D       financial ratios, ratio-major
                                 (ratio j of ticker i at ``2D+1 + j*D + i``)

The shuffled layout regroups the same values ticker-major so that each
ticker's price, holding, and 15 ratios occupy a contiguous run of 17
entries: ``[balance, p_0, h_0, r_0..r_14 of ticker 0, p_1, h_1, ...]``.

Daily vectors are plain float64 arrays. Permutations use gather semantics
throughout: ``out[k] = in[perm[k]]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shufflerl.data import RATIO_COUNT
from shufflerl.errors import NonFiniteError, ShuffleRlError


@dataclass(frozen=True)
class FeatureLayout:
    """Index arithmetic for the canonical daily feature vector."""

    ticker_count: int

    def __post_init__(self):
        if self.ticker_count < 1:
            raise ShuffleRlError(f"ticker_count must be >= 1, got {self.ticker_count}")

    @property
    def total(self) -> int:
        return 1 + (2 + RATIO_COUNT) * self.ticker_count

    def price_index(self, ticker: int) -> int:
        return 1 + ticker

    def holding_index(self, ticker: int) -> int:
        return 1 + self.ticker_count + ticker

    def ratio_index(self, ratio: int, ticker: int) -> int:
        return 1 + 2 * self.ticker_count + ratio * self.ticker_count + ticker


@dataclass(frozen=True)
class PermutationSpec:
    """A bijection on vector indices, applied as ``out[k] = in[perm[k]]``."""

    perm: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", perm)
        n = perm.shape[0]
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ShuffleRlError("permutation is not a bijection on 0..n-1")

    def __len__(self) -> int:
        return int(self.perm.shape[0])


@dataclass
class WindowMatrix:
    """Fixed-height stack of consecutive daily feature rows.

    Row 0 is the oldest day, the last row the newest.
    """

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ShuffleRlError(f"window matrix must be 2-D, got shape {self.rows.shape}")


def build_feature_vector(
    balance: float,
    prices: np.ndarray,
    holdings: np.ndarray,
    ratios: np.ndarray,
    scale: float,
    layout: FeatureLayout | None = None,
) -> np.ndarray:
    """Assemble one canonical daily vector.

    ``ratios`` has shape ``(15, D)``; row j holds ratio j for every ticker,
    matching the ratio-major canonical block.
    """
    prices = np.asarray(prices, dtype=np.float64)
    holdings = np.asarray(holdings, dtype=np.float64)
    ratios = np.asarray(ratios, dtype=np.float64)
    if layout is None:
        layout = FeatureLayout(ticker_count=prices.shape[0])
    d = layout.ticker_count
    if prices.shape != (d,) or holdings.shape != (d,):
        raise ShuffleRlError(
            f"expected {d} prices and holdings, got {prices.shape} and {holdings.shape}"
        )
    if ratios.shape != (RATIO_COUNT, d):
        raise ShuffleRlError(f"expected ratios shaped ({RATIO_COUNT}, {d}), got {ratios.shape}")
    if scale <= 0:
        raise ShuffleRlError(f"scale must be positive, got {scale}")
    if not np.all(prices > 0):
        raise ShuffleRlError("prices must be strictly positive")

    values = np.empty(layout.total, dtype=np.float64)
    values[0] = balance * scale
    values[1 : d + 1] = prices
    values[d + 1 : 2 * d + 1] = holdings
    values[2 * d + 1 :] = ratios.reshape(-1)  # C order == ratio-major
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("feature vector")
    return values


def ticker_block_permutation(layout: FeatureLayout) -> PermutationSpec:
    """Permutation taking the canonical layout to the ticker-major one.

    In the shuffled vector, ticker i occupies positions ``1 + 17*i`` through
    ``1 + 17*i + 16``: first its price, then its holding, then its 15 ratios
    in canonical ratio order. The balance stays at position 0.
    """
    d = layout.ticker_count
    block = 2 + RATIO_COUNT
    perm = np.empty(layout.total, dtype=np.int64)
    perm[0] = 0
    for i in range(d):
        base = 1 + block * i
        perm[base] = layout.price_index(i)
        perm[base + 1] = layout.holding_index(i)
        for j in range(RATIO_COUNT):
            perm[base + 2 + j] = layout.ratio_index(j, i)
    return PermutationSpec(perm)


def apply_permutation(row: np.ndarray, spec: PermutationSpec) -> np.ndarray:
    """Gather ``row`` through ``spec``."""
    if len(row) != len(spec):
        raise ShuffleRlError(f"length mismatch: vector {len(row)}, permutation {len(spec)}")
    return row[spec.perm]


def slide_window(window: WindowMatrix, newest: np.ndarray) -> WindowMatrix:
    """Drop the oldest row, append ``newest``; shape is preserved."""
    width = window.rows.shape[1]
    if len(newest) != width:
        raise ShuffleRlError(f"width mismatch: window {width}, vector {len(newest)}")
    rows = np.empty_like(window.rows)
    rows[:-1] = window.rows[1:]
    rows[-1] = newest
    return WindowMatrix(rows)
