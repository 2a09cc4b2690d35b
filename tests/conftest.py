import math
from datetime import date, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from shufflerl.data import RATIO_COUNT, MarketDataset
from shufflerl.features import PermutationSpec
from shufflerl.ppo import policy_mean


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


def row_stack(windows):
    """``(rows, starts)`` of a batch of windows, each its own run, as
    ``refresh_batch_norm`` takes them: (B, H, W) windows give (B*H, W) rows,
    (B, C, H, W) ones (B*H, C, W) rows, and window i starts at row i*H."""
    windows = np.asarray(windows)
    rows = np.moveaxis(windows, -2, 1).reshape(-1, *windows.shape[1:-2], windows.shape[-1])
    return rows, windows.shape[-2] * np.arange(len(windows))


def defined_mask(series: np.ndarray) -> np.ndarray:
    """Days whose turbulence is defined (past the lookback)."""
    return np.isfinite(series)


class SignBandit:
    """Context +-1; reward +1 when the action's sign matches it, else -1.

    One step per episode; used to check the policy-gradient direction."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def reset(self):
        self.context = 1.0 if self.rng.integers(2) == 1 else -1.0
        return np.array([self.context])

    def step(self, action):
        reward = 1.0 if float(action[0]) * self.context > 0 else -1.0
        return SimpleNamespace(observation=self.reset(), reward=reward, done=True, info={})


def optimal_action_probability(net):
    """P(sign(action) == context), averaged over both contexts, closed form."""
    sigma = float(np.exp(net.effective_log_std()[0]))
    mu_pos = float(policy_mean(net, np.array([1.0]))[0])
    mu_neg = float(policy_mean(net, np.array([-1.0]))[0])

    def phi(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    return 0.5 * (phi(mu_pos / sigma) + phi(-mu_neg / sigma))


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
