"""The portfolio MDP.

One step: value the portfolio at the current day's closing prices, execute
the decoded trades at those same prices (sells first, then buys, both in
ticker order), advance one day, value again at the new prices, and emit the
value change (scaled) as the reward together with the slid window
observation. Balance and holdings can never go negative: sells cap at
current holdings, buys at affordability.

``TradingEnv.trace`` is the episode's one record: ``reset`` writes the
ledger row of the start day, ``window_length - 1`` (the first window holds
days ``0 .. window_length - 1``), and every ``step`` appends the new day's
(date, balance, portfolio value, reward, fees, turbulence, holdings).
``step`` itself returns only the observation, the reward and the done flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from shufflerl.data import MarketDataset, check_turbulence_lookback, compute_turbulence, render_csv
from shufflerl.errors import EpisodeDoneError, InsufficientHistoryError, ShuffleRlError
from shufflerl.features import (
    FeatureLayout,
    PermutationSpec,
    WindowMatrix,
    apply_permutation,
    build_feature_vector,
    slide_window,
)


@dataclass(frozen=True)
class EnvConfig:
    initial_balance: float = 1_000_000.0
    hmax: int = 100
    cost_rate: float = 0.001
    reward_scale: float = 1e-6
    balance_scale: float = 1e-6
    window_length: int = 90
    # The only layout switch: None keeps the canonical layout, a permutation
    # gathers every daily row through it (the shuffled agent's layout).
    permutation: PermutationSpec | None = None
    # Lookback for the logged turbulence index; None disables it. The index
    # is monitoring-only and never gates trades.
    turbulence_lookback: int | None = 252

    def __post_init__(self):
        # Written as `not (x > 0)` so that NaN, which JSON configs can hold,
        # fails too.
        for name in ("initial_balance", "reward_scale", "balance_scale"):
            if not getattr(self, name) > 0:
                raise ShuffleRlError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.hmax < 1:
            raise ShuffleRlError(f"hmax must be >= 1, got {self.hmax}")
        if not 0 <= self.cost_rate < 1:
            raise ShuffleRlError(f"cost_rate must be in [0, 1), got {self.cost_rate}")
        if self.window_length < 1:
            raise ShuffleRlError(f"window_length must be >= 1, got {self.window_length}")
        if self.turbulence_lookback is not None and self.turbulence_lookback < 1:
            raise ShuffleRlError(f"turbulence_lookback must be None or >= 1, got {self.turbulence_lookback}")

    def check_history(self, dataset: MarketDataset) -> None:
        """Raise unless ``dataset`` has a day past the first window and the
        turbulence lookback suits its ticker count."""
        if self.window_length >= dataset.n_days:
            raise InsufficientHistoryError(
                f"need window_length < n_days: {self.window_length} >= {dataset.n_days}"
            )
        if self.turbulence_lookback is not None:
            check_turbulence_lookback(self.turbulence_lookback, dataset.ticker_count)


@dataclass(frozen=True)
class PortfolioState:
    """Cash, integer share holdings, day cursor, and accumulated fees."""

    balance: float
    holdings: np.ndarray
    day_index: int
    trade_cost_accum: float = 0.0

    def __post_init__(self):
        holdings = np.asarray(self.holdings, dtype=np.int64)
        object.__setattr__(self, "holdings", holdings)
        if self.balance < 0:
            raise ShuffleRlError(f"balance went negative: {self.balance}")
        if np.any(holdings < 0):
            raise ShuffleRlError(f"holdings went negative: {holdings}")


@dataclass(frozen=True)
class StepResult:
    observation: WindowMatrix
    reward: float
    done: bool


def portfolio_value(state: PortfolioState, prices: np.ndarray) -> float:
    """Cash plus the mark-to-market value of all holdings."""
    prices = np.asarray(prices, dtype=np.float64)
    if prices.shape != state.holdings.shape:
        raise ShuffleRlError(f"price/holding shape mismatch: {prices.shape} vs {state.holdings.shape}")
    if not np.all(prices > 0):
        raise ShuffleRlError("prices must be strictly positive")
    return state.balance + float(np.dot(prices, state.holdings))


def decode_action(action: np.ndarray, hmax: int) -> np.ndarray:
    """Map policy outputs in [-1, 1] to integer share deltas in [-hmax, hmax].

    Out-of-range components are clipped silently (policies emit unbounded
    Gaussian samples); fractions truncate toward zero since holdings are
    whole shares. Negative means sell.
    """
    clipped = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    return np.trunc(clipped * hmax).astype(np.int64)


def _affordable(quantity: int, price: float, cost_rate: float, balance: float) -> bool:
    return quantity * price * (1.0 + cost_rate) <= balance


def execute_trades(
    state: PortfolioState,
    deltas: np.ndarray,
    prices: np.ndarray,
    cost_rate: float,
) -> tuple[PortfolioState, float, np.ndarray]:
    """Apply integer share deltas at the given prices.

    Sells run first in ticker-index order, each capped at current holdings
    and crediting ``shares * price * (1 - cost_rate)``. Buys then run in
    ticker-index order, each capped at the largest affordable quantity
    (``q * price * (1 + cost_rate) <= balance``); a partially filled buy
    does not stop later tickers from spending what remains.

    Returns the new state, the fees paid this call, and the executed deltas.
    """
    deltas = np.asarray(deltas, dtype=np.int64)
    prices = np.asarray(prices, dtype=np.float64)
    d = state.holdings.shape[0]
    if deltas.shape != (d,) or prices.shape != (d,):
        raise ShuffleRlError(f"expected {d} deltas and prices, got {deltas.shape} and {prices.shape}")

    balance = state.balance
    holdings = state.holdings.copy()
    executed = np.zeros(d, dtype=np.int64)
    fees = 0.0

    for i in range(d):
        if deltas[i] < 0:
            qty = min(int(-deltas[i]), int(holdings[i]))
            if qty == 0:
                continue
            gross = qty * float(prices[i])
            balance += gross * (1.0 - cost_rate)
            fees += gross * cost_rate
            holdings[i] -= qty
            executed[i] = -qty

    for i in range(d):
        if deltas[i] > 0:
            price = float(prices[i])
            unit = price * (1.0 + cost_rate)
            qty = min(int(deltas[i]), int(balance / unit))
            while qty > 0 and not _affordable(qty, price, cost_rate, balance):
                qty -= 1
            if qty == 0:
                continue
            gross = qty * price
            balance -= gross * (1.0 + cost_rate)
            fees += gross * cost_rate
            holdings[i] += qty
            executed[i] = qty

    new_state = PortfolioState(
        balance=balance,
        holdings=holdings,
        day_index=state.day_index,
        trade_cost_accum=state.trade_cost_accum + fees,
    )
    return new_state, fees, executed


class TradingEnv:
    """Single-episode trading environment over an immutable dataset.

    A handle owns a mutable cursor and is single-threaded; independent
    handles over the same dataset may run in parallel. ``reset`` restarts
    the same episode (day 0's window, fresh portfolio).
    """

    def __init__(self, dataset: MarketDataset, config: EnvConfig):
        config.check_history(dataset)
        self.layout = FeatureLayout(dataset.ticker_count)
        if config.permutation is not None and len(config.permutation) != self.layout.total:
            raise ShuffleRlError(
                f"permutation length {len(config.permutation)} does not match "
                f"feature total {self.layout.total}"
            )
        self.dataset = dataset
        self.config = config
        self._turbulence = self._compute_turbulence()
        self.reset()

    def _compute_turbulence(self) -> np.ndarray:
        lookback = self.config.turbulence_lookback
        if lookback is None:
            return np.full(self.dataset.n_days, np.nan)
        try:
            return compute_turbulence(self.dataset, lookback)
        except InsufficientHistoryError:
            # Monitoring only: short datasets log NaN instead of failing.
            # check_history has already rejected a lookback too small for
            # the ticker count.
            return np.full(self.dataset.n_days, np.nan)

    def _day_vector(self, day: int) -> np.ndarray:
        vector = build_feature_vector(
            balance=self.state.balance,
            prices=self.dataset.close[day],
            holdings=self.state.holdings,
            ratios=self.dataset.ratios[day],
            scale=self.config.balance_scale,
            layout=self.layout,
        )
        if self.config.permutation is not None:
            vector = apply_permutation(vector, self.config.permutation)
        return vector

    def reset(self) -> WindowMatrix:
        cfg = self.config
        self.state = PortfolioState(
            balance=cfg.initial_balance,
            holdings=np.zeros(self.dataset.ticker_count, dtype=np.int64),
            day_index=cfg.window_length - 1,
        )
        self.done = False
        self.trace: list[dict] = []
        self.observation = WindowMatrix(np.stack([self._day_vector(day) for day in range(cfg.window_length)]))
        self._record_trace(portfolio_value(self.state, self.dataset.close[self.state.day_index]), 0.0, 0.0)
        return self.observation

    def _record_trace(self, value: float, reward: float, costs: float) -> None:
        """Append the ledger row of the current day, whose portfolio value is ``value``."""
        day = self.state.day_index
        row = {
            "day": self.dataset.days[day].isoformat(),
            "balance": self.state.balance,
            "portfolio_value": value,
            "reward": reward,
            "costs": costs,
            "turbulence": float(self._turbulence[day]),
        }
        for i, t in enumerate(self.dataset.tickers):
            row[f"holdings_{t}"] = int(self.state.holdings[i])
        self.trace.append(row)

    def step(self, action: np.ndarray) -> StepResult:
        if self.done:
            raise EpisodeDoneError("episode is over; call reset() first")
        cfg = self.config
        day = self.state.day_index
        prices = self.dataset.close[day]

        value_before = self.trace[-1]["portfolio_value"]  # today's row, same state and prices
        deltas = decode_action(action, cfg.hmax)
        self.state, costs, _ = execute_trades(self.state, deltas, prices, cfg.cost_rate)

        new_day = day + 1
        self.state = replace(self.state, day_index=new_day)
        new_prices = self.dataset.close[new_day]
        value_after = portfolio_value(self.state, new_prices)
        reward = (value_after - value_before) * cfg.reward_scale

        self.observation = slide_window(self.observation, self._day_vector(new_day))
        self.done = new_day == self.dataset.n_days - 1
        self._record_trace(value_after, reward, costs)
        return StepResult(self.observation, reward, self.done)

    @property
    def steps_remaining(self) -> int:
        return self.dataset.n_days - 1 - self.state.day_index

    def write_trace_csv(self, path) -> None:
        """The ledger as CSV: one column per ``trace`` key, one row per day."""
        Path(path).write_bytes(render_csv(list(self.trace[0]), (row.values() for row in self.trace)))


def run_episode(env: TradingEnv, policy, gamma: float) -> float:
    """Roll one full episode under ``policy`` (a map observation -> action)
    and return its discounted return; ``env.trace`` holds the episode.

    The discounted return weights the d-th reward by ``gamma**(d-1)``, so
    the first reward always counts in full.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ShuffleRlError(f"gamma must be in [0, 1], got {gamma}")
    obs = env.reset()
    while not env.done:
        obs = env.step(policy(obs)).observation
    discounted = 0.0
    weight = 1.0
    for row in env.trace[1:]:
        discounted += weight * row["reward"]
        weight *= gamma
    return discounted
