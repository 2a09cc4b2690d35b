"""Performance metrics over daily portfolio-value series, plus the
multi-run comparison table.

Defaults follow daily-data convention: sqrt(252) annualization, zero
risk-free rate, and the sample (n-1) standard deviation. All are explicit
arguments because each silently shifts the metric.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shufflerl.data import render_csv
from shufflerl.errors import ShuffleRlError, UndefinedMetricError

TRADING_DAYS_PER_YEAR = 252.0


def daily_returns(series) -> np.ndarray:
    """Simple returns ``v_t / v_{t-1} - 1`` of a daily value series."""
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ShuffleRlError(f"need a 1-D series of length >= 2, got shape {values.shape}")
    if not np.all(values > 0):
        raise ShuffleRlError("value series must be strictly positive")
    return values[1:] / values[:-1] - 1.0


def sharpe_ratio(
    returns,
    risk_free: float = 0.0,
    annualization: float = TRADING_DAYS_PER_YEAR,
) -> float:
    """Risk-adjusted return: sqrt(annualization) * (mean - rf) / sample std.

    ``risk_free`` is a per-period rate. Zero return variance makes the
    ratio undefined and raises.
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.ndim != 1 or r.shape[0] < 2:
        raise ShuffleRlError(f"need >= 2 returns, got shape {r.shape}")
    std = float(r.std(ddof=1))
    if std == 0.0:
        raise UndefinedMetricError("zero return variance: Sharpe ratio is undefined")
    return math.sqrt(annualization) * (float(r.mean()) - risk_free) / std


def cumulative_return(series) -> float:
    """Fractional growth from the first to the last value."""
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 1:
        raise ShuffleRlError(f"need a non-empty 1-D series, got shape {values.shape}")
    return float(values[-1] / values[0] - 1.0)


@dataclass(frozen=True)
class MetricsReport:
    sharpe_annualized: float | None
    sharpe_raw: float | None
    cumulative_return: float
    total_costs: float
    max_value: float
    min_value: float
    n_days: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def metrics_report(series, total_costs: float = 0.0, risk_free: float = 0.0) -> MetricsReport:
    values = np.asarray(series, dtype=np.float64)
    try:
        rets = daily_returns(values)
        sharpe_ann = sharpe_ratio(rets, risk_free)
        sharpe_raw = sharpe_ratio(rets, risk_free, annualization=1.0)
    except UndefinedMetricError:
        sharpe_ann = None
        sharpe_raw = None
    return MetricsReport(
        sharpe_annualized=sharpe_ann,
        sharpe_raw=sharpe_raw,
        cumulative_return=cumulative_return(values),
        total_costs=total_costs,
        max_value=float(values.max()),
        min_value=float(values.min()),
        n_days=int(values.shape[0]),
    )


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    final_reward: float
    mean_reward: float
    peak_reward: float
    n_points: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: list[ComparisonRow]
    pairwise_final_diff: dict[str, float]  # "a-b" -> final(a) - final(b)

    def format(self) -> str:
        width = max(len(r.label) for r in self.rows)
        lines = [f"{'label'.ljust(width)}  {'final':>14}  {'mean':>14}  {'peak':>14}"]
        for r in self.rows:
            lines.append(
                f"{r.label.ljust(width)}  {r.final_reward:>14.6g}  {r.mean_reward:>14.6g}  {r.peak_reward:>14.6g}"
            )
        return "\n".join(lines)


def compare_runs(curves: dict[str, list[tuple[int, float]]]) -> ComparisonTable:
    """Summarize labeled reward curves of (timestep, reward) points.

    Rows are ordered by final reward, descending; pairwise entries report
    differences of final rewards.
    """
    if len(curves) < 2:
        raise ShuffleRlError(f"need at least 2 curves to compare, got {len(curves)}")
    rows = []
    for label, points in curves.items():
        if not points:
            raise ShuffleRlError(f"curve {label!r} is empty")
        ordered = sorted(points, key=lambda p: p[0])
        rewards = np.array([r for _, r in ordered], dtype=np.float64)
        rows.append(
            ComparisonRow(
                label=label,
                final_reward=float(rewards[-1]),
                mean_reward=float(rewards.mean()),
                peak_reward=float(rewards.max()),
                n_points=len(rewards),
            )
        )
    rows.sort(key=lambda r: r.final_reward, reverse=True)
    pairwise = {}
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            pairwise[f"{a.label}-{b.label}"] = a.final_reward - b.final_reward
    return ComparisonTable(rows, pairwise)


def write_aligned_curves_csv(curves: dict[str, list[tuple[int, float]]], path) -> None:
    """Long-format ``label,timestep,reward`` CSV for external plotting:
    labels sorted, each curve's points by timestep."""
    rows = ((label, *point) for label in sorted(curves) for point in sorted(curves[label], key=lambda p: p[0]))
    Path(path).write_bytes(render_csv(["label", "timestep", "reward"], rows))
