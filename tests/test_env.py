import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ledger_oracle import oracle_episode
from shufflerl.env import (
    EnvConfig,
    EpisodeDoneError,
    PortfolioState,
    TradingEnv,
    decode_action,
    execute_trades,
    portfolio_value,
    run_episode,
)
from shufflerl.errors import DataError, InsufficientHistoryError, ShuffleRlError
from shufflerl.features import (
    FeatureLayout,
    apply_permutation,
    build_feature_vector,
    ticker_block_permutation,
)


def state(balance=0.0, holdings=(0,), day=0):
    return PortfolioState(balance=balance, holdings=np.array(holdings, dtype=np.int64), day_index=day)


def executed_deltas(env):
    """The share deltas of the last step: the change in the ledger's holdings columns."""
    before, after = env.trace[-2], env.trace[-1]
    return [after[f"holdings_{t}"] - before[f"holdings_{t}"] for t in env.dataset.tickers]


class TestEnvConfig:
    def test_defaults(self):
        cfg = EnvConfig()
        assert cfg.initial_balance == 1_000_000.0
        assert cfg.hmax == 100
        assert cfg.cost_rate == 0.001
        assert cfg.reward_scale == cfg.balance_scale == 1e-6
        assert cfg.window_length == 90

    def test_invalid(self):
        with pytest.raises(ShuffleRlError):
            EnvConfig(cost_rate=1.0)
        with pytest.raises(ShuffleRlError):
            EnvConfig(hmax=0)

    @pytest.mark.parametrize("field, value", [
        ("initial_balance", math.nan), ("initial_balance", 0.0), ("reward_scale", math.nan),
        ("reward_scale", -1e-6), ("balance_scale", math.nan), ("hmax", 0),
        ("turbulence_lookback", 0), ("turbulence_lookback", -5),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ShuffleRlError, match=f"^{field} must be"):
            EnvConfig(**{field: value})


class TestPortfolioValue:
    def test_zero_holdings(self):
        assert portfolio_value(state(balance=123.0, holdings=(0, 0)), np.array([10.0, 20.0])) == 123.0

    def test_hand_dot_product(self):
        # 100 + 1*10 + 2*20 = 150
        assert portfolio_value(state(100.0, (1, 2)), np.array([10.0, 20.0])) == 150.0

    def test_price_linearity(self):
        st_ = state(0.0, (3, 4))
        prices = np.array([10.0, 20.0])
        assert portfolio_value(st_, 2 * prices) == 2 * portfolio_value(st_, prices)

    def test_dimension_mismatch(self):
        with pytest.raises(ShuffleRlError):
            portfolio_value(state(0.0, (1,)), np.array([1.0, 2.0]))


class TestDecodeAction:
    def test_half_scale(self):
        assert decode_action(np.array([0.5]), 100).tolist() == [50]

    def test_zero(self):
        assert decode_action(np.array([0.0]), 100).tolist() == [0]

    def test_truncation_toward_zero(self):
        assert decode_action(np.array([-0.999]), 100).tolist() == [-99]
        assert decode_action(np.array([0.999]), 100).tolist() == [99]
        assert decode_action(np.array([-0.004]), 100).tolist() == [0]

    def test_out_of_range_clipped(self):
        assert decode_action(np.array([5.0, -3.0]), 100).tolist() == [100, -100]

    @given(st.floats(-10, 10, allow_nan=False), st.integers(1, 100))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_truncation(self, a, hmax):
        delta = int(decode_action(np.array([a]), hmax)[0])
        assert abs(delta) <= hmax
        clipped = min(max(a, -1.0), 1.0)
        assert delta == math.trunc(clipped * hmax)


class TestExecuteTrades:
    def test_sell_capped_at_holdings(self):
        new, fees, executed = execute_trades(
            state(0.0, (3,)), np.array([-10]), np.array([10.0]), cost_rate=0.0
        )
        assert executed.tolist() == [-3]
        assert new.holdings.tolist() == [0]
        assert new.balance == 30.0
        assert fees == 0.0

    def test_buy_ledger_hand_example(self):
        new, fees, executed = execute_trades(
            state(1000.0, (0,)), np.array([50]), np.array([10.0]), cost_rate=0.001
        )
        assert executed.tolist() == [50]
        assert new.holdings.tolist() == [50]
        assert new.balance == 1000.0 - 500.0 * 1.001  # 499.5 up to float rounding
        assert new.balance == pytest.approx(499.5, abs=1e-9)
        assert fees == pytest.approx(0.5, abs=1e-12)

    def test_affordability_cap(self):
        new, _, executed = execute_trades(
            state(100.0, (0,)), np.array([50]), np.array([10.0]), cost_rate=0.0
        )
        assert executed.tolist() == [10]
        assert new.balance == 0.0

    def test_sell_frees_cash_for_buy(self):
        # Selling ticker 0 first funds the ticker 1 purchase.
        new, _, executed = execute_trades(
            state(0.0, (5, 0)), np.array([-5, 4]), np.array([10.0, 10.0]), cost_rate=0.0
        )
        assert executed.tolist() == [-5, 4]
        assert new.holdings.tolist() == [0, 4]
        assert new.balance == 10.0

    def test_partial_fill_continues_to_later_tickers(self):
        new, _, executed = execute_trades(
            state(25.0, (0, 0)), np.array([2, 2]), np.array([10.0, 2.0]), cost_rate=0.0
        )
        assert executed.tolist() == [2, 2]
        assert new.balance == pytest.approx(1.0)

    def test_costs_accumulate(self):
        st0 = state(1000.0, (0,))
        st1, fees1, _ = execute_trades(st0, np.array([10]), np.array([10.0]), cost_rate=0.01)
        st2, fees2, _ = execute_trades(st1, np.array([-10]), np.array([10.0]), cost_rate=0.01)
        assert st2.trade_cost_accum == pytest.approx(fees1 + fees2)
        assert fees1 == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShuffleRlError):
            execute_trades(state(0.0, (0,)), np.array([1, 2]), np.array([10.0]), 0.0)

    def test_negative_state_impossible(self):
        with pytest.raises(ShuffleRlError):
            PortfolioState(balance=-1.0, holdings=np.array([0]), day_index=0)
        with pytest.raises(ShuffleRlError):
            PortfolioState(balance=0.0, holdings=np.array([-1]), day_index=0)


def small_config(**kwargs):
    defaults = dict(
        initial_balance=100.0,
        hmax=2,
        cost_rate=0.001,
        reward_scale=1.0,
        balance_scale=1.0,
        window_length=2,
        turbulence_lookback=None,
    )
    defaults.update(kwargs)
    return EnvConfig(**defaults)


class TestReset:
    def test_window_covers_initial_days(self):
        close = np.linspace(10, 19.9, 100).reshape(100, 1)
        dataset = make_dataset(close)
        env = TradingEnv(dataset, small_config(window_length=90))
        assert env.observation.rows.shape == (90, 18)
        np.testing.assert_array_equal(env.observation.rows[:, 1], close[:90, 0])
        assert env.state.day_index == 89

    def test_too_few_days(self):
        dataset = make_dataset(np.full((50, 1), 10.0))
        with pytest.raises(InsufficientHistoryError):
            TradingEnv(dataset, small_config(window_length=90))

    def test_wrong_permutation_length_rejected(self, toy_market):
        perm = ticker_block_permutation(FeatureLayout(3))  # 52 entries; two tickers give 35
        with pytest.raises(ShuffleRlError, match="permutation length 52 does not match feature total 35"):
            TradingEnv(toy_market, small_config(permutation=perm))

    def test_initial_value_is_balance(self, toy_market):
        env = TradingEnv(toy_market, small_config())
        assert portfolio_value(env.state, toy_market.close[env.state.day_index]) == 100.0


class TestStep:
    def test_zero_action_flat_prices_zero_reward(self, flat_market):
        env = TradingEnv(flat_market, small_config())
        result = env.step(np.zeros(2))
        assert result.reward == 0.0
        assert not result.done

    def test_hand_reward_value(self):
        # 100 shares into a 10 -> 11 move: (1100 - 1000) * 1e-6 = 1e-4
        close = np.array([[10.0], [11.0], [11.0]])
        dataset = make_dataset(close)
        cfg = EnvConfig(
            initial_balance=1000.0, hmax=100, cost_rate=0.0,
            reward_scale=1e-6, balance_scale=1e-6,
            window_length=1, turbulence_lookback=None,
        )
        env = TradingEnv(dataset, cfg)  # cursor at day 0, price 10
        result = env.step(np.array([1.0]))  # buy 100 at 10, mark to 11
        assert result.reward == pytest.approx(1e-4, rel=1e-12)
        assert env.state.holdings.tolist() == [100]

    def test_episode_ends_on_last_day(self, toy_market):
        env = TradingEnv(toy_market, small_config())
        for _ in range(3):
            result = env.step(np.zeros(2))
        assert result.done
        with pytest.raises(EpisodeDoneError):
            env.step(np.zeros(2))

    def test_full_episode_zero_actions(self, toy_market):
        env = TradingEnv(toy_market, small_config())
        while not env.done:
            env.step(np.zeros(2))
        assert env.state.balance == 100.0
        assert env.state.trade_cost_accum == 0.0
        assert env.state.holdings.tolist() == [0, 0]

    def test_ledger_row_contents(self, toy_market):
        env = TradingEnv(toy_market, small_config())
        env.step(np.array([1.0, 0.0]))
        row = env.trace[-1]
        assert env.state.day_index == 2
        assert executed_deltas(env) == [2, 0]
        assert row["costs"] > 0.0
        assert math.isnan(row["turbulence"])
        assert row["portfolio_value"] == pytest.approx(
            env.state.balance + float(np.dot(toy_market.close[2], env.state.holdings))
        )

    def test_reward_identity(self, toy_market):
        env = TradingEnv(toy_market, small_config(reward_scale=1e-6))
        rng = np.random.default_rng(0)
        while not env.done:
            result = env.step(rng.uniform(-1, 1, size=2))
            dv = env.trace[-1]["portfolio_value"] - env.trace[-2]["portfolio_value"]
            assert result.reward * 1e6 == pytest.approx(dv, rel=1e-9, abs=1e-15)

    def test_observation_no_lookahead(self, toy_market):
        env = TradingEnv(toy_market, small_config(window_length=3))
        rng = np.random.default_rng(1)
        k = 0
        while not env.done:
            env.step(rng.uniform(-1, 1, size=2))
            k += 1
            for r in range(3):
                day = k + r  # start 0, window 3: row r holds day start + k + r
                np.testing.assert_array_equal(env.observation.rows[r, 1:3], toy_market.close[day])

    def test_shuffled_observation(self, toy_market):
        perm = ticker_block_permutation(FeatureLayout(2))
        # Distinct ratio values, so that gathering any entry from the wrong
        # canonical index shows.
        ratios = 0.5 + np.arange(toy_market.ratios.size, dtype=np.float64)
        market = make_dataset(toy_market.close, ratios=ratios.reshape(toy_market.ratios.shape))
        shuffled = TradingEnv(market, small_config(permutation=perm))
        canonical = TradingEnv(market, small_config())
        canonical_last = build_feature_vector(
            balance=shuffled.state.balance,
            prices=market.close[1],
            holdings=shuffled.state.holdings,
            ratios=market.ratios[1],
            scale=1.0,
        )
        np.testing.assert_array_equal(shuffled.observation.rows[-1], apply_permutation(canonical_last, perm))

        rng = np.random.default_rng(11)
        traded = False
        while True:
            # Every row, including the portfolio columns of earlier days.
            np.testing.assert_array_equal(shuffled.observation.rows, canonical.observation.rows[:, perm.perm])
            if canonical.done:
                break
            action = rng.uniform(-1, 1, size=2)
            assert shuffled.step(action).done == canonical.step(action).done
            traded |= bool(np.any(canonical.state.holdings))
        assert shuffled.done and traded

    def test_turbulence_logged_when_available(self):
        close = 10.0 + np.cumsum(
            np.random.default_rng(3).normal(0, 0.05, size=(30, 1)), axis=0
        )
        dataset = make_dataset(np.abs(close) + 1.0)
        env = TradingEnv(dataset, small_config(turbulence_lookback=4, window_length=8))
        while not env.done:
            env.step(np.zeros(1))
        values = [row["turbulence"] for row in env.trace[1:]]
        assert all(np.isfinite(v) for v in values)  # cursor starts past the lookback
        assert all(v >= 0 for v in values)

    def test_short_dataset_logs_nan_turbulence(self):
        dataset = make_dataset(np.linspace(10.0, 12.0, 30).reshape(30, 1))
        env = TradingEnv(dataset, small_config(turbulence_lookback=40, window_length=8))
        env.step(np.zeros(1))
        assert math.isnan(env.trace[-1]["turbulence"])

    def test_lookback_too_small_for_tickers_raises(self, toy_market):
        # Two tickers need a lookback of at least D + 2 = 4.
        with pytest.raises(DataError, match="lookback 3 too small for 2 tickers"):
            TradingEnv(toy_market, small_config(turbulence_lookback=3))


class TestLedgerProperties:
    def test_constant_prices_zero_cost_conserves_value(self, flat_market):
        cfg = small_config(cost_rate=0.0)
        env = TradingEnv(flat_market, cfg)
        rng = np.random.default_rng(5)
        while not env.done:
            env.step(rng.uniform(-1, 1, size=2))
            assert env.trace[-1]["portfolio_value"] == pytest.approx(100.0, abs=1e-9)

    def test_cost_accounting_identity(self, toy_market):
        env = TradingEnv(toy_market, small_config(cost_rate=0.01))
        rng = np.random.default_rng(6)
        while not env.done:
            before = env.state
            day = before.day_index
            env.step(rng.uniform(-1, 1, size=2))
            # replay the executed trades with zero cost
            executed = executed_deltas(env)
            free_state, _, free_exec = execute_trades(
                before, executed, toy_market.close[day], cost_rate=0.0
            )
            np.testing.assert_array_equal(free_exec, executed)
            v_free = portfolio_value(free_state, toy_market.close[day + 1])
            v_paid = env.trace[-1]["portfolio_value"]
            assert v_paid == pytest.approx(v_free - env.trace[-1]["costs"], rel=1e-12)

    def test_fuzz_nonnegative(self, toy_market):
        rng = np.random.default_rng(7)
        cfg = small_config()
        env = TradingEnv(toy_market, cfg)
        for _ in range(300):
            env.reset()
            while not env.done:
                env.step(rng.uniform(-2, 2, size=2))
                assert env.state.balance >= 0.0
                assert np.all(env.state.holdings >= 0)

    def test_matches_independent_oracle_random_actions(self, toy_market):
        rng = np.random.default_rng(8)
        cfg = small_config()
        for _ in range(100):
            env = TradingEnv(toy_market, cfg)
            deltas_by_step = [rng.integers(-2, 3, size=2).tolist() for _ in range(3)]
            oracle = oracle_episode(
                prices_by_day=toy_market.close[1:].tolist(),
                deltas_by_step=deltas_by_step,
                initial_balance=100.0,
                cost_rate=0.001,
                reward_scale=1.0,
            )
            for k, deltas in enumerate(deltas_by_step):
                result = env.step(np.array(deltas) / cfg.hmax)
                expected = oracle[k]
                assert env.state.balance == pytest.approx(expected["balance"], rel=1e-12)
                assert env.state.holdings.tolist() == expected["holdings"]
                assert result.reward == pytest.approx(expected["reward"], rel=1e-12, abs=1e-12)
                assert env.state.trade_cost_accum == pytest.approx(expected["total_fees"], rel=1e-12)


class TestRunEpisode:
    def _uptrend(self):
        close = np.array([[10.0], [12.0], [20.0], [40.0]])
        return make_dataset(close)

    def _cfg(self):
        return EnvConfig(
            initial_balance=100.0, hmax=1, cost_rate=0.0, reward_scale=1.0,
            balance_scale=1.0, window_length=1, turbulence_lookback=None,
        )

    def _buy_once_policy(self):
        calls = {"n": 0}

        def policy(obs):
            calls["n"] += 1
            return np.array([1.0]) if calls["n"] == 1 else np.array([0.0])

        return policy

    def test_hand_discounted_return(self):
        # rewards (2, 8, 20): gamma 0.5 -> 2 + 4 + 5 = 11
        env = TradingEnv(self._uptrend(), self._cfg())
        discounted = run_episode(env, self._buy_once_policy(), gamma=0.5)
        assert [row["reward"] for row in env.trace[1:]] == pytest.approx([2.0, 8.0, 20.0])
        assert discounted == pytest.approx(11.0)
        assert [row["portfolio_value"] for row in env.trace] == pytest.approx([100.0, 102.0, 110.0, 130.0])

    def test_gamma_zero_keeps_first_reward(self):
        env = TradingEnv(self._uptrend(), self._cfg())
        assert run_episode(env, self._buy_once_policy(), gamma=0.0) == pytest.approx(2.0)

    def test_gamma_one_plain_sum(self):
        env = TradingEnv(self._uptrend(), self._cfg())
        assert run_episode(env, self._buy_once_policy(), gamma=1.0) == pytest.approx(30.0)
        assert float(sum(row["reward"] for row in env.trace[1:])) == pytest.approx(30.0)

    def test_bad_gamma(self):
        env = TradingEnv(self._uptrend(), self._cfg())
        with pytest.raises(ShuffleRlError):
            run_episode(env, self._buy_once_policy(), gamma=1.5)


class TestTrace:
    def test_csv_export(self, toy_market, tmp_path):
        env = TradingEnv(toy_market, small_config())
        while not env.done:
            env.step(np.array([0.9, -0.5]))
        path = tmp_path / "trace.csv"
        env.write_trace_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "day", "balance", "portfolio_value", "reward", "costs",
            "turbulence", "holdings_T00", "holdings_T01",
        ]
        assert len(lines) == 1 + 4  # reset row + 3 steps
