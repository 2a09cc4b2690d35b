"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible with ``pytest -s`` or on failure). Learning checks pin their
hyperparameters here; nothing is deferred to later calibration.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import SignBandit, invert_permutation, make_dataset, optimal_action_probability, row_stack
from ledger_oracle import oracle_episode
from shufflerl.cli import main as cli_main
from shufflerl.data import generate_synthetic_market
from shufflerl.env import EnvConfig, TradingEnv, run_episode
from shufflerl.features import (
    FeatureLayout,
    apply_permutation,
    build_feature_vector,
    ticker_block_permutation,
)
from shufflerl.metrics import sharpe_ratio
from shufflerl.nn import (
    ActorCritic,
    ArchSpec,
    BatchNorm2d,
    Conv2d,
    Linear,
    ReLU,
    Sequential,
    build_extractor,
    cnn_feature_shapes,
    grad_check,
    refresh_batch_norm,
)
from shufflerl.ppo import AgentSpec, PpoConfig, evaluate, train, train_on_env


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def within_ulps(a, b, n=1):
    if a == b:
        return True
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


def test_criterion_1_feature_accounting():
    layout = FeatureLayout(30)
    ok = layout.total == 511
    prices = 100.0 + np.arange(30)
    holdings = np.arange(30)
    ratios = np.arange(15 * 30, dtype=np.float64).reshape(15, 30)
    vec = build_feature_vector(1_000_000.0, prices, holdings, ratios, scale=1e-6)
    ok &= vec.shape == (511,)
    ok &= vec[0] == 1.0  # balance block, size 1
    ok &= np.array_equal(vec[1:31], prices)  # price block, size 30
    ok &= np.array_equal(vec[31:61], holdings)  # holdings block, size 30
    ok &= np.array_equal(vec[61:511], ratios.reshape(-1))  # ratio block, size 450
    for d in range(1, 41):
        ok &= FeatureLayout(d).total == 1 + 17 * d
    report("1 feature accounting: 511 = 1/30/30/450, total = 1+17D", ok)


def test_criterion_2_permutation_suite():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 41))
        layout = FeatureLayout(d)
        spec = ticker_block_permutation(layout)
        inverse = invert_permutation(spec)
        vec = rng.standard_normal(layout.total)
        shuffled = apply_permutation(vec, spec)
        back = apply_permutation(shuffled, inverse)
        ok &= np.array_equal(back, vec)  # round trip, exact
        ok &= np.array_equal(np.sort(shuffled), np.sort(vec))  # multiset
        positions = inverse.perm
        for i in range(d):
            block = sorted(
                [positions[layout.price_index(i)], positions[layout.holding_index(i)]]
                + [positions[layout.ratio_index(j, i)] for j in range(15)]
            )
            ok &= block == list(range(block[0], block[0] + 17))  # adjacency
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report("2 permutation suite: 1000 random D in [1,40]", ok, f"{elapsed:.2f}s < 5s")


TOY_CLOSE = np.array(
    [
        [10.0, 20.0],
        [11.0, 19.0],
        [9.5, 21.0],
        [12.0, 18.5],
        [10.5, 22.0],
    ]
)


def test_criterion_3_env_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    ok = True
    for d, hmax in itertools.product((1, 2), (1, 2)):
        dataset = make_dataset(TOY_CLOSE[:, :d])
        config = EnvConfig(
            initial_balance=50.0, hmax=hmax, cost_rate=0.001, reward_scale=1.0,
            balance_scale=1.0, window_length=2, turbulence_lookback=None,
        )
        env = TradingEnv(dataset, config)
        per_step = list(itertools.product(range(-hmax, hmax + 1), repeat=d))
        for sequence in itertools.product(per_step, repeat=3):
            env.reset()
            oracle = oracle_episode(
                prices_by_day=TOY_CLOSE[1:, :d].tolist(),
                deltas_by_step=[list(s) for s in sequence],
                initial_balance=50.0,
                cost_rate=0.001,
                reward_scale=1.0,
            )
            for k, deltas in enumerate(sequence):
                result = env.step(np.array(deltas, dtype=np.float64) / hmax)
                expected = oracle[k]
                ok &= within_ulps(env.state.balance, expected["balance"])
                ok &= env.state.holdings.tolist() == expected["holdings"]
                ok &= within_ulps(result.reward, expected["reward"])
                ok &= within_ulps(env.state.trade_cost_accum, expected["total_fees"])
                checked += 1
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(
        "3 env oracle equivalence: exhaustive D<=2, hmax<=2, 3 steps",
        ok,
        f"{checked} steps, {elapsed:.1f}s < 60s",
    )


def test_criterion_4_env_fuzz():
    dataset = generate_synthetic_market(seed=99, tickers=3, days=52, drift=0.0, volatility=0.03)
    config = EnvConfig(
        initial_balance=5000.0, hmax=10, cost_rate=0.001, reward_scale=1e-6,
        balance_scale=1e-6, window_length=2, turbulence_lookback=None,
    )
    env = TradingEnv(dataset, config)
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    steps = 0
    ok = True
    while steps < 100_000:
        env.reset()
        while not env.done and steps < 100_000:
            result = env.step(rng.uniform(-1.5, 1.5, size=3))
            steps += 1
            ok &= env.state.balance >= 0.0
            ok &= bool(np.all(env.state.holdings >= 0))
            dv = env.trace[-1]["portfolio_value"] - env.trace[-2]["portfolio_value"]
            descaled = result.reward / config.reward_scale
            ok &= abs(descaled - dv) <= 1e-9 * max(1.0, abs(dv))
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report("4 env fuzz: 1e5 random actions, nonnegativity + reward identity", ok,
           f"{steps} steps, {elapsed:.1f}s < 60s")


def test_criterion_5_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = {}

    def fd(layer_or_chain, x, params, seed):
        # Layers get copies of x and the projection, which a BatchNorm2d or
        # a ReLU overwrites.
        gen = np.random.default_rng(seed)
        if isinstance(layer_or_chain, Sequential):
            out, _ = layer_or_chain.forward(x.copy())
            projection = gen.standard_normal(out.shape)

            def compute():
                o, caches = layer_or_chain.forward(x.copy())
                loss = float((o * projection).sum())
                grads = layer_or_chain.backward(caches, projection.copy())
                return loss, grads

        else:
            out, _ = layer_or_chain.forward(x.copy())
            projection = gen.standard_normal(out.shape)

            def compute():
                o, cache = layer_or_chain.forward(x.copy())
                loss = float((o * projection).sum())
                dx, grads = layer_or_chain.backward(cache, projection.copy())
                grads = dict(grads)
                grads["__input__"] = dx
                return loss, grads

            params = params + [("__input__", x)]
        return grad_check(compute, params, max_entries_per_param=30)

    conv = Conv2d("conv", rng.standard_normal((3, 2, 3, 2)), rng.standard_normal(3), (2, 2))
    x = rng.standard_normal((2, 2, 7, 6))
    worst["conv"] = fd(conv, x, conv.params(), seed=50).max_rel_error

    bn = BatchNorm2d("bn", rng.uniform(0.5, 1.5, 3), rng.standard_normal(3))
    worst["batchnorm"] = fd(bn, rng.standard_normal((3, 3, 4, 4)), bn.params(), seed=51).max_rel_error

    linear = Linear("linear", rng.standard_normal((4, 6)), rng.standard_normal(4))
    worst["linear"] = fd(linear, rng.standard_normal((5, 6)), linear.params(), seed=52).max_rel_error

    chain = Sequential([
        Linear("fc1", rng.standard_normal((5, 4)), rng.standard_normal(5)),
        ReLU("relu1"),
        Linear("fc2", rng.standard_normal((3, 5)), rng.standard_normal(3)),
        ReLU("relu2"),
    ])
    chain_x = rng.standard_normal((4, 4)) + 0.4  # keep preactivations off the kinks
    worst["relu chain"] = fd(chain, chain_x, chain.params(), seed=53).max_rel_error

    arch = ArchSpec(kind="cnn", conv_channels=(3, 4), conv_kernels=((3, 3), (2, 2)),
                    conv_strides=((1, 1), (1, 1)), embed_dim=8)
    extractor = build_extractor(arch, (6, 8), np.random.default_rng(7))
    cnn_x = np.random.default_rng(8).standard_normal((2, 1, 6, 8))
    worst["full cnn extractor"] = fd(extractor, cnn_x, extractor.params(), seed=54).max_rel_error

    elapsed = time.perf_counter() - start
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 120.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f"; {elapsed:.1f}s < 120s"
    report("5 gradient checks: every layer + full CNN within 1e-4", ok, detail)


def test_criterion_6_batchnorm_statistics():
    layer = BatchNorm2d("bn", np.ones(4), np.zeros(4))
    x = np.random.default_rng(6).standard_normal((8, 4, 6, 6)) * 2.5 + 1.7
    refresh_batch_norm(Sequential([layer]), *row_stack(x), 6)
    out, _ = layer.forward(x)
    mean = out.mean(axis=(0, 2, 3))
    var = out.var(axis=(0, 2, 3))
    ok = bool(np.all(np.abs(mean) < 1e-5) and np.all(np.abs(var - 1.0) < 1e-5))
    report("6 batch-norm statistics: |mean| < 1e-5, |var-1| < 1e-5", ok,
           f"max|mean|={np.abs(mean).max():.2e}, max|var-1|={np.abs(var-1).max():.2e}")


def test_criterion_7_shape_contract():
    arch = ArchSpec()
    shapes = cnn_feature_shapes(arch, (90, 511))
    ok = shapes == [(16, 21, 126), (32, 9, 62)]
    extractor = build_extractor(arch, (90, 511), np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((1, 1, 90, 511))
    conv1_out, _ = extractor.layers[0].forward(x)
    ok &= conv1_out.shape == (1, 16, 21, 126)
    h = x
    for layer in extractor.layers[:4]:
        h, _ = layer.forward(h)
    ok &= h.shape == (1, 32, 9, 62)
    embedding, _ = extractor.forward(x)
    ok &= embedding.shape == (1, 256)
    report("7 shape contract: (1,1,90,511) -> (16,21,126) -> (32,9,62) -> 256", ok)


def test_criterion_8_ppo_bandit():
    start = time.perf_counter()
    probs = []
    for seed in (0, 1, 2):
        config = PpoConfig(
            gamma=0.0, gae_lambda=1.0, learning_rate=0.01, rollout_length=128,
            minibatch_size=64, epochs_per_update=4, entropy_coef=0.0,
            total_timesteps=128 * 200, seed=seed,
        )
        result = train_on_env(SignBandit(seed + 100), (1,), 1,
                              ArchSpec(kind="mlp", mlp_hidden=(16,)), config)
        probs.append(optimal_action_probability(result.net))
    elapsed = time.perf_counter() - start
    ok = all(p >= 0.9 for p in probs) and elapsed < 300.0
    report("8 PPO bandit: P(optimal) >= 0.9 within 200 updates, 3/3 seeds", ok,
           f"probs={[f'{p:.3f}' for p in probs]}, {elapsed:.0f}s < 300s")


def buy_and_hold_oracle_reward(days, window, drift, balance, hmax, cost, scale):
    """Closed-form uptrend prices + greedy max-buy ledger, independent of the env."""
    prices = [100.0 * (1.0 + drift) ** t for t in range(days)]
    holdings = 0
    cash = balance
    value_start = cash
    for k in range(window - 1, days - 1):
        price = prices[k]
        qty = hmax
        while qty > 0 and qty * price * (1.0 + cost) > cash:
            qty -= 1
        cash -= qty * price * (1.0 + cost)
        holdings += qty
    return (cash + holdings * prices[days - 1] - value_start) * scale


def test_criterion_9_ppo_trading_uptrend():
    start = time.perf_counter()
    days, window, drift = 300, 10, 0.002
    dataset = generate_synthetic_market(seed=0, tickers=1, days=days, drift=drift, volatility=0.0)
    env_config = EnvConfig(window_length=window, turbulence_lookback=None)
    oracle = buy_and_hold_oracle_reward(
        days, window, drift, env_config.initial_balance, env_config.hmax,
        env_config.cost_rate, env_config.reward_scale,
    )
    arch = ArchSpec(kind="cnn", conv_channels=(4, 8), conv_kernels=((3, 5), (2, 3)),
                    conv_strides=((2, 2), (1, 2)), embed_dim=32)
    fractions = []
    for seed in (0, 1, 2):
        config = PpoConfig(rollout_length=512, minibatch_size=64, epochs_per_update=10,
                           learning_rate=3e-4, total_timesteps=512 * 35, seed=seed)
        result = train(dataset, env_config, AgentSpec(kind="cnn", arch=arch), config)
        rep, _ = evaluate(result.net, dataset, env_config)
        fractions.append(rep.cumulative_reward / oracle)
    elapsed = time.perf_counter() - start
    passing = sum(f >= 0.9 for f in fractions)
    ok = passing >= 2 and elapsed < 900.0
    report("9 PPO trading: CNN >= 90% of buy-and-hold on uptrend, 2/3 seeds", ok,
           f"fractions={[f'{f:.3f}' for f in fractions]}, {elapsed:.0f}s < 900s")


def test_criterion_10_comparison_harness(tmp_path):
    start = time.perf_counter()
    archive_dir = tmp_path / "market"
    rc = cli_main(["synth", "--seed", "12", "--tickers", "4", "--days", "60",
                   "--drift", "0.001", "--volatility", "0.015", "--out", str(archive_dir)])
    assert rc == 0
    cnn_arch = {"conv_channels": [3, 4], "conv_kernels": [[3, 5], [2, 3]],
                "conv_strides": [[2, 2], [1, 2]], "embed_dim": 16}
    config = {
        "dataset": {"source": "archive", "path": str(archive_dir)},
        "env": {"window_length": 8, "turbulence_lookback": None},
        "ppo": {"total_timesteps": 128, "rollout_length": 64, "minibatch_size": 32,
                "epochs_per_update": 2},
        "agents": [
            {"kind": "mlp", "arch": {"mlp_hidden": [16, 16]}},
            {"kind": "cnn", "arch": cnn_arch},
            {"kind": "cnn-shuffled", "arch": cnn_arch},
        ],
        "seeds": [0, 1],
        "out": str(tmp_path / "cmp"),
    }
    config_path = tmp_path / "compare.json"
    config_path.write_text(json.dumps(config))
    rc = cli_main(["compare", "--config", str(config_path)])
    ok = rc == 0
    out_dir = tmp_path / "cmp"
    with open(out_dir / "curves.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    ok &= rows[0] == ["agent", "seed", "timestep", "episode", "reward"]
    ok &= {r[0] for r in rows[1:]} == {"mlp", "cnn", "cnn-shuffled"}
    ok &= {r[1] for r in rows[1:]} == {"0", "1"}
    with open(out_dir / "table.csv", newline="") as handle:
        table_rows = list(csv.reader(handle))
    ok &= len(table_rows) == 1 + 6  # three agents x two shared seeds
    ok &= (out_dir / "curves_aligned.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    ok &= len(manifest["runs"]) == 6
    ok &= "cnn-shuffled" in manifest["permutations"]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1800.0
    report("10 comparison harness: three agents, shared seeds, aligned CSVs", ok,
           f"{elapsed:.0f}s < 1800s")


def test_criterion_11_metrics_oracles():
    # Sharpe: frozen from the independent statistics script.
    sharpe = sharpe_ratio([0.01, -0.01, 0.02, 0.00], risk_free=0.0, annualization=252.0)
    ok = abs(sharpe - 6.148170459575759) <= 1e-12 * abs(sharpe)

    # Discounted return on hand reward sequences, gamma^(d-1) convention.
    # Prices 10 -> 11 -> 13 with one share bought at step 1, zero cost:
    # rewards are exactly (1.0, 2.0); gamma 0.5 gives 1 + 0.5*2 = 2.0.
    dataset = make_dataset(np.array([[10.0], [11.0], [13.0]]))
    config = EnvConfig(initial_balance=100.0, hmax=1, cost_rate=0.0, reward_scale=1.0,
                       balance_scale=1.0, window_length=1, turbulence_lookback=None)
    calls = {"n": 0}

    def buy_once(obs):
        calls["n"] += 1
        return np.array([1.0]) if calls["n"] == 1 else np.array([0.0])

    env = TradingEnv(dataset, config)
    discounted = run_episode(env, buy_once, gamma=0.5)
    ok &= [row["reward"] for row in env.trace[1:]] == [1.0, 2.0]
    ok &= discounted == 2.0

    # second hand sequence: gamma 1 plain sum; gamma 0 keeps the first reward
    calls["n"] = 0
    ok &= run_episode(TradingEnv(dataset, config), buy_once, gamma=1.0) == 3.0
    calls["n"] = 0
    ok &= run_episode(TradingEnv(dataset, config), buy_once, gamma=0.0) == 1.0
    report("11 metrics: Sharpe vs oracle at 1e-12; discounted return exact", ok,
           f"sharpe={sharpe!r}")


def test_criterion_12_determinism(tmp_path):
    archive_dir = tmp_path / "market"
    cli_main(["synth", "--seed", "3", "--tickers", "2", "--days", "40", "--out", str(archive_dir)])
    config = {
        "dataset": {"source": "archive", "path": str(archive_dir)},
        "env": {"window_length": 5, "turbulence_lookback": None},
        "ppo": {"total_timesteps": 64, "rollout_length": 32, "minibatch_size": 16,
                "epochs_per_update": 2},
        "agent": {"kind": "cnn-shuffled",
                  "arch": {"conv_channels": [2, 2], "conv_kernels": [[2, 4], [2, 4]],
                           "conv_strides": [[1, 2], [1, 2]], "embed_dim": 4}},
        "seeds": [0],
    }
    digests = []
    for name in ("run_a", "run_b"):
        config_path = tmp_path / f"{name}.json"
        config["out"] = str(tmp_path / name)
        config_path.write_text(json.dumps(config))
        rc = cli_main(["train", "--config", str(config_path)])
        assert rc == 0
        run = tmp_path / name / "runs" / "cnn-shuffled-seed0"
        digests.append(
            (
                (run / "curve.csv").read_bytes(),
                (run / "checkpoint" / "params.bin").read_bytes(),
                (run / "checkpoint" / "manifest.json").read_bytes(),
            )
        )
    ok = digests[0] == digests[1]
    report("12 determinism: rerun gives byte-identical curves and checkpoints", ok)
