import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import SignBandit, make_dataset, optimal_action_probability, row_stack
from shufflerl import ppo
from shufflerl.data import generate_synthetic_market
from shufflerl.env import EnvConfig, TradingEnv
from shufflerl.errors import ConfigError, NonFiniteError, ShuffleRlError
from shufflerl.nn import ActorCritic, ArchSpec, WindowStream, grad_check
from shufflerl.ppo import (
    _ADAM_CHUNK,
    Adam,
    AgentSpec,
    PpoConfig,
    RolloutBuffer,
    clip_grad_norm,
    compute_gae,
    evaluate,
    gaussian_log_prob,
    make_env_config,
    policy_mean,
    ppo_loss_and_grads,
    sample_action,
    train,
    train_on_env,
    update,
)
from shufflerl.runconfig import parse_run_config

MLP_ARCH = ArchSpec(kind="mlp", mlp_hidden=(8, 8))
TOY_CNN_ARCH = ArchSpec(kind="cnn", conv_channels=(2, 2), conv_kernels=((2, 4), (2, 4)),
                        conv_strides=((1, 2), (1, 2)), embed_dim=4)


class WholeTensorAdam:
    """Reference: the Adam update as one whole-tensor expression per step."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {name: np.zeros_like(p) for name, p in params}
        self.v = {name: np.zeros_like(p) for name, p in params}
        self.t = 0

    def step(self, grads):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name, param in self.params:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            param -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


class TestConfig:
    def test_defaults(self):
        cfg = PpoConfig()
        assert cfg.gamma == 0.99
        assert cfg.gae_lambda == 0.95
        assert cfg.clip_epsilon == 0.2
        assert cfg.learning_rate == 3e-4
        assert cfg.rollout_length == 2048
        assert cfg.minibatch_size == 64
        assert cfg.epochs_per_update == 10
        assert cfg.value_coef == 0.5
        assert cfg.entropy_coef == 0.0
        assert cfg.max_grad_norm == 0.5

    def test_invalid(self):
        with pytest.raises(ShuffleRlError):
            PpoConfig(gamma=1.5)
        with pytest.raises(ShuffleRlError):
            PpoConfig(clip_epsilon=0.0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -3e-4), ("learning_rate", 0.0), ("learning_rate", math.nan), ("max_grad_norm", -0.5),
        ("max_grad_norm", 0.0), ("max_grad_norm", math.nan), ("value_coef", -0.5), ("value_coef", math.nan),
        ("clip_epsilon", math.nan), ("total_timesteps", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ShuffleRlError, match=field):
            PpoConfig(**{field: value})
        with pytest.raises(ConfigError, match=f"^ppo: {field} must be"):
            parse_run_config({"dataset": {"source": "synthetic"}, "ppo": {field: value}})

    def test_agent_spec_layouts(self):
        # The permutation is the only layout switch; None is the canonical layout.
        base = EnvConfig(window_length=5, turbulence_lookback=None)
        assert make_env_config(base, AgentSpec(kind="mlp"), ticker_count=3).permutation is None
        assert make_env_config(base, AgentSpec(kind="cnn"), ticker_count=3).permutation is None
        assert make_env_config(base, AgentSpec(kind="cnn-shuffled"), ticker_count=3).permutation is not None
        with pytest.raises(ShuffleRlError):
            AgentSpec(kind="dqn")
        with pytest.raises(ShuffleRlError):
            AgentSpec(kind="cnn", arch=ArchSpec(kind="mlp"))

    def test_make_env_config_builds_permutation(self):
        base = EnvConfig(window_length=5, turbulence_lookback=None)
        shuffled = make_env_config(base, AgentSpec(kind="cnn-shuffled"), ticker_count=3)
        assert len(shuffled.permutation) == 1 + 17 * 3
        canonical = make_env_config(base, AgentSpec(kind="cnn"), ticker_count=3)
        assert canonical.permutation is None


class TestGaussian:
    def test_log_prob_matches_scipy(self):
        mu = np.array([[0.3, -1.2]])
        log_std = np.array([math.log(0.5), math.log(2.0)])
        x = np.array([[0.1, 0.4]])
        ours = gaussian_log_prob(x, mu, log_std)[0]
        expected = stats.norm.logpdf(0.1, 0.3, 0.5) + stats.norm.logpdf(0.4, -1.2, 2.0)
        assert ours == pytest.approx(expected, rel=1e-12)

    def test_tiny_std_sticks_to_mean(self):
        arch = ArchSpec(kind="mlp", mlp_hidden=(4,), log_std_init=math.log(1e-9),
                        log_std_bounds=(-25.0, 2.0))
        net = ActorCritic(arch, (3,), 2, seed=0)
        obs = np.array([0.5, -0.5, 1.0])
        mu = policy_mean(net, obs)
        action, _, _ = sample_action(WindowStream(net), obs, np.random.default_rng(1))
        np.testing.assert_allclose(action, mu, atol=1e-7)

    def test_fixed_seed_reproducible_sequence(self):
        net = ActorCritic(MLP_ARCH, (3,), 2, seed=0)
        obs = np.array([1.0, 2.0, 3.0])
        a = [sample_action(WindowStream(net), obs, np.random.default_rng(7))[0] for _ in range(3)]
        b = [sample_action(WindowStream(net), obs, np.random.default_rng(7))[0] for _ in range(3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestGae:
    def test_lambda_zero_gives_deltas(self):
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([0.5, 0.2, 0.1])
        dones = np.zeros(3, dtype=bool)
        adv, rets = compute_gae(rewards, values, dones, bootstrap_value=0.4, gamma=0.9, lam=0.0)
        deltas = np.array([
            1.0 + 0.9 * 0.2 - 0.5,
            2.0 + 0.9 * 0.1 - 0.2,
            3.0 + 0.9 * 0.4 - 0.1,
        ])
        np.testing.assert_allclose(adv, deltas, rtol=1e-12)
        np.testing.assert_allclose(rets, deltas + values, rtol=1e-12)

    def test_single_step_unit(self):
        adv, _ = compute_gae(np.array([1.0]), np.array([0.0]), np.array([False]), 0.0, 1.0, 1.0)
        assert adv[0] == 1.0

    def test_hand_recursion_two_steps(self):
        # gamma .5, lambda .5, r=(1,2), v=(0,0), bootstrap 0:
        # delta = (1, 2); A_2 = 2; A_1 = 1 + .25*2 = 1.5
        adv, rets = compute_gae(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2, bool), 0.0, 0.5, 0.5)
        np.testing.assert_allclose(adv, [1.5, 2.0], rtol=1e-12)
        np.testing.assert_allclose(rets, [1.5, 2.0], rtol=1e-12)

    def test_done_stops_propagation(self):
        adv, _ = compute_gae(
            np.array([1.0, 5.0]), np.zeros(2), np.array([True, False]), 9.0, 0.9, 0.9
        )
        assert adv[0] == 1.0  # nothing leaks across the boundary

    def test_lambda_one_reduces_to_discounted_return(self):
        rng = np.random.default_rng(3)
        rewards = rng.standard_normal(20)
        gamma = 0.95
        adv, _ = compute_gae(rewards, np.zeros(20), np.zeros(20, bool), 0.0, gamma, 1.0)
        # independent direct-sum oracle
        expected = [sum(gamma ** (k - t) * rewards[k] for k in range(t, 20)) for t in range(20)]
        np.testing.assert_allclose(adv, expected, rtol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ShuffleRlError):
            compute_gae(np.zeros(3), np.zeros(2), np.zeros(3, bool), 0.0, 0.9, 0.9)


def fill_buffer(buf, observations):
    """Add each observation with zero action, log-prob, reward and value."""
    for obs in observations:
        buf.add(obs, np.zeros(buf.actions.shape[1]), 0.0, 0.0, 0.0, False)


def assert_gathers(buf, observations):
    """Every gathered window is the float32 cast of what was added, byte for byte."""
    expected = np.stack([np.asarray(obs, dtype=np.float32) for obs in observations])
    gathered = buf.observations(np.arange(buf.length))
    assert gathered.dtype == np.float32 and gathered.shape == expected.shape
    assert gathered.tobytes() == expected.tobytes()
    for i in np.random.default_rng(0).permutation(buf.length)[:5]:
        assert buf.observations(i).tobytes() == expected[i].tobytes()


class TestRolloutBuffer:
    def test_sliding_env_across_a_reset_stores_one_row_per_step(self):
        market = generate_synthetic_market(seed=3, tickers=2, days=12)
        trading_env = TradingEnv(market, EnvConfig(window_length=5, turbulence_lookback=None))
        rng = np.random.default_rng(4)
        length = 16  # 7 steps per episode: the buffer spans two resets
        observations, runs = [trading_env.reset().rows], 1
        while len(observations) < length:
            step = trading_env.step(rng.uniform(-1.0, 1.0, 2))
            if step.done:
                observations.append(trading_env.reset().rows)
                runs += 1
            else:
                observations.append(step.observation.rows)
        assert runs == 3
        buf = RolloutBuffer(length, observations[0].shape, 2)
        fill_buffer(buf, observations)
        assert_gathers(buf, observations)
        assert len(buf.rows) == length + (5 - 1) * runs

    def test_observations_that_do_not_slide_are_stored_whole(self):
        rng = np.random.default_rng(5)
        observations = [rng.standard_normal((4, 3)) for _ in range(10)]
        buf = RolloutBuffer(10, (4, 3), 2)
        fill_buffer(buf, observations)
        assert_gathers(buf, observations)
        assert len(buf.rows) == 10 * 4

    def test_slide_is_judged_bitwise_so_a_negative_zero_starts_a_run(self):
        first = np.arange(12.0).reshape(4, 3)
        first[2, 1] = 0.0
        slid = np.vstack([first[1:], [[7.0, 8.0, 9.0]]])
        signed = np.vstack([slid[1:], [[1.0, 2.0, 3.0]]])
        signed[0, 1] = -0.0  # == slid[1, 1], but not the same bits
        observations = [first, slid, signed]
        buf = RolloutBuffer(3, (4, 3), 2)
        fill_buffer(buf, observations)
        assert_gathers(buf, observations)
        assert len(buf.rows) == 4 + 1 + 4

    @pytest.mark.parametrize("shape", [(3,), (4, 3, 1), (3, 4)])
    def test_add_rejects_a_wrong_shaped_observation(self, shape):
        buf = RolloutBuffer(2, (4, 3), 2)
        with pytest.raises(ShuffleRlError, match=r"expected an observation of shape \(4, 3\)"):
            buf.add(np.zeros(shape), np.zeros(2), 0.0, 0.0, 0.0, False)
        assert buf.pos == 0 and len(buf.rows) == 0


def make_batch(net, batch_size=6, seed=0):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((batch_size, *net.obs_shape))
    actions = rng.standard_normal((batch_size, net.action_dim))
    mu, values, _ = net.forward(obs)
    old_logp = gaussian_log_prob(actions, mu, net.effective_log_std())
    advantages = rng.standard_normal(batch_size)
    returns = rng.standard_normal(batch_size)
    return obs, actions, old_logp, advantages, returns


class TestPpoLoss:
    def test_ratio_one_policy_term(self):
        net = ActorCritic(MLP_ARCH, (4,), 2, seed=1)
        obs, actions, old_logp, advantages, returns = make_batch(net)
        cfg = PpoConfig(value_coef=0.0, entropy_coef=0.0)
        diag, _ = ppo_loss_and_grads(net, obs, actions, old_logp, advantages, returns, cfg)
        # old log-probs computed from the same params: ratio = 1 everywhere
        assert diag.policy_loss == pytest.approx(-advantages.mean(), rel=1e-9)
        assert diag.clip_fraction == 0.0
        assert diag.approx_kl == pytest.approx(0.0, abs=1e-12)

    def test_scalar_clip_oracle(self):
        # one sample, ratio 1.5, eps 0.2, A=+1 -> clipped branch 1.2 wins the min
        net = ActorCritic(MLP_ARCH, (4,), 2, seed=1)
        obs, actions, old_logp, _, returns = make_batch(net, batch_size=1)
        old_logp = old_logp - math.log(1.5)
        advantages = np.array([1.0])
        cfg = PpoConfig(value_coef=0.0, entropy_coef=0.0, clip_epsilon=0.2)
        diag, grads = ppo_loss_and_grads(net, obs, actions, old_logp, advantages, returns, cfg)
        assert diag.policy_loss == pytest.approx(-1.2, rel=1e-9)
        assert diag.clip_fraction == 1.0
        # clipped branch active: no policy gradient flows
        assert np.all(grads["policy.weight"] == 0.0)

    def test_zero_advantages_zero_policy_gradient(self):
        net = ActorCritic(MLP_ARCH, (4,), 2, seed=1)
        obs, actions, old_logp, _, returns = make_batch(net)
        cfg = PpoConfig(value_coef=0.5, entropy_coef=0.0)
        diag, grads = ppo_loss_and_grads(net, obs, actions, old_logp, np.zeros(6), returns, cfg)
        assert diag.policy_loss == 0.0
        assert np.all(grads["policy.weight"] == 0.0)
        assert np.any(grads["value.weight"] != 0.0)

    def test_clip_inactive_matches_unclipped_surrogate(self):
        net = ActorCritic(MLP_ARCH, (4,), 2, seed=2)
        obs, actions, old_logp, advantages, returns = make_batch(net, seed=5)
        rng = np.random.default_rng(6)
        # ratios inside [1-eps, 1+eps]
        shift = np.log(rng.uniform(0.85, 1.15, size=old_logp.shape))
        old_shifted = old_logp - shift
        cfg = PpoConfig(value_coef=0.0, entropy_coef=0.0, clip_epsilon=0.2)
        diag, _ = ppo_loss_and_grads(net, obs, actions, old_shifted, advantages, returns, cfg)
        ratio = np.exp(shift)
        unclipped = -(ratio * advantages).mean()
        assert diag.policy_loss == pytest.approx(unclipped, rel=1e-9)
        assert diag.clip_fraction == 0.0

    def test_full_loss_gradient_finite_differences(self):
        net = ActorCritic(MLP_ARCH, (4,), 2, seed=3)
        obs, actions, old_logp, advantages, returns = make_batch(net, seed=7)
        cfg = PpoConfig(value_coef=0.7, entropy_coef=0.01, clip_epsilon=0.2)

        def compute_loss():
            diag, grads = ppo_loss_and_grads(net, obs, actions, old_logp, advantages, returns, cfg)
            return diag.loss, grads

        result = grad_check(compute_loss, net.named_parameters(), max_entries_per_param=30)
        assert result.max_rel_error < 1e-4, str(result)

    def test_cnn_loss_gradient_finite_differences(self):
        arch = ArchSpec(kind="cnn", conv_channels=(2, 3), conv_kernels=((3, 3), (2, 2)),
                        conv_strides=((2, 2), (1, 1)), embed_dim=6)
        net = ActorCritic(arch, (8, 9), 2, seed=4)
        obs, actions, old_logp, advantages, returns = make_batch(net, batch_size=4, seed=9)
        cfg = PpoConfig(value_coef=0.5, entropy_coef=0.0)

        def compute_loss():
            diag, grads = ppo_loss_and_grads(net, obs, actions, old_logp, advantages, returns, cfg)
            return diag.loss, grads

        result = grad_check(compute_loss, net.named_parameters(), max_entries_per_param=20)
        assert result.max_rel_error < 1e-4, str(result)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", [MLP_ARCH, TOY_CNN_ARCH], ids=["mlp", "cnn"])
def test_every_array_the_caller_passes_is_left_bit_identical(arch, dtype):
    # Batch norm and ReLU overwrite the arrays they are handed; every array
    # they get from these calls must be the network's own.
    net = ActorCritic(arch, (5, 12), 3, seed=40, dtype=dtype)
    rng = np.random.default_rng(41)
    obs = rng.standard_normal((4, 5, 12)).astype(dtype)
    actions = rng.standard_normal((4, 3))
    old_log_probs = rng.standard_normal(4) - 3.0
    advantages = rng.standard_normal(4)
    returns = rng.standard_normal(4)
    dmu = rng.standard_normal((4, 3)).astype(dtype)
    dvalue = rng.standard_normal(4).astype(dtype)
    passed = {"obs": obs, "actions": actions, "old_log_probs": old_log_probs, "advantages": advantages,
              "returns": returns, "dmu": dmu, "dvalue": dvalue}
    before = {name: array.tobytes() for name, array in passed.items()}

    _, _, cache = net.forward(obs)
    net.backward(cache, dmu, dvalue)
    ppo_loss_and_grads(net, obs, actions, old_log_probs, advantages, returns, PpoConfig())
    sample_action(WindowStream(net), obs[0], rng)
    WindowStream(net).forward(obs)
    net.refresh_batch_norm(*row_stack(obs))
    assert {name: array.tobytes() for name, array in passed.items()} == before


class TestOptimizer:
    def test_zero_learning_rate_keeps_params(self):
        net = ActorCritic(MLP_ARCH, (3,), 1, seed=0)
        before = {name: p.copy() for name, p in net.named_parameters()}
        opt = Adam(net.named_parameters(), learning_rate=0.0)
        grads = {name: np.ones_like(p) for name, p in net.named_parameters()}
        opt.step(grads)
        for name, p in net.named_parameters():
            np.testing.assert_array_equal(p, before[name])

    def test_chunked_adam_byte_identical_to_whole_tensor_expression(self):
        # Two whole chunks, a tensor longer than a chunk whose size is not a
        # multiple of it, and one shorter than a chunk.
        shapes = {"whole": (2, _ADAM_CHUNK), "ragged": (2 * _ADAM_CHUNK + 999,), "small": (7, 3)}
        rng = np.random.default_rng(21)
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        chunked_params = [(name, p.copy()) for name, p in start.items()]
        whole_params = [(name, p.copy()) for name, p in start.items()]
        chunked = Adam(chunked_params, learning_rate=3e-4)
        whole = WholeTensorAdam(whole_params, learning_rate=3e-4)
        for step in range(5):
            grads = {name: rng.standard_normal(shape) * 10.0**-step for name, shape in shapes.items()}
            chunked.step(grads)
            whole.step(grads)
        for (name, p), (_, q) in zip(chunked_params, whole_params):
            assert p.tobytes() == q.tobytes(), name
            assert chunked.m[name].tobytes() == whole.m[name].tobytes(), name
            assert chunked.v[name].tobytes() == whole.v[name].tobytes(), name

    def test_adam_rejects_non_contiguous_params(self):
        # A chunk of a reshaped copy would leave the parameter unchanged.
        with pytest.raises(ShuffleRlError, match="w"):
            Adam([("w", np.zeros((4, 3)).T)], learning_rate=1e-3)

    def test_clip_grad_norm(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        total = clip_grad_norm(grads, max_norm=1.0)
        assert total == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0, rel=1e-5)
        grads2 = {"a": np.array([0.3, 0.4])}
        clip_grad_norm(grads2, max_norm=1.0)
        np.testing.assert_array_equal(grads2["a"], [0.3, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_clip_grad_norm_names_non_finite_tensors(self, bad):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([1.0, bad]), "c": np.zeros(3), "d": np.array([-bad])}
        before = {name: g.tobytes() for name, g in grads.items()}
        with pytest.raises(NonFiniteError) as info:
            clip_grad_norm(grads, max_norm=1.0)
        assert str(info.value) == "non-finite values in gradients (b, d)"
        assert {name: g.tobytes() for name, g in grads.items()} == before

    def test_clip_grad_norm_overflow_without_bad_entry(self):
        grads = {"a": np.array([1e30], dtype=np.float32)}
        with pytest.raises(NonFiniteError, match="sum of squares overflowed"):
            clip_grad_norm(grads, max_norm=1.0)

    def _filled_buffer(self, net, length=32, seed=0):
        rng = np.random.default_rng(seed)
        buf = RolloutBuffer(length, net.obs_shape, net.action_dim)
        stream = WindowStream(net)
        for _ in range(length):
            obs = rng.standard_normal(net.obs_shape)
            action, logp, value = sample_action(stream, obs, rng)
            buf.add(obs, action, logp, rng.standard_normal() * 0.1, value, False)
        buf.finalize(0.0, 0.99, 0.95)
        return buf

    def test_update_deterministic(self):
        results = []
        for _ in range(2):
            net = ActorCritic(MLP_ARCH, (3,), 2, seed=1)
            buf = self._filled_buffer(net, seed=2)
            opt = Adam(net.named_parameters(), 1e-3)
            update(net, opt, buf, PpoConfig(minibatch_size=16, epochs_per_update=3), np.random.default_rng(3))
            results.append({name: p.copy() for name, p in net.named_parameters()})
        for name in results[0]:
            assert results[0][name].tobytes() == results[1][name].tobytes(), name

    def test_update_reports_explained_variance(self):
        net = ActorCritic(MLP_ARCH, (3,), 2, seed=1)
        cfg = PpoConfig(minibatch_size=16, epochs_per_update=1)
        buf = self._filled_buffer(net, seed=2)
        expected = 1.0 - np.var(buf.returns - buf.values) / np.var(buf.returns)
        stats = update(net, Adam(net.named_parameters(), 1e-3), buf, cfg, np.random.default_rng(3))
        assert stats["explained_variance"] == expected
        buf = self._filled_buffer(net, seed=2)
        buf.values[:] = buf.returns
        stats = update(net, Adam(net.named_parameters(), 1e-3), buf, cfg, np.random.default_rng(3))
        assert stats["explained_variance"] == 1.0
        buf = self._filled_buffer(net, seed=2)
        buf.returns[:] = 0.5
        stats = update(net, Adam(net.named_parameters(), 1e-3), buf, cfg, np.random.default_rng(3))
        assert stats["explained_variance"] == 0.0

    def test_update_descends_on_fixed_batch(self):
        net = ActorCritic(MLP_ARCH, (3,), 2, seed=4)
        buf = self._filled_buffer(net, length=64, seed=5)
        cfg = PpoConfig(minibatch_size=64, epochs_per_update=1, learning_rate=1e-3)
        adv = buf.advantages
        adv_norm = (adv - adv.mean()) / (adv.std() + 1e-8)

        def batch_loss():
            diag, _ = ppo_loss_and_grads(
                net, buf.observations(np.arange(buf.length)), buf.actions, buf.log_probs, adv_norm, buf.returns, cfg
            )
            return diag.loss

        before = batch_loss()
        opt = Adam(net.named_parameters(), cfg.learning_rate)
        update(net, opt, buf, cfg, np.random.default_rng(6))
        assert batch_loss() < before

    def _non_finite_update(self, net):
        """Run a two-minibatch update that must raise on its first gradients,
        check that no parameter, Adam moment or step count moved, and return
        the names of the tensors the error reports."""
        buf = self._filled_buffer(net, seed=2)
        opt = Adam(net.named_parameters(), 1e-3)

        def state():
            return ({name: p.tobytes() for name, p in net.named_parameters()},
                    {name: m.tobytes() for name, m in opt.m.items()},
                    {name: v.tobytes() for name, v in opt.v.items()})

        before = state()
        with pytest.raises(NonFiniteError, match=r"^non-finite values in gradients \(") as info:
            update(net, opt, buf, PpoConfig(minibatch_size=16, epochs_per_update=1), np.random.default_rng(3))
        assert opt.t == 0
        assert state() == before
        return str(info.value).split("(", 1)[1].rstrip(")").split(", ")

    def test_update_stops_on_non_finite_log_std_gradient(self):
        # No layer computes the log_std gradient, so only the norm sees it.
        net = ActorCritic(TOY_CNN_ARCH, (5, 35), 2, seed=1, dtype=np.float32)
        net.log_std_grad_mask = lambda: np.full(net.action_dim, np.inf)
        assert self._non_finite_update(net) == ["log_std"]

    def test_update_stops_on_non_finite_inner_input_gradient(self):
        # A NaN in an inner layer's input gradient reaches every parameter
        # gradient below it.
        net = ActorCritic(TOY_CNN_ARCH, (5, 35), 2, seed=1, dtype=np.float32)
        bn2 = next(layer for layer in net.extractor.layers if layer.name == "bn2")
        bn2_backward = bn2.backward

        def nan_dx_backward(cache, dout):
            dx, grads = bn2_backward(cache, dout)
            dx[0, 0, 0, 0] = np.nan
            return dx, grads

        bn2.backward = nan_dx_backward
        below_bn2 = {"conv1.weight", "conv1.bias", "bn1.gamma", "bn1.beta", "conv2.weight", "conv2.bias"}
        assert set(self._non_finite_update(net)) == below_bn2


class TestTrainLoop:
    def _dataset(self):
        return generate_synthetic_market(seed=1, tickers=2, days=40, drift=0.001, volatility=0.01)

    def _env_cfg(self):
        return EnvConfig(window_length=5, turbulence_lookback=None)

    def test_too_few_timesteps_means_no_updates(self):
        cfg = PpoConfig(total_timesteps=10, rollout_length=32, seed=0)
        result = train(self._dataset(), self._env_cfg(), AgentSpec(kind="mlp", arch=MLP_ARCH), cfg)
        assert result.update_stats == []
        assert result.timesteps == 0
        fresh = ActorCritic(MLP_ARCH, (5, 35), 2, seed=0, dtype=np.float32)
        for (name, p), (_, q) in zip(result.net.named_parameters(), fresh.named_parameters()):
            assert p.tobytes() == q.tobytes(), name

    def test_curve_rows_and_determinism(self):
        cfg = PpoConfig(total_timesteps=96, rollout_length=32, minibatch_size=16,
                        epochs_per_update=2, seed=3)
        spec = AgentSpec(kind="mlp", arch=MLP_ARCH)
        a = train(self._dataset(), self._env_cfg(), spec, cfg)
        b = train(self._dataset(), self._env_cfg(), spec, cfg)
        assert a.curve == b.curve
        assert len(a.curve) >= 1
        timesteps = [t for t, _, _ in a.curve]
        assert timesteps == sorted(timesteps)
        episodes = [e for _, e, _ in a.curve]
        assert episodes == list(range(len(episodes)))
        for (name, p), (_, q) in zip(a.net.named_parameters(), b.net.named_parameters()):
            assert p.tobytes() == q.tobytes(), name

    def test_same_trainer_code_paths_for_mlp_and_cnn(self):
        # both extractor kinds run through the identical train()/update() code
        cfg = PpoConfig(total_timesteps=32, rollout_length=32, minibatch_size=16,
                        epochs_per_update=1, seed=0)
        for spec in (AgentSpec(kind="mlp", arch=MLP_ARCH), AgentSpec(kind="cnn", arch=TOY_CNN_ARCH),
                     AgentSpec(kind="cnn-shuffled", arch=TOY_CNN_ARCH)):
            result = train(self._dataset(), self._env_cfg(), spec, cfg)
            assert len(result.update_stats) == 1
            for key in ("loss", "policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl",
                        "grad_norm", "explained_variance"):
                assert np.isfinite(result.update_stats[0][key])
            assert result.update_stats[0]["grad_norm"] > 0

    def test_bandit_policy_gradient_direction(self):
        cfg = PpoConfig(gamma=0.0, gae_lambda=1.0, learning_rate=0.01, rollout_length=128,
                        minibatch_size=64, epochs_per_update=4, total_timesteps=128 * 60, seed=0)
        result = train_on_env(SignBandit(100), (1,), 1, ArchSpec(kind="mlp", mlp_hidden=(16,)), cfg)
        assert optimal_action_probability(result.net) > 0.9


# Max |ratio - 1| allowed on an update's first minibatch: the rollout's
# batch-1 forward and the update's batch-16 forward of one float32 network
# differ only in the last bits of their GEMMs.
ON_POLICY_RATIO_TOLERANCE = 1e-4


class TestOnPolicy:
    """The network that collects a rollout is the one whose ratio the
    update clips, batch norm included."""

    SPECS = [AgentSpec(kind="mlp", arch=MLP_ARCH), AgentSpec(kind="cnn", arch=TOY_CNN_ARCH),
             AgentSpec(kind="cnn-shuffled", arch=TOY_CNN_ARCH)]

    def _train(self, monkeypatch, spec):
        """Two updates of two epochs; returns the result, each update's
        buffer and the max |ratio - 1| of each update's first minibatch."""
        buffers, first_ratios = [], []
        real_update, real_loss = ppo.update, ppo.ppo_loss_and_grads

        def spy_update(net, optimizer, buffer, config, rng):
            buffers.append(buffer)
            return real_update(net, optimizer, buffer, config, rng)

        def spy_loss(net, observations, actions, old_log_probs, *rest):
            if len(first_ratios) < len(buffers):
                mu, _, _ = net.forward(observations)
                ratio = np.exp(gaussian_log_prob(actions, mu, net.effective_log_std()) - old_log_probs)
                first_ratios.append(float(np.max(np.abs(ratio - 1.0))))
            return real_loss(net, observations, actions, old_log_probs, *rest)

        monkeypatch.setattr(ppo, "update", spy_update)
        monkeypatch.setattr(ppo, "ppo_loss_and_grads", spy_loss)
        cfg = PpoConfig(total_timesteps=64, rollout_length=32, minibatch_size=16, epochs_per_update=2, seed=0)
        dataset = generate_synthetic_market(seed=1, tickers=2, days=40, drift=0.001, volatility=0.01)
        env_cfg = make_env_config(EnvConfig(window_length=5, turbulence_lookback=None), spec, 2)
        result = train(dataset, env_cfg, spec, cfg)
        assert len(buffers) == len(first_ratios) == 2
        return result, buffers, first_ratios

    @pytest.mark.parametrize("spec", SPECS, ids=[spec.kind for spec in SPECS])
    def test_first_minibatch_of_every_update_has_ratio_one(self, monkeypatch, spec):
        _, _, first_ratios = self._train(monkeypatch, spec)
        assert max(first_ratios) <= ON_POLICY_RATIO_TOLERANCE, first_ratios

    @pytest.mark.parametrize("spec", SPECS, ids=[spec.kind for spec in SPECS])
    def test_statistics_are_refreshed_over_the_last_buffer_with_the_final_weights(self, monkeypatch, spec):
        result, buffers, _ = self._train(monkeypatch, spec)
        net = result.net
        trained = [tensor.tobytes() for _, tensor in net.named_buffers()]
        assert len(trained) == (0 if spec.kind == "mlp" else 4)
        net.refresh_batch_norm(buffers[-1].rows, buffers[-1].starts)
        assert [tensor.tobytes() for _, tensor in net.named_buffers()] == trained


class TestFloat32Training:
    @pytest.mark.parametrize("spec", [AgentSpec(kind="mlp", arch=MLP_ARCH),
                                      AgentSpec(kind="cnn-shuffled", arch=TOY_CNN_ARCH)],
                             ids=["mlp", "cnn"])
    def test_network_optimizer_gradients_and_observations_are_float32(self, monkeypatch, spec):
        seen = {"grads": []}
        real_update, real_loss = ppo.update, ppo.ppo_loss_and_grads

        def spy_update(net, optimizer, buffer, config, rng):
            seen["optimizer"], seen["buffer"] = optimizer, buffer
            return real_update(net, optimizer, buffer, config, rng)

        def spy_loss(*args):
            diagnostics, grads = real_loss(*args)
            seen["grads"].append(dict(grads))
            return diagnostics, grads

        monkeypatch.setattr(ppo, "update", spy_update)
        monkeypatch.setattr(ppo, "ppo_loss_and_grads", spy_loss)
        cfg = PpoConfig(total_timesteps=32, rollout_length=32, minibatch_size=16, epochs_per_update=1, seed=0)
        dataset = generate_synthetic_market(seed=1, tickers=2, days=40, drift=0.001, volatility=0.01)
        result = train(dataset, EnvConfig(window_length=5, turbulence_lookback=None), spec, cfg)
        net, optimizer = result.net, seen["optimizer"]

        assert len(result.update_stats) == 1 and len(seen["grads"]) == 2
        tensors = [*net.named_parameters(), *net.named_buffers()]
        tensors += [(f"m[{name}]", m) for name, m in optimizer.m.items()]
        tensors += [(f"v[{name}]", v) for name, v in optimizer.v.items()]
        tensors += [(f"grad{i}[{name}]", g) for i, grads in enumerate(seen["grads"]) for name, g in grads.items()]
        buffer = seen["buffer"]
        tensors += [("observations", buffer.observations(np.arange(buffer.length))), ("rows", buffer.rows)]
        assert len(net.named_buffers()) == (4 if spec.kind == "cnn-shuffled" else 0)
        assert {name: arr.dtype for name, arr in tensors if arr.dtype != np.float32} == {}
        assert buffer.rewards.dtype == np.float64

    def test_paper_shape_cnn_minibatch_peak_memory(self):
        # One batch-64 minibatch of the shuffled CNN at the paper shape
        # (90x511, 16/32 channels). Batch norm and ReLU work in place and the
        # 18.3 MB embed weight gradient is allocated after the conv caches
        # are freed, so the traced peak stays under 50 MB.
        net = ActorCritic(AgentSpec(kind="cnn-shuffled").resolve_arch(), (90, 511), 30, seed=3, dtype=np.float32)
        rng = np.random.default_rng(3)
        obs = rng.standard_normal((64, 90, 511)).astype(np.float32)
        batch = (rng.standard_normal((64, 30)), rng.standard_normal(64) - 30.0, rng.standard_normal(64),
                 rng.standard_normal(64), PpoConfig())
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ppo_loss_and_grads(net, obs, *batch)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 50e6, f"{peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("kind", ["mlp", "cnn-shuffled"])
    def test_gradients_agree_with_float64_at_paper_shape(self, kind):
        # One batch of 4 paper-shape observations (30 tickers, 90x511).
        agent = AgentSpec(kind=kind)
        market = generate_synthetic_market(seed=2, tickers=30, days=100)
        trading_env = TradingEnv(market, make_env_config(EnvConfig(turbulence_lookback=None), agent, 30))
        rng = np.random.default_rng(2)
        obs = [trading_env.reset().rows]
        while len(obs) < 4:
            obs.append(trading_env.step(rng.uniform(-1.0, 1.0, 30)).observation.rows)
        obs = np.stack(obs)
        net32 = ActorCritic(agent.resolve_arch(), obs.shape[1:], 30, seed=2, dtype=np.float32)
        net64 = ActorCritic(agent.resolve_arch(), obs.shape[1:], 30, seed=2)
        for (_, p64), (_, p32) in zip(net64.named_parameters(), net32.named_parameters()):
            p64[...] = p32
        for net in (net32, net64):
            net.refresh_batch_norm(*row_stack(obs))
        mu, values, _ = net64.forward(obs)
        log_std = net64.effective_log_std()
        actions = mu + np.exp(log_std) * rng.standard_normal(mu.shape)
        old_log_probs = gaussian_log_prob(actions, mu, log_std)
        advantages = rng.standard_normal(4)
        advantages = (advantages - advantages.mean()) / advantages.std()
        returns = values + 0.01 * rng.standard_normal(4)
        batch = (obs, actions, old_log_probs, advantages, returns, PpoConfig())

        _, g32 = ppo_loss_and_grads(net32, *batch)
        _, g64 = ppo_loss_and_grads(net64, *batch)
        # On fixed statistics batch norm does not cancel the conv biases'
        # gradient, so every tensor's gradient is compared.
        errors = {name: np.abs(g32[name] - g).max() / np.abs(g).max() for name, g in g64.items()}
        assert {name: e for name, e in errors.items() if e > 1e-3} == {}


class TestEvaluate:
    def test_untrained_agent_on_flat_market_loses_costs_only(self):
        close = np.full((30, 2), 50.0)
        dataset = make_dataset(close)
        env_cfg = EnvConfig(window_length=5, turbulence_lookback=None)
        net = ActorCritic(MLP_ARCH, (5, 35), 2, seed=8)
        report, env = evaluate(net, dataset, env_cfg)
        assert report.cumulative_reward <= 0.0
        # on constant prices any trading loses exactly the fees paid
        assert report.cumulative_reward * 1e6 == pytest.approx(-report.total_costs, rel=1e-9, abs=1e-12)

    def test_repeat_evaluation_identical(self):
        dataset = generate_synthetic_market(seed=5, tickers=2, days=30)
        env_cfg = EnvConfig(window_length=5, turbulence_lookback=None)
        net = ActorCritic(MLP_ARCH, (5, 35), 2, seed=9)
        a, _ = evaluate(net, dataset, env_cfg)
        b, _ = evaluate(net, dataset, env_cfg)
        assert a.to_dict() == b.to_dict()
        assert a.value_series == b.value_series

    def test_shape_mismatch_names_both(self):
        dataset = generate_synthetic_market(seed=5, tickers=2, days=30)
        env_cfg = EnvConfig(window_length=6, turbulence_lookback=None)
        net = ActorCritic(MLP_ARCH, (5, 35), 2, seed=9)
        with pytest.raises(ShuffleRlError, match=r"\(5, 35\).*\(6, 35\)"):
            evaluate(net, dataset, env_cfg)

    def test_slice_shorter_than_window_rejected(self):
        from shufflerl.errors import InsufficientHistoryError

        dataset = generate_synthetic_market(seed=5, tickers=1, days=4)
        env_cfg = EnvConfig(window_length=4, turbulence_lookback=None)
        net = ActorCritic(MLP_ARCH, (4, 18), 1, seed=0)
        with pytest.raises(InsufficientHistoryError):
            evaluate(net, dataset, env_cfg)

    def test_report_reads_the_ledger(self):
        dataset = generate_synthetic_market(seed=1, tickers=2, days=40, drift=0.001, volatility=0.01)
        spec = AgentSpec(kind="cnn-shuffled", arch=TOY_CNN_ARCH)
        env_cfg = make_env_config(EnvConfig(window_length=5, turbulence_lookback=None), spec, 2)
        cfg = PpoConfig(total_timesteps=32, rollout_length=32, minibatch_size=16, epochs_per_update=1, seed=0)
        net = train(dataset, env_cfg, spec, cfg).net
        report, env = evaluate(net, dataset, env_cfg)
        assert report.value_series == [r["portfolio_value"] for r in env.trace]
        assert report.n_steps == len(env.trace) - 1
        assert report.cumulative_reward == float(sum(r["reward"] for r in env.trace[1:]))
        assert report.final_value == env.trace[-1]["portfolio_value"]
