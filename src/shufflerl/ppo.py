"""Proximal Policy Optimization over the trading environment.

A diagonal-Gaussian policy and a value head share one extractor trunk.
Rollouts of fixed length are collected from a single environment, advantages
come from GAE, and updates minimize the clipped surrogate plus a value MSE
term, with advantages normalized per minibatch (the 1e-6 reward scaling
makes raw advantages tiny enough to stall learning otherwise).

Everything is deterministic given (seed, config, dataset): one generator
seeded from the config drives action sampling and minibatch shuffling, and
parameter init is seeded separately from the same config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from shufflerl.data import MarketDataset
from shufflerl.env import EnvConfig, TradingEnv, run_episode
from shufflerl.errors import NonFiniteError, ShuffleRlError
from shufflerl.features import FeatureLayout, WindowMatrix, ticker_block_permutation
from shufflerl.metrics import metrics_report
from shufflerl.nn import ActorCritic, ArchSpec, WindowStream, slid_by_one_row

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    learning_rate: float = 3e-4
    rollout_length: int = 2048
    minibatch_size: int = 64
    epochs_per_update: int = 10
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    max_grad_norm: float = 0.5
    total_timesteps: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ShuffleRlError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ShuffleRlError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        # Written as `not (x > 0)` so that NaN, which JSON configs can hold,
        # fails too.
        if not self.clip_epsilon > 0:
            raise ShuffleRlError(f"clip_epsilon must be > 0, got {self.clip_epsilon}")
        if min(self.rollout_length, self.minibatch_size, self.epochs_per_update) < 1:
            raise ShuffleRlError("rollout_length, minibatch_size, epochs_per_update must be >= 1")
        if not self.learning_rate > 0:
            raise ShuffleRlError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.max_grad_norm > 0:
            raise ShuffleRlError(f"max_grad_norm must be > 0, got {self.max_grad_norm}")
        if not self.value_coef >= 0:
            raise ShuffleRlError(f"value_coef must be >= 0, got {self.value_coef}")
        if self.total_timesteps < 0:
            raise ShuffleRlError(f"total_timesteps must be >= 0, got {self.total_timesteps}")


AGENT_KINDS = ("mlp", "cnn", "cnn-shuffled")


@dataclass(frozen=True)
class AgentSpec:
    """Which extractor an agent uses and how its observations are laid out."""

    kind: str = "cnn"  # mlp | cnn | cnn-shuffled
    arch: ArchSpec | None = None

    def __post_init__(self):
        if self.kind not in AGENT_KINDS:
            raise ShuffleRlError(f"agent kind must be one of {AGENT_KINDS}, got {self.kind!r}")
        if self.arch is not None and self.arch.kind != self.extractor_kind:
            raise ShuffleRlError(
                f"architecture kind {self.arch.kind!r} does not match agent {self.kind!r}"
            )

    @property
    def extractor_kind(self) -> str:
        return "mlp" if self.kind == "mlp" else "cnn"

    def resolve_arch(self) -> ArchSpec:
        return self.arch if self.arch is not None else ArchSpec(kind=self.extractor_kind)


def _obs_array(obs) -> np.ndarray:
    if isinstance(obs, WindowMatrix):
        return obs.rows
    return np.asarray(obs, dtype=np.float64)


class RolloutBuffer:
    """Fixed-length trajectory store with GAE results attached.

    Observations are kept as one float32 stack of rows (float32 is the
    training network's dtype). A step whose observation, cast to float32,
    equals the previous step's stored one slid up by one row, bit for bit,
    adds only its newest row; any other step adds all of its rows. A trading
    window shares all but its newest row with the one before it, so a rollout
    of H-row windows over ``runs`` unbroken stretches of sliding holds
    ``length + (H - 1) * runs`` rows instead of ``length * H``.
    ``observations(idx)`` gathers the windows back. Actions,
    log-probabilities, rewards, values and GAE results stay float64.
    """

    def __init__(self, length: int, obs_shape: tuple[int, ...], action_dim: int):
        self.length = length
        self.obs_shape = tuple(obs_shape)
        height = self.obs_shape[0]
        # Room for one unbroken run; doubles as needed, up to every step's
        # whole observation.
        self._rows = np.empty((length + height - 1, *self.obs_shape[1:]), dtype=np.float32)
        self._row_count = 0
        self._starts = np.zeros(length, dtype=np.int64)
        self.actions = np.zeros((length, action_dim))
        self.log_probs = np.zeros(length)
        self.rewards = np.zeros(length)
        self.values = np.zeros(length)
        self.dones = np.zeros(length, dtype=bool)
        self.advantages = np.zeros(length)
        self.returns = np.zeros(length)
        self.pos = 0

    @property
    def full(self) -> bool:
        return self.pos == self.length

    @property
    def rows(self) -> np.ndarray:
        """The stored observation rows, oldest first."""
        return self._rows[: self._row_count]

    @property
    def starts(self) -> np.ndarray:
        """The index in ``rows`` of each stored step's first observation row."""
        return self._starts[: self.pos]

    def observations(self, idx) -> np.ndarray:
        """The float32 observations of the steps ``idx`` (an index array, a
        slice or one index), gathered from the row stack."""
        return self._rows[self._starts[idx][..., None] + np.arange(self.obs_shape[0])]

    def _push_rows(self, rows: np.ndarray):
        end = self._row_count + len(rows)
        if end > len(self._rows):
            capacity = min(max(end, 2 * len(self._rows)), self.length * self.obs_shape[0])
            grown = np.empty((capacity, *self.obs_shape[1:]), dtype=np.float32)
            grown[: self._row_count] = self.rows
            self._rows = grown
        self._rows[self._row_count : end] = rows
        self._row_count = end

    def add(self, obs, action, log_prob, reward, value, done):
        if self.full:
            raise ShuffleRlError("rollout buffer is full")
        obs = np.asarray(obs, dtype=np.float32)
        if obs.shape != self.obs_shape:
            raise ShuffleRlError(f"expected an observation of shape {self.obs_shape}, got {obs.shape}")
        i = self.pos
        height = self.obs_shape[0]
        # The previous step's window is the top `height` rows of the stack.
        slid = i > 0 and slid_by_one_row(obs, self.rows[self._row_count - height :])
        self._push_rows(obs[-1:] if slid else obs)
        self._starts[i] = self._row_count - height
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = done
        self.pos += 1

    def finalize(self, bootstrap_value: float, gamma: float, lam: float):
        if not self.full:
            raise ShuffleRlError(f"buffer has {self.pos}/{self.length} steps")
        self.advantages, self.returns = compute_gae(
            self.rewards, self.values, self.dones, bootstrap_value, gamma, lam
        )
        if not np.all(np.isfinite(self.advantages)):
            raise NonFiniteError("advantages")


def gaussian_log_prob(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density of each row of ``actions``."""
    z = (actions - mean) / np.exp(log_std)
    return (-0.5 * z**2 - log_std - 0.5 * _LOG_2PI).sum(axis=-1)


def sample_action(stream: WindowStream, obs, rng: np.random.Generator):
    """Draw a raw (unclipped) action from the streamed network; env-side
    decoding clips it.

    Returns (action, log_prob of the raw sample, value estimate).
    """
    net = stream.net
    mu, value = stream.forward(_obs_array(obs)[None, ...])
    log_std = net.effective_log_std()
    action = mu[0] + np.exp(log_std) * rng.standard_normal(net.action_dim)
    log_prob = float(gaussian_log_prob(action[None, :], mu, log_std)[0])
    if not np.isfinite(log_prob):
        raise NonFiniteError("sample_action", "log probability")
    return action, log_prob, float(value[0])


def policy_mean(net: ActorCritic | WindowStream, obs) -> np.ndarray:
    return net.forward(_obs_array(obs)[None, ...])[0][0]


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation.

    ``delta_t = r_t + gamma*v_{t+1}*(1-done_t) - v_t`` with the bootstrap
    value standing in for the final v; advantages accumulate backwards as
    ``A_t = delta_t + gamma*lam*(1-done_t)*A_{t+1}``.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if not rewards.shape == values.shape == dones.shape:
        raise ShuffleRlError(
            f"length mismatch: rewards {rewards.shape}, values {values.shape}, dones {dones.shape}"
        )
    n = rewards.shape[0]
    advantages = np.zeros(n)
    next_value = bootstrap_value
    next_advantage = 0.0
    for t in range(n - 1, -1, -1):
        live = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * live - values[t]
        next_advantage = delta + gamma * lam * live * next_advantage
        advantages[t] = next_advantage
        next_value = values[t]
    return advantages, advantages + values


@dataclass
class LossDiagnostics:
    loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float


# The keys of each dict ``update`` returns, one per PPO iteration.
UPDATE_STATS = (*(f.name for f in fields(LossDiagnostics)), "grad_norm", "explained_variance")


def ppo_loss_and_grads(
    net: ActorCritic,
    observations: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: PpoConfig,
) -> tuple[LossDiagnostics, dict[str, np.ndarray]]:
    """Clipped-surrogate loss with its full analytic gradient.

    ``advantages`` are expected to be already normalized. The min(.)
    gradient is active exactly when the unclipped surrogate is the smaller
    branch (which includes the whole unclipped region).
    """
    eps = config.clip_epsilon
    batch = observations.shape[0]
    mu, values, cache = net.forward(observations)
    log_std = net.effective_log_std()
    sigma_sq = np.exp(2.0 * log_std)

    log_probs = gaussian_log_prob(actions, mu, log_std)
    ratio = np.exp(log_probs - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * advantages
    policy_loss = -np.minimum(unclipped, clipped).mean()
    value_errors = values - returns
    value_loss = float(np.mean(value_errors**2))
    entropy = float(np.sum(log_std + 0.5 * (1.0 + _LOG_2PI)))
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy
    if not np.isfinite(loss):
        raise NonFiniteError("ppo_loss", f"loss={loss}")

    # d(policy_loss)/d(log_prob_i): active iff the unclipped branch is the min.
    active = (unclipped <= clipped).astype(np.float64)
    dlogp = -(active * advantages * ratio) / batch
    dmu = dlogp[:, None] * (actions - mu) / sigma_sq[None, :]
    dvalue = config.value_coef * 2.0 * value_errors / batch
    grads = net.backward(cache, dmu, dvalue)

    z_sq = ((actions - mu) ** 2) / sigma_sq[None, :]
    dlog_std = (dlogp[:, None] * (z_sq - 1.0)).sum(axis=0) - config.entropy_coef
    grads["log_std"] = (dlog_std * net.log_std_grad_mask()).astype(net.dtype)

    diagnostics = LossDiagnostics(
        loss=float(loss),
        policy_loss=float(policy_loss),
        value_loss=value_loss,
        entropy=entropy,
        clip_fraction=float(np.mean(np.abs(ratio - 1.0) > eps)),
        approx_kl=float(np.mean(old_log_probs - log_probs)),
    )
    return diagnostics, grads


# Adam walks each tensor in chunks of this many elements, so that every
# elementwise pass of the update runs on cache-resident scratch instead of a
# fresh parameter-sized temporary.
_ADAM_CHUNK = 1 << 15


class Adam:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(
        self,
        params: list[tuple[str, np.ndarray]],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        for name, p in params:
            if not p.flags.c_contiguous:
                raise ShuffleRlError(f"Adam needs C-contiguous parameters, {name} is not")
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {name: np.zeros_like(p) for name, p in params}
        self.v = {name: np.zeros_like(p) for name, p in params}
        self.t = 0
        dtype = np.result_type(*(p.dtype for _, p in params))
        self._scratch = (np.empty(_ADAM_CHUNK, dtype), np.empty(_ADAM_CHUNK, dtype))

    def step(self, grads: dict[str, np.ndarray]):
        """``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2`` and
        ``p -= lr * (m/bias1) / (sqrt(v/bias2) + eps)``, with every float
        operation in that order, so the result is bit-for-bit the one the
        whole-tensor expression gives."""
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name, param in self.params:
            p = param.reshape(-1)
            g = grads[name].reshape(-1)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            for start in range(0, p.size, _ADAM_CHUNK):
                chunk = slice(start, start + _ADAM_CHUNK)
                pc, gc, mc, vc = p[chunk], g[chunk], m[chunk], v[chunk]
                t, d = (buf[: pc.size] for buf in self._scratch)
                mc *= self.beta1
                np.multiply(gc, 1.0 - self.beta1, out=t)
                mc += t
                vc *= self.beta2
                np.square(gc, out=t)
                t *= 1.0 - self.beta2
                vc += t
                np.divide(vc, bias2, out=d)
                np.sqrt(d, out=d)
                d += self.eps
                np.divide(mc, bias1, out=t)
                t *= self.learning_rate
                t /= d
                pc -= t


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    This is the step's one finiteness check on the gradients: a squared entry
    is never negative, so any NaN or Inf makes the norm non-finite, and
    ``NonFiniteError`` names the tensors that hold one before anything is
    scaled or stepped.
    """
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not math.isfinite(total):
        bad = [name for name, g in grads.items() if not np.all(np.isfinite(g))]
        raise NonFiniteError("gradients", ", ".join(bad) or "sum of squares overflowed")
    if total > max_norm:
        scale = max_norm / (total + 1e-6)
        for g in grads.values():
            g *= scale
    return total


def update(
    net: ActorCritic,
    optimizer: Adam,
    buffer: RolloutBuffer,
    config: PpoConfig,
    rng: np.random.Generator,
) -> dict:
    """One PPO update: several epochs of shuffled minibatches over the buffer.

    Returns the mean over minibatches of each loss diagnostic and of the
    pre-clip gradient norm (``grad_norm``), and the value head's
    ``explained_variance`` on the buffer before the update:
    1 - Var(returns - values) / Var(returns), or 0.0 when the returns are
    constant.
    """
    if not buffer.full:
        raise ShuffleRlError("update requires a full rollout buffer")
    returns_var = np.var(buffer.returns)
    residual_var = np.var(buffer.returns - buffer.values)
    explained_variance = 0.0 if returns_var == 0 else 1.0 - residual_var / returns_var
    diagnostics: list[LossDiagnostics] = []
    grad_norms: list[float] = []
    for _ in range(config.epochs_per_update):
        order = rng.permutation(buffer.length)
        for start in range(0, buffer.length, config.minibatch_size):
            idx = order[start : start + config.minibatch_size]
            adv = buffer.advantages[idx]
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
            diag, grads = ppo_loss_and_grads(
                net,
                buffer.observations(idx),
                buffer.actions[idx],
                buffer.log_probs[idx],
                adv,
                buffer.returns[idx],
                config,
            )
            grad_norms.append(clip_grad_norm(grads, config.max_grad_norm))
            optimizer.step(grads)
            # Free this minibatch's gradients before the next forward pass
            # allocates its activations.
            del grads
            diagnostics.append(diag)
    stats = {k.name: float(np.mean([getattr(d, k.name) for d in diagnostics])) for k in fields(LossDiagnostics)}
    stats["grad_norm"] = float(np.mean(grad_norms))
    stats["explained_variance"] = float(explained_variance)
    return stats


@dataclass
class TrainResult:
    net: ActorCritic
    curve: list[tuple[int, int, float]] = field(default_factory=list)  # (timestep, episode, reward)
    update_stats: list[dict] = field(default_factory=list)
    timesteps: int = 0


def train_on_env(
    env,
    obs_shape: tuple[int, ...],
    action_dim: int,
    arch: ArchSpec,
    config: PpoConfig,
) -> TrainResult:
    """Generic PPO loop over anything with reset()/step() semantics.

    Episodes restart transparently inside rollouts; each completed episode
    appends (global timestep, episode index, cumulative reward) to the
    curve. ``total_timesteps`` below one rollout means zero updates.

    The network, its optimizer state and the stored observations are
    float32; the env, GAE and the loss's scalar statistics stay float64.

    Batch norm runs on fixed statistics, so the rollout that collects an
    iteration's log-probabilities and the update that clips their ratio
    compute one function. The statistics are set from the reset window
    before the first rollout and from each update's buffer after that
    update, so the returned network's match its final weights. Actions and
    the bootstrap value come from one ``WindowStream``, which refills when
    the update or the refresh changed the network.
    """
    net = ActorCritic(arch, obs_shape, action_dim, seed=config.seed, dtype=np.float32)
    optimizer = Adam(net.named_parameters(), config.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    result = TrainResult(net)

    n_updates = config.total_timesteps // config.rollout_length
    if n_updates == 0:
        return result

    stream = WindowStream(net)
    obs = _obs_array(env.reset())
    net.refresh_batch_norm(obs, [0])
    episode_reward = 0.0
    episode_index = 0
    for _ in range(n_updates):
        buffer = RolloutBuffer(config.rollout_length, obs_shape, action_dim)
        last_done = False
        while not buffer.full:
            action, log_prob, value = sample_action(stream, obs, rng)
            step = env.step(action)
            buffer.add(obs, action, log_prob, step.reward, value, step.done)
            episode_reward += step.reward
            result.timesteps += 1
            last_done = step.done
            if step.done:
                result.curve.append((result.timesteps, episode_index, episode_reward))
                episode_index += 1
                episode_reward = 0.0
                obs = _obs_array(env.reset())
            else:
                obs = _obs_array(step.observation)
        if last_done:
            bootstrap = 0.0
        else:
            bootstrap = float(stream.forward(obs[None, ...])[1][0])
        buffer.finalize(bootstrap, config.gamma, config.gae_lambda)
        result.update_stats.append(update(net, optimizer, buffer, config, rng))
        net.refresh_batch_norm(buffer.rows, buffer.starts)
    return result


def make_env_config(base: EnvConfig, agent: AgentSpec, ticker_count: int) -> EnvConfig:
    """Fit an env config's layout to an agent: the shuffled CNN gets the
    ticker-block permutation, every other agent the canonical layout."""
    shuffled = agent.kind == "cnn-shuffled"
    perm = ticker_block_permutation(FeatureLayout(ticker_count)) if shuffled else None
    return replace(base, permutation=perm)


def train(
    dataset: MarketDataset,
    env_config: EnvConfig,
    agent: AgentSpec,
    config: PpoConfig,
) -> TrainResult:
    """Train one agent on one market stream (single env, deterministic)."""
    env_config = make_env_config(env_config, agent, dataset.ticker_count)
    env = TradingEnv(dataset, env_config)
    obs_shape = env.observation.rows.shape
    return train_on_env(env, obs_shape, dataset.ticker_count, agent.resolve_arch(), config)


@dataclass
class EvalReport:
    cumulative_reward: float
    discounted_return: float
    cumulative_return: float
    sharpe_annualized: float | None
    sharpe_raw: float | None
    total_costs: float
    final_value: float
    n_steps: int
    value_series: list[float]

    def to_dict(self) -> dict:
        """Every field but ``value_series``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "value_series"}


def evaluate(
    net: ActorCritic,
    dataset: MarketDataset,
    env_config: EnvConfig,
    gamma: float = 0.99,
) -> tuple[EvalReport, TradingEnv]:
    """Deterministic evaluation: the action is the policy mean, and one
    ``WindowStream`` computes the network's forward day by day. Returns the
    report, read off the env's ledger (``env.trace``), and the env, for CSV
    export of that ledger."""
    env = TradingEnv(dataset, env_config)
    expected = env.observation.rows.shape
    if tuple(net.obs_shape) != expected:
        raise ShuffleRlError(
            f"checkpoint expects observations {net.obs_shape}, environment emits {expected}"
        )
    stream = WindowStream(net)
    discounted = run_episode(env, lambda obs: policy_mean(stream, obs), gamma)
    values = [row["portfolio_value"] for row in env.trace]
    metrics = metrics_report(values)
    return (
        EvalReport(
            cumulative_reward=float(sum(row["reward"] for row in env.trace[1:])),
            discounted_return=discounted,
            cumulative_return=metrics.cumulative_return,
            sharpe_annualized=metrics.sharpe_annualized,
            sharpe_raw=metrics.sharpe_raw,
            total_costs=env.state.trade_cost_accum,
            final_value=values[-1],
            n_steps=len(env.trace) - 1,
            value_series=values,
        ),
        env,
    )
