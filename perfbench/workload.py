"""One repetition of a benchmark workload, or the gradient spot check, in a
fresh process. Prints one JSON object as its last line of output.

    python3 perfbench/workload.py rep --workload train-cnn --seed 3 --trace 0 --workdir DIR
    python3 perfbench/workload.py gradcheck --workload train-cnn --seed 3

``run.py`` starts these children; they import the library from the
checkout's ``src`` directory only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from shufflerl import archive, checkpoint, data, env, metrics, nn, ppo  # noqa: E402
from shufflerl.features import FeatureLayout  # noqa: E402
from shufflerl.runconfig import SplitSpec, resolve_split  # noqa: E402

import tracer as tracing  # noqa: E402

# The paper's market shape: 30 tickers, 511 features per day, a 90-row
# window. 1200 synthetic days split 25/75 leave 300 training days (a
# 210-step episode, with the turbulence index defined on its last 47 days)
# and 900 held-out days for the backtest.
TICKERS = 30
DAYS = 1200
TRAIN_FRACTION = 0.25
WINDOW = env.EnvConfig().window_length
OBS_SHAPE = (WINDOW, FeatureLayout(TICKERS).total)


@dataclass(frozen=True)
class Workload:
    agent: str
    # None for the backtest; otherwise the PPO schedule of the single
    # iteration the workload trains. README.md gives the reason for each.
    ppo: dict | None


WORKLOADS = {
    "train-cnn": Workload("cnn-shuffled", {"rollout_length": 64, "minibatch_size": 64, "epochs_per_update": 2}),
    "train-mlp": Workload("mlp", {"rollout_length": 128, "minibatch_size": 64, "epochs_per_update": 2}),
    "backtest-cnn": Workload("cnn-shuffled", None),
}

# The layer probe: one short PPO iteration and a short backtest, so that the
# traced run times every layer call the workload itself does not make.
PROBE_PPO = {"rollout_length": 64, "minibatch_size": 64, "epochs_per_update": 1}
PROBE_EVAL_STEPS = 64


def ppo_config(schedule: dict, seed: int) -> ppo.PpoConfig:
    return ppo.PpoConfig(**schedule, total_timesteps=schedule["rollout_length"], seed=seed)


def tensors_of(net) -> list[tuple[str, np.ndarray]]:
    return [*net.named_parameters(), *net.named_buffers()]


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.iterdir()) / 1e6


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def build_market(seed: int, workdir: Path):
    """Set-up shared by every workload, as ``shufflerl train`` and
    ``shufflerl evaluate`` do it: synthesize, archive, re-load with the
    fingerprint check, split."""
    market = data.generate_synthetic_market(seed, TICKERS, DAYS)
    archive.save_archive(market, workdir / "archive")
    dataset, _ = archive.load_archive(workdir / "archive")
    return resolve_split(dataset, SplitSpec(train_fraction=TRAIN_FRACTION))


def run_workload(name: str, seed: int, workdir: Path) -> dict:
    """One repetition, timed end to end. Raises on any failed check."""
    spec = WORKLOADS[name]
    agent = ppo.AgentSpec(spec.agent)
    arch = agent.resolve_arch()

    start = time.perf_counter()
    train_part, test_part = build_market(seed, workdir)
    env_config = ppo.make_env_config(env.EnvConfig(), agent, TICKERS)
    # The env the first step runs against. Training uses it directly through
    # ppo.train_on_env, the loop ppo.train runs after building its env, so
    # that env construction (and its turbulence index) counts as set-up.
    trading_env = env.TradingEnv(train_part if spec.ppo else test_part, env_config)
    setup_s = time.perf_counter() - start

    digest = hashlib.sha256()
    ckpt = workdir / "checkpoint"
    main_start = time.perf_counter()
    if spec.ppo:
        config = ppo_config(spec.ppo, seed)
        result = ppo.train_on_env(trading_env, OBS_SHAPE, TICKERS, arch, config)
        main_s = time.perf_counter() - main_start
        steps = result.timesteps
        net = result.net
        checkpoint.save_checkpoint(ckpt, net, {"agent_kind": agent.kind, "train_seed": seed})
        loaded, _ = checkpoint.load_checkpoint(ckpt)
        values = [row["portfolio_value"] for row in trading_env.trace]
        report = metrics.metrics_report(values, total_costs=trading_env.state.trade_cost_accum)

        check(steps == config.rollout_length, f"trained {steps} steps, expected {config.rollout_length}")
        check(len(result.update_stats) == 1, "expected one PPO update")
        check(all(finite(list(s.values())) for s in result.update_stats), "non-finite update stats")
        check(finite([r for _, _, r in result.curve]), "non-finite episode reward")
        check(report.sharpe_annualized is None or finite(report.sharpe_annualized), "non-finite Sharpe")
        digest.update(json.dumps(result.curve).encode())
        digest.update(json.dumps(result.update_stats, sort_keys=True).encode())
    else:
        net = nn.ActorCritic(arch, OBS_SHAPE, TICKERS, seed=seed)
        checkpoint.save_checkpoint(ckpt, net, {"agent_kind": agent.kind, "train_seed": seed})
        loaded, _ = checkpoint.load_checkpoint(ckpt)
        eval_start = time.perf_counter()
        evaluation, eval_env = ppo.evaluate(loaded, test_part, env_config)
        main_s = time.perf_counter() - eval_start
        steps = evaluation.n_steps
        report = metrics.metrics_report(evaluation.value_series, total_costs=evaluation.total_costs)

        last = eval_env.trace[-1]
        day = test_part.days.index(date.fromisoformat(last["day"]))
        holdings = np.array([last[f"holdings_{t}"] for t in test_part.tickers], dtype=np.int64)
        check(steps == trading_env.steps_remaining, f"backtest stepped {steps} of {trading_env.steps_remaining} days")
        check(finite(evaluation.value_series), "non-finite portfolio value")
        check(
            evaluation.final_value == last["balance"] + float(np.dot(test_part.close[day], holdings)),
            "final value is not balance plus holdings at the last close",
        )
        check(report.sharpe_annualized == evaluation.sharpe_annualized, "metrics_report Sharpe differs from EvalReport")
        digest.update(json.dumps(evaluation.value_series).encode())
        digest.update(json.dumps(evaluation.to_dict(), sort_keys=True).encode())
    wall_s = time.perf_counter() - start

    for (name_a, saved), (name_b, restored) in zip(tensors_of(net), tensors_of(loaded), strict=True):
        check(name_a == name_b and saved.tobytes() == restored.tobytes(), f"checkpoint round trip changed {name_a}")
        check(finite(saved), f"non-finite tensor {name_a}")
        digest.update(name_a.encode())
        digest.update(saved.tobytes())

    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "main_s": main_s,
        "steps": steps,
        "digest": digest.hexdigest(),
        "params": int(sum(p.size for _, p in net.named_parameters())),
        "archive_mb": dir_mb(workdir / "archive"),
        "checkpoint_mb": dir_mb(ckpt),
    }


def probe(kind: str, seed: int) -> None:
    """A short PPO iteration and backtest at the paper shape for one agent."""
    market = data.generate_synthetic_market(seed, TICKERS, DAYS)
    train_part, test_part = resolve_split(market, SplitSpec(train_fraction=TRAIN_FRACTION))
    agent = ppo.AgentSpec(kind)
    env_config = ppo.make_env_config(env.EnvConfig(), agent, TICKERS)
    trading_env = env.TradingEnv(train_part, env_config)
    result = ppo.train_on_env(trading_env, OBS_SHAPE, TICKERS, agent.resolve_arch(), ppo_config(PROBE_PPO, seed))
    short, _ = data.split_by_date(test_part, test_part.days[WINDOW + PROBE_EVAL_STEPS])
    ppo.evaluate(result.net, short, env_config)


def traced_rep(name: str, seed: int, workdir: Path) -> dict:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        out = run_workload(name, seed, workdir)
        own = WORKLOADS[name].agent
        other = "cnn-shuffled" if own == "mlp" else "mlp"
        for run, kind in (("probe", own), ("probe-other", other)):
            tracer.run = run
            probe(kind, seed)
    finally:
        tracer.uninstall()
    tracer.write(workdir.parent / f"spans-{name}.jsonl")
    layers = tracing.per_layer_metrics(tracer.spans, tracer.counters, ppo.AgentSpec("cnn").resolve_arch(), OBS_SHAPE)
    layers["nn.params"] = out["params"]
    layers["archive.mb"] = out["archive_mb"]
    layers["checkpoint.mb"] = out["checkpoint_mb"]
    out["layers"] = layers
    return out


# -- gradient spot check ------------------------------------------------------

# A central difference whose step moves some ReLU input across zero measures
# the kink, not the gradient. At the paper shape a batch-norm shift moves
# ~10^5 downstream ReLU inputs, so at h=1e-5 that happens on about one
# evaluation in three. And where the loss curves steeply (MLP policy weights,
# whose gradients reach ~40) the O(h^2) truncation error at h=1e-5 comes
# near the tolerance. Each sampled entry therefore passes if the difference
# agrees at some step that changed no ReLU mask, trying smaller steps in turn;
# a wrong gradient disagrees at every step. An entry every step of which
# crosses a kink is replaced by another sample.
GRAD_STEPS = (1e-5, 1e-6, 1e-7)
GRAD_TOLERANCE = 1e-4  # the acceptance suite's bound for hand-written backward passes
# Relative errors divide by at least this floor. A mathematically zero
# gradient (a conv bias that batch norm cancels) has a central difference of
# pure roundoff, about eps * |loss| / h; the floor keeps it under tolerance.
GRAD_FLOOR_TIMES_STEP = 1e-9
GRAD_ENTRIES = 3
GRAD_CANDIDATES = 12
GRAD_BATCH = 4


def grad_batch(seed: int, net, trading_env):
    """``GRAD_BATCH`` consecutive observations starting at a seeded day, with
    actions sampled from the policy and their log-probabilities as the old
    ones (ratio 1, as on the first minibatch of an update)."""
    rng = np.random.default_rng(seed)
    for _ in range(int(rng.integers(0, 200))):
        trading_env.step(rng.uniform(-1.0, 1.0, TICKERS))
    obs = [trading_env.observation.rows]
    while len(obs) < GRAD_BATCH:
        obs.append(trading_env.step(rng.uniform(-1.0, 1.0, TICKERS)).observation.rows)
    obs = np.stack(obs)
    mu, values, _ = net.forward(obs)
    log_std = net.effective_log_std()
    actions = mu + np.exp(log_std) * rng.standard_normal(mu.shape)
    old_log_probs = ppo.gaussian_log_prob(actions, mu, log_std)
    advantages = rng.standard_normal(GRAD_BATCH)
    advantages = (advantages - advantages.mean()) / advantages.std()
    returns = values + 0.01 * rng.standard_normal(GRAD_BATCH)
    return obs, actions, old_log_probs, advantages, returns


def grad_check_agent(kind: str, seed: int, market) -> dict:
    """``nn.grad_check`` of ``ppo_loss_and_grads`` at the paper shape, on
    ``GRAD_ENTRIES`` sampled entries of every parameter tensor."""
    agent = ppo.AgentSpec(kind)
    trading_env = env.TradingEnv(market, ppo.make_env_config(env.EnvConfig(), agent, TICKERS))
    net = nn.ActorCritic(agent.resolve_arch(), OBS_SHAPE, TICKERS, seed=seed)
    config = ppo.PpoConfig()
    batch = grad_batch(seed, net, trading_env)
    rng = np.random.default_rng(seed)
    masks: list[np.ndarray] = []
    relu_forward = nn.ReLU.forward

    def recording_forward(layer, x):
        masks.append(x > 0)
        return relu_forward(layer, x)

    def loss_only(*_):
        return {}

    nn.ReLU.forward = recording_forward
    try:
        _, grads = ppo.ppo_loss_and_grads(net, *batch, config)
        reference = list(masks)
        crossed = False

        def loss():
            # The loss alone: grad_check reads gradients from its first call
            # only, and the analytic gradient at this point is fixed above.
            nonlocal crossed
            masks.clear()
            net.backward = loss_only
            try:
                diagnostics, _ = ppo.ppo_loss_and_grads(net, *batch, config)
            finally:
                del net.backward
            crossed |= any(not np.array_equal(a, b) for a, b in zip(masks, reference))
            return diagnostics.loss

        worst = {"ok": True, "max_rel_error": 0.0, "where": "", "kinks": 0}
        for name, param in net.named_parameters():
            flat = param.reshape(-1)  # a view: perturbing it perturbs the network
            grad = grads[name].reshape(-1)
            judged = 0
            for k in rng.choice(flat.size, size=min(flat.size, GRAD_CANDIDATES), replace=False):
                entry = flat[k : k + 1]
                best = None
                for h in GRAD_STEPS:
                    crossed = False
                    result = nn.grad_check(
                        lambda: (loss(), {name: grad[k : k + 1]}),
                        [(name, entry)],
                        h=h,
                        denominator_floor=GRAD_FLOOR_TIMES_STEP / h,
                    )
                    if crossed:
                        worst["kinks"] += 1
                        continue
                    if best is None or result.max_rel_error < best[0]:
                        best = (result.max_rel_error, h)
                    if best[0] <= GRAD_TOLERANCE:
                        break
                if best is None:
                    continue
                judged += 1
                if best[0] >= worst["max_rel_error"]:
                    worst["max_rel_error"] = best[0]
                    worst["where"] = f"{name}[{k}] at h={best[1]:g}"
                if judged == min(flat.size, GRAD_ENTRIES):
                    break
            if judged < min(flat.size, GRAD_ENTRIES):
                worst["ok"] = False
                worst["where"] += f"; only {judged} entries of {name} clear of ReLU kinks"
    finally:
        nn.ReLU.forward = relu_forward
    worst["ok"] &= bool(worst["max_rel_error"] <= GRAD_TOLERANCE)
    return worst


def gradcheck(name: str, seed: int) -> dict:
    """The spot check for the workload's agent. The CNN workloads check the
    shuffled CNN and ``train-mlp`` the MLP, so both extractors are checked
    across the benchmark and each invocation pays for one."""
    kind = WORKLOADS[name].agent
    start = time.perf_counter()
    result = grad_check_agent(kind, seed, data.generate_synthetic_market(seed, TICKERS, WINDOW + 300))
    return {kind: {**result, "seconds": time.perf_counter() - start}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["rep", "gradcheck"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    try:
        if args.mode == "gradcheck":
            out = {"ok": True, "gradcheck": gradcheck(args.workload, args.seed)}
        else:
            args.workdir.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
                rep = traced_rep if args.trace else run_workload
                out = {"ok": True, **rep(args.workload, args.seed, Path(tmp))}
    except Exception:  # a failed operation is reported, not fatal to the benchmark
        out = {"ok": False, "error": traceback.format_exc()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
