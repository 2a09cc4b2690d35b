"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics derived from its spans.

Functions are wrapped where the library looks them up, not where they are
defined: ``build_feature_vector`` is called through the ``env`` namespace,
so the wrapper goes on ``shufflerl.env``. Layer methods are wrapped on
their class. Each span records a name, a start, an end, its parent span, a
run id and, for layer calls, the batch size. Spans stay in memory until the
traced child writes them out at its end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# Run ids, in the order a per-layer metric falls back through them: the
# workload's own calls first, then the layer probe with the workload's
# agent, then the probe with the other extractor (for layers the workload's
# network does not have).
RUNS = ("workload", "probe", "probe-other")

# The paper's schedule: 100k steps in 2048-step rollouts is 48 PPO
# iterations, each updating 10 epochs of 2048/64 minibatches.
PAPER_ITERATIONS = 48
PAPER_ROLLOUT = 2048
PAPER_MINIBATCHES = 320

LAYERS = (
    "conv1", "bn1", "relu1", "conv2", "bn2", "relu2", "flatten",
    "embed", "relu_embed", "fc1", "fc2", "policy", "value",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run, batch]
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.run = RUNS[0]
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, batch=None, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is a string or a function of the call's arguments;
        ``batch`` maps the arguments to a batch size; ``count`` maps
        (arguments, result) to counter increments.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [
                name(args) if callable(name) else name,
                0.0,
                0.0,
                parent,
                tracer.run,
                batch(args) if batch else None,
            ]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count:
                for key, value in count(args, result).items():
                    tracer.counters[(tracer.run, key)] += value
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run", "batch")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _trade_counts(args, result):
    requested = args[1]
    executed = result[2]
    return {"trades_requested": int(np.count_nonzero(requested)), "trades_filled": int(np.count_nonzero(executed))}


def install(tracer: Tracer) -> None:
    """Wrap every public call and layer method the per-layer table reads."""
    from shufflerl import archive, checkpoint, data, env, metrics, nn, ppo

    wrap = tracer.wrap
    wrap(data, "generate_synthetic_market", "data.synth")
    wrap(archive, "save_archive", "archive.save")
    wrap(archive, "load_archive", "archive.load")
    wrap(archive, "load_prices", "data.parse_csv")
    wrap(archive, "load_fundamentals", "data.parse_csv")
    wrap(archive, "align_forward_fill", "data.align")
    wrap(env, "compute_turbulence", "data.turbulence")
    wrap(env.TradingEnv, "reset", "env.reset")
    wrap(env.TradingEnv, "step", "env.step")
    wrap(env, "execute_trades", "env.execute_trades", count=_trade_counts)
    wrap(env, "build_feature_vector", "features.build_vector")
    wrap(env, "apply_permutation", "features.permute")
    wrap(env, "slide_window", "features.slide")
    wrap(ppo, "train_on_env", "ppo.train")
    wrap(ppo, "update", "ppo.update")
    wrap(ppo, "compute_gae", "ppo.gae")
    wrap(ppo, "sample_action", "ppo.sample_action")
    wrap(ppo, "policy_mean", "ppo.policy_mean")
    wrap(ppo, "ppo_loss_and_grads", "ppo.loss_grads")
    wrap(ppo, "clip_grad_norm", "ppo.clip_grad")
    wrap(ppo.Adam, "step", "ppo.adam_step")
    wrap(ppo, "evaluate", "ppo.evaluate")
    wrap(nn.ActorCritic, "__init__", "nn.build")
    for cls in (nn.Conv2d, nn.BatchNorm2d, nn.ReLU, nn.Flatten, nn.Linear):
        wrap(cls, "forward", lambda a: f"nn.{a[0].name}.fwd", batch=lambda a: a[1].shape[0])
        wrap(cls, "backward", lambda a: f"nn.{a[0].name}.bwd", batch=lambda a: a[2].shape[0])
    wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    wrap(checkpoint, "load_checkpoint", "checkpoint.load")
    wrap(metrics, "metrics_report", "metrics.report")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SpanIndex:
    """Span durations grouped by run, name and batch, with ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [end - start for _, start, end, *_ in spans]
        self.children_time = [0.0] * len(spans)
        self.by_key: dict[tuple, list[int]] = defaultdict(list)
        for i, (name, _, _, parent, run, batch) in enumerate(spans):
            if parent >= 0:
                self.children_time[parent] += self.duration[i]
            self.by_key[(run, name, batch)].append(i)
            self.by_key[(run, name, "*")].append(i)

    def find(self, name: str, batch="*") -> tuple[str | None, list[int]]:
        """Spans named ``name`` from the first run that has any."""
        for run in RUNS:
            found = self.by_key.get((run, name, batch))
            if found:
                return run, found
        return None, []

    def times(self, name: str, batch="*", scale: float = 1.0) -> list[float]:
        return [self.duration[i] * scale for i in self.find(name, batch)[1]]

    def total(self, run: str, name: str) -> float:
        return sum(self.duration[i] for i in self.by_key.get((run, name, "*"), []))

    def ancestor(self, i: int, name: str) -> int:
        parent = self.spans[i][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent


def conv_shapes(arch, obs_shape, batch: int) -> dict[str, tuple[float, float]]:
    """Per conv layer, computed from shapes: (forward-plus-backward FLOPs,
    im2col matrix MB) at ``batch``. Backward costs two forward GEMMs (one
    for the weight gradient, one for the input gradient)."""
    from shufflerl.nn import cnn_feature_shapes

    out = {}
    in_ch = 1
    for li, ((ch, oh, ow), (kh, kw)) in enumerate(
        zip(cnn_feature_shapes(arch, obs_shape), arch.conv_kernels), start=1
    ):
        macs = batch * ch * oh * ow * in_ch * kh * kw
        cols_bytes = batch * in_ch * kh * kw * oh * ow * 8
        out[f"conv{li}"] = (3 * 2 * macs, cols_bytes / 1e6)
        in_ch = ch
    return out


def per_layer_metrics(spans, counters, cnn_arch, obs_shape) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name (see README.md)."""
    idx = SpanIndex(spans)
    out: dict[str, float] = {}

    for layer in LAYERS:
        for kind, batch in (("fwd", 1), ("fwd", 64), ("bwd", 64)):
            out[f"nn.{layer}.{kind}_ms.b{batch}"] = float(np.median(idx.times(f"nn.{layer}.{kind}", batch, 1e3)))
    for conv, (flops, cols_mb) in conv_shapes(cnn_arch, obs_shape, 64).items():
        seconds = (out[f"nn.{conv}.fwd_ms.b64"] + out[f"nn.{conv}.bwd_ms.b64"]) / 1e3
        out[f"nn.{conv}.gflop_per_s.b64"] = flops / seconds / 1e9
        out[f"nn.{conv}.cols_mb.b64"] = cols_mb

    # Shares along the blocking steps: conv within the update (from the first
    # run whose network has convs) and layer forwards within the backtest.
    for run in RUNS:
        conv_in_update = sum(
            idx.duration[i]
            for layer in ("conv1", "conv2")
            for kind in ("fwd", "bwd")
            for i in idx.by_key.get((run, f"nn.{layer}.{kind}", "*"), [])
            if idx.ancestor(i, "ppo.update") >= 0
        )
        if conv_in_update:
            break
    out["nn.conv_share.update"] = conv_in_update / idx.total(run, "ppo.update")
    run, evals = idx.find("ppo.evaluate")
    nn_fwd_in_eval = sum(
        idx.duration[i]
        for (r, name, batch), found in idx.by_key.items()
        if r == run and batch == "*" and name.startswith("nn.") and name.endswith(".fwd")
        for i in found
        if idx.ancestor(i, "ppo.evaluate") >= 0
    )
    out["nn.fwd_share.evaluate"] = nn_fwd_in_eval / sum(idx.duration[i] for i in evals)

    run, _ = idx.find("ppo.train")
    update_s = idx.total(run, "ppo.update")
    rollout_s = idx.total(run, "ppo.train") - update_s - sum(
        idx.duration[i] for i in idx.by_key[(run, "nn.build", "*")] if idx.ancestor(i, "ppo.train") >= 0
    )
    steps = len(idx.by_key[(run, "ppo.sample_action", "*")])
    minibatches = len(idx.by_key[(run, "ppo.loss_grads", "*")])
    out["ppo.rollout_s"] = rollout_s
    out["ppo.update_s"] = update_s
    out["ppo.update_self_ms"] = float(
        np.median([(idx.duration[i] - idx.children_time[i]) * 1e3 for i in idx.by_key[(run, "ppo.update", "*")]])
    )
    out["ppo.gae_ms"] = float(np.median(idx.times("ppo.gae", scale=1e3)))
    out["ppo.minibatches"] = minibatches
    out["ppo.projected_seed_h"] = (
        PAPER_ITERATIONS * (PAPER_ROLLOUT * rollout_s / steps + PAPER_MINIBATCHES * update_s / minibatches) / 3600
    )
    for name in ("sample_action", "policy_mean", "loss_grads"):
        times = idx.times(f"ppo.{name}", scale=1e3)
        out[f"ppo.{name}_ms.p50"] = percentile(times, 50)
        out[f"ppo.{name}_ms.p90"] = percentile(times, 90)
    out["ppo.clip_grad_ms.p50"] = percentile(idx.times("ppo.clip_grad", scale=1e3), 50)
    out["ppo.adam_step_ms.p50"] = percentile(idx.times("ppo.adam_step", scale=1e3), 50)

    step_us = idx.times("env.step", scale=1e6)
    out["env.step_us.p50"] = percentile(step_us, 50)
    out["env.step_us.p90"] = percentile(step_us, 90)
    out["env.steps"] = len(step_us)
    out["env.reset_ms"] = percentile(idx.times("env.reset", scale=1e3), 50)
    out["env.execute_trades_us.p50"] = percentile(idx.times("env.execute_trades", scale=1e6), 50)
    run = next(r for r in RUNS if counters.get((r, "trades_requested")))
    out["env.trade_fill_ratio"] = counters[(run, "trades_filled")] / counters[(run, "trades_requested")]

    out["features.build_vector_us.p50"] = percentile(idx.times("features.build_vector", scale=1e6), 50)
    out["features.permute_us.p50"] = percentile(idx.times("features.permute", scale=1e6), 50)
    out["features.slide_us.p50"] = percentile(idx.times("features.slide", scale=1e6), 50)
    out["features.calls"] = len(idx.find("features.build_vector")[1])

    # Set-up, archive, checkpoint and report totals are the workload's own.
    for metric, name in (
        ("data.synth_s", "data.synth"),
        ("data.parse_csv_s", "data.parse_csv"),
        ("data.align_s", "data.align"),
        ("data.turbulence_s", "data.turbulence"),
        ("archive.save_s", "archive.save"),
        ("archive.load_s", "archive.load"),
        ("checkpoint.save_s", "checkpoint.save"),
        ("checkpoint.load_s", "checkpoint.load"),
    ):
        out[metric] = idx.total(RUNS[0], name)
    out["metrics.report_ms"] = idx.total(RUNS[0], "metrics.report") * 1e3
    return out
