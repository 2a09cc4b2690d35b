"""Minimal neural-network stack with explicit forward and backward passes.

The network is a fixed chain (two strided convolutions with 2D batch
normalization and ReLU, flatten, one linear projection), so every layer
carries its own hand-written backward instead of a general autodiff graph.
A network computes in the dtype it is built with: float64 by default, which
the finite-difference gradient checks need, or float32, which training uses.
A NaN or Inf in a layer's forward output raises at once, naming the layer;
gradients are checked once per step, by ``ppo.clip_grad_norm``.

``BatchNorm2d`` and ``ReLU`` reuse the arrays they are handed: the forward
writes its result into its input and the backward into ``dout``. In an
extractor, which starts with a ``Conv2d`` or a ``Flatten``, each such input
is the previous layer's fresh output, and each such ``dout`` the next
layer's fresh input gradient or the ``dout`` handed to
``Sequential.backward``, which may therefore be overwritten. A direct caller
that needs its array again passes a copy. No other layer writes into an
array it is given, and ``ActorCritic`` and ``WindowStream`` leave their
callers' arrays as they were.

Conventions that silently diverge between implementations, pinned here:
valid (no-padding) cross-correlation with ``out = floor((in - k)/stride) + 1``;
batch norm has one mode, which normalizes with fixed statistics, and
``refresh_batch_norm`` sets those to the biased (divide by n) mean and
variance of each batch-norm layer's input over a set of windows, given as a
stack of rows and the row each window starts at, so that a row that several
windows share is computed once. Outside the update, the batch-norm refresh
and ``WindowStream`` compute conv rows with one function, ``_conv_rows``,
whose every GEMM is one output row wide, so both get a row's same bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from shufflerl.errors import NonFiniteError, ShuffleRlError


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(name)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of a (B, C, H, W) array: contiguous rows first, then
    the batch, which is much faster than a strided ``axis=(0, 2, 3)`` sum."""
    return a.reshape(a.shape[0], a.shape[1], -1).sum(axis=2).sum(axis=0)


def conv_output_size(size: int, kernel: int, stride: int) -> int:
    if kernel > size:
        raise ShuffleRlError(f"kernel {kernel} larger than input {size}")
    if stride < 1:
        raise ShuffleRlError(f"stride must be >= 1, got {stride}")
    return (size - kernel) // stride + 1


# Conv2d.backward computes the input gradient this many samples per GEMM.
_DX_GROUP = 8


class Conv2d:
    """Valid cross-correlation over (batch, channels, height, width).

    Unrolled into GEMMs (Chellapilla, Puri and Simard, 2006), one sample at a
    time: each output position's receptive field becomes a column of a
    (C*kh*kw, oh*ow) matrix that is small enough to stay in cache. The forward
    caches only its input, and the backward rebuilds the same columns.
    """

    def __init__(self, name: str, weight: np.ndarray, bias: np.ndarray, stride: tuple[int, int]):
        self.name = name
        self.weight = weight  # (out_ch, in_ch, kh, kw)
        self.bias = bias  # (out_ch,)
        self.stride = stride

    def params(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]

    def buffers(self):
        return []

    def _columns(self, x: np.ndarray):
        """Yield each sample's (C*kh*kw, oh*ow) im2col matrix in turn, copied
        into one buffer that every sample reuses."""
        _, _, kh, kw = self.weight.shape
        sh, sw = self.stride
        windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]  # (b, c, oh, ow, kh, kw)
        windows = windows.transpose(0, 1, 4, 5, 2, 3)
        cols = np.empty(windows.shape[1:], dtype=self.weight.dtype)
        cols_mat = cols.reshape(-1, cols.shape[-2] * cols.shape[-1])
        for sample in windows:
            np.copyto(cols, sample)
            yield cols_mat

    def forward(self, x: np.ndarray):
        out_ch, in_ch, kh, kw = self.weight.shape
        if x.ndim != 4 or x.shape[1] != in_ch:
            raise ShuffleRlError(f"{self.name}: expected (B, {in_ch}, H, W), got {x.shape}")
        b, _, h, w = x.shape
        sh, sw = self.stride
        oh = conv_output_size(h, kh, sh)
        ow = conv_output_size(w, kw, sw)
        w_mat = self.weight.reshape(out_ch, -1)
        out = np.empty((b, out_ch, oh * ow), dtype=self.weight.dtype)
        for i, cols in enumerate(self._columns(x)):
            np.matmul(w_mat, cols, out=out[i])
        out += self.bias[:, None]
        out = out.reshape(b, out_ch, oh, ow)
        _check_finite(self.name, out)
        return out, x

    def backward(self, cache, dout: np.ndarray, need_dx: bool = True):
        x = cache
        b = x.shape[0]
        out_ch, in_ch, kh, kw = self.weight.shape
        sh, sw = self.stride
        oh, ow = dout.shape[2:]
        dout_mat = dout.reshape(b, out_ch, oh * ow)
        dweight = np.zeros((out_ch, in_ch * kh * kw), dtype=self.weight.dtype)
        for i, cols in enumerate(self._columns(x)):
            dweight += dout_mat[i] @ cols.T
        dx = None
        if need_dx:
            # col2im one kernel row at a time, with one GEMM per group of
            # samples, keeps the input-gradient columns at _DX_GROUP/kh of
            # one sample's im2col size. Tap (u, v) adds to the input rows
            # u + sh*i and columns v + sw*j: a contiguous block of the phase
            # (u % sh, v % sw), the rows a::sh and columns c::sw of dx. Each
            # phase accumulates in a zeroed, channel-major buffer, in the same
            # tap order as a direct scatter, and is copied into dx once per group.
            w_rows = [self.weight[:, :, u, :].reshape(out_ch, in_ch * kw).T for u in range(kh)]
            h, w = x.shape[2:]
            dx = np.empty(x.shape, dtype=self.weight.dtype)
            phases = np.empty((in_ch, min(b, _DX_GROUP), sh, sw, -(-h // sh), -(-w // sw)), dtype=dx.dtype)
            for g in range(0, b, _DX_GROUP):
                group = dout_mat[g : g + _DX_GROUP]
                n = len(group)
                group = group.transpose(1, 0, 2).reshape(out_ch, n * oh * ow)
                acc = phases[:, :n]
                acc.fill(0)
                for u in range(kh):
                    dcols = (w_rows[u] @ group).reshape(in_ch, kw, n, oh, ow)
                    for v in range(kw):
                        acc[:, :, u % sh, v % sw, u // sh : u // sh + oh, v // sw : v // sw + ow] += dcols[:, v]
                for a in range(sh):
                    for c in range(sw):
                        rows, cols = len(range(a, h, sh)), len(range(c, w, sw))
                        dx[g : g + n, :, a::sh, c::sw] = acc[:, :, a, c, :rows, :cols].transpose(1, 0, 2, 3)
        dweight = dweight.reshape(self.weight.shape)
        dbias = dout_mat.sum(axis=(0, 2))
        return dx, {f"{self.name}.weight": dweight, f"{self.name}.bias": dbias}


class BatchNorm2d:
    """Per-channel ``gamma * (x - running_mean) * inv_std + beta``, with
    ``inv_std = 1 / sqrt(running_var + eps)``: fixed statistics, which only
    ``refresh_batch_norm`` sets, so one function serves rollout, update and
    evaluation.

    ``forward(x)`` overwrites ``x`` with the normalized input, which it
    caches. ``backward`` returns the input gradient in ``dout``'s memory and
    spends the cache.
    """

    def __init__(self, name: str, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
        self.name = name
        self.gamma = gamma
        self.beta = beta
        self.eps = eps
        channels = gamma.shape[0]
        self.running_mean = np.zeros(channels, dtype=gamma.dtype)
        self.running_var = np.ones(channels, dtype=gamma.dtype)

    def params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def buffers(self):
        return [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]

    def forward(self, x: np.ndarray):
        if x.ndim != 4 or x.shape[1] != self.gamma.shape[0]:
            raise ShuffleRlError(f"{self.name}: expected (B, {self.gamma.shape[0]}, H, W), got {x.shape}")
        shape = (1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = x
        xhat -= self.running_mean.reshape(shape)
        xhat *= inv_std.reshape(shape)
        out = xhat * self.gamma.reshape(shape)
        out += self.beta.reshape(shape)
        _check_finite(self.name, out)
        return out, (xhat, inv_std)

    def backward(self, cache, dout: np.ndarray):
        xhat, inv_std = cache
        dbeta = _channel_sum(dout)
        dgamma = _channel_sum(np.multiply(xhat, dout, out=xhat))
        dx = dout
        dx *= (self.gamma * inv_std).reshape(1, -1, 1, 1)
        return dx, {f"{self.name}.gamma": dgamma, f"{self.name}.beta": dbeta}


class ReLU:
    """``max(x, 0)`` as ``x * (x > 0)``, computed in place: ``forward(x)``
    returns ``x`` overwritten with the output, and ``backward`` returns
    ``dout`` overwritten with the input gradient."""

    def __init__(self, name: str):
        self.name = name

    def params(self):
        return []

    def buffers(self):
        return []

    def forward(self, x: np.ndarray):
        np.multiply(x, x > 0, out=x)
        return x, x

    def backward(self, cache, dout: np.ndarray):
        # The cache is the output, which the next layer holds anyway. Its
        # mask ``out > 0`` is ``x > 0`` bit for bit: a positive x passes
        # unchanged, and every other x (NaN included) gives +-0 or NaN.
        np.multiply(dout, cache > 0, out=dout)
        return dout, {}


class Flatten:
    def __init__(self, name: str):
        self.name = name

    def params(self):
        return []

    def buffers(self):
        return []

    def forward(self, x: np.ndarray):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, dout: np.ndarray):
        return dout.reshape(cache), {}


class Linear:
    """Affine map ``y = x @ W.T + b`` with W shaped (out, in)."""

    def __init__(self, name: str, weight: np.ndarray, bias: np.ndarray):
        self.name = name
        self.weight = weight
        self.bias = bias

    def params(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]

    def buffers(self):
        return []

    def forward(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ShuffleRlError(f"{self.name}: expected (B, {self.weight.shape[1]}), got {x.shape}")
        out = x @ self.weight.T + self.bias
        _check_finite(self.name, out)
        return out, x

    def backward(self, cache, dout: np.ndarray, need_dx: bool = True):
        x = cache
        grads = {f"{self.name}.weight": dout.T @ x, f"{self.name}.bias": dout.sum(axis=0)}
        dx = dout @ self.weight if need_dx else None
        return dx, grads


# Marks a layer cache that a backward has consumed.
_SPENT = object()


class Sequential:
    def __init__(self, layers: list):
        self.layers = layers

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def buffers(self):
        out = []
        for layer in self.layers:
            out.extend(layer.buffers())
        return out

    def forward(self, x: np.ndarray):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, dout: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients of the chain, keyed in walk order.

        Nothing needs the gradient with respect to the chain's input, so the
        walk stops at the first layer with parameters (a Conv2d or a Linear)
        and asks it for its parameter gradients only.

        Each layer's entry in ``caches`` is dropped as soon as its backward
        has run, so the walk frees the forward's activations as it goes and a
        forward's caches serve one backward; a second raises. A Linear that
        is not the first passes its input gradient on in the walk, and its
        weight gradient is computed after the walk, once the caches below it
        are freed. ``dout`` may be overwritten.
        """
        first = next((i for i, layer in enumerate(self.layers) if layer.params()), len(self.layers))
        grads: dict[str, np.ndarray] = {}
        deferred = []
        for i in range(len(self.layers) - 1, first - 1, -1):
            layer = self.layers[i]
            cache, caches[i] = caches[i], _SPENT
            if cache is _SPENT:
                raise ShuffleRlError(f"{layer.name}: forward cache already spent by a backward")
            if i == first:
                _, layer_grads = layer.backward(cache, dout, need_dx=False)
            elif isinstance(layer, Linear):
                deferred.append((layer, cache, dout))
                layer_grads = dict.fromkeys(name for name, _ in layer.params())  # keeps the walk order
                dout = dout @ layer.weight
            else:
                dout, layer_grads = layer.backward(cache, dout)
            grads.update(layer_grads)
        for layer, cache, dout in deferred:
            grads.update(layer.backward(cache, dout, need_dx=False)[1])
        return grads


def _row_steps(layers) -> list[int]:
    """The day step between consecutive input rows of each layer: 1 for a
    window's own rows, times the row stride of every Conv2d before it. A
    Conv2d's output row of day d reads its input rows of days d, d + step,
    ..., d + (kh - 1) * step, and a window that starts on day t holds a
    layer's input rows of days t, t + step, t + 2 * step, ..."""
    steps, step = [], 1
    for layer in layers:
        steps.append(step)
        if isinstance(layer, Conv2d):
            step *= layer.stride[0]
    return steps


# The float64 batch-norm moments are taken this many rows at a time.
_ROW_CHUNK = 32


def _conv_rows(conv: Conv2d, x: np.ndarray, step: int) -> np.ndarray:
    """``conv``'s (days, C, W) output row of every day whose input rows the
    (days, C, W) row stack ``x`` holds, when the row of day d reads x's rows
    d, d + step, ..., d + (kh - 1) * step.

    Each day's kh input rows are one sample of height kh for ``conv``'s own
    forward, so each output row is its own GEMM, one row wide, however many
    days ``x`` holds: a row has the same bits whether it comes from a stack
    of many days or of one. The samples are a strided view of ``x``, made
    with ``as_strided`` because ``sliding_window_view`` costs about 10 us
    more per call, which a streamed step pays once per stage.
    """
    kh = conv.weight.shape[2]
    (days, channels, width), (s0, s1, s2) = x.shape, x.strides
    shape = (days - (kh - 1) * step, channels, kh, width)
    return conv.forward(as_strided(x, shape, (s0, s1, step * s0, s2), writeable=False))[0][:, :, 0]


def refresh_batch_norm(chain: Sequential, rows: np.ndarray, starts, height: int) -> None:
    """Set each ``BatchNorm2d`` of ``chain`` to the biased mean and variance
    of its input over a batch of windows: the ``height``-row windows that
    start at the indices ``starts`` of the (days, C, W) row stack ``rows``.

    Stage by stage: a layer's input is computed with the statistics just
    set for the layers before it. Windows whose rows overlap form a run,
    such as a rollout's windows between two env resets, and each layer's
    rows are computed once per run, over the run's days, not once per
    window that reads them: each conv row by ``_conv_rows``, with the bits
    ``WindowStream`` gives it, and each batch-norm and ReLU row as one batch
    of the run's rows. A day's row then counts once for every window that
    reads it; a day no window reads counts for nothing, and rows that would
    span two runs are never computed. The per-channel moments of each
    ``_ROW_CHUNK`` rows are accumulated in float64 and combined as Chan,
    Golub and LeVeque ("Updating Formulae and a Pairwise Algorithm for
    Computing Sample Variances", 1979) do, which stays accurate when the
    mean is far larger than the spread. No array of every window's
    activations is made; every run's rows of one layer are held at a time,
    except those of the last batch norm's input, one run's at a time.
    """
    layers = chain.layers
    last = max((i for i, layer in enumerate(layers) if isinstance(layer, BatchNorm2d)), default=-1)
    if last < 0:
        return
    starts = np.sort(np.asarray(starts, dtype=np.int64))
    if len(starts) == 0 or starts[0] < 0 or starts[-1] + height > len(rows):
        raise ShuffleRlError(f"window starts must lie in [0, {len(rows) - height}], got {starts}")
    if not isinstance(layers[0], Conv2d):
        rows = rows.copy()  # a layer before the first Conv2d works in place
    runs = np.split(starts, np.flatnonzero(np.diff(starts) >= height) + 1)
    stacks = [rows[run[0] : run[-1] + height] for run in runs]
    offsets = [run - run[0] for run in runs]
    for i, (layer, step) in enumerate(zip(layers[: last + 1], _row_steps(layers))):
        if isinstance(layer, Conv2d):
            stacks = map(partial(_conv_rows, layer, step=step), stacks)
            if i + 1 < last:  # held for later layers; the last batch norm's input is made run by run
                stacks = list(stacks)
            height = conv_output_size(height, layer.weight.shape[2], layer.stride[0])
            continue
        if isinstance(layer, BatchNorm2d):
            n, mean, m2 = 0, 0.0, 0.0
            for x, run in zip(stacks, offsets):
                counts = np.bincount((run[:, None] + step * np.arange(height)).ravel(), minlength=len(x))
                read = np.flatnonzero(counts)
                for start in range(0, len(read), _ROW_CHUNK):
                    chunk = read[start : start + _ROW_CHUNK]
                    weights = counts[chunk]
                    part = x[chunk].astype(np.float64, copy=False)
                    k = int(weights.sum()) * part.shape[2]
                    chunk_mean = weights @ part.sum(axis=2) / k
                    part -= chunk_mean[:, None]
                    chunk_m2 = weights @ np.square(part, out=part).sum(axis=2)
                    delta = chunk_mean - mean
                    n += k
                    mean = mean + delta * (k / n)
                    m2 = m2 + chunk_m2 + delta**2 * (k * (n - k) / n)
            layer.running_mean[...] = mean
            layer.running_var[...] = m2 / n
        if i < last:  # a BatchNorm2d or ReLU, which maps each run's rows as a batch, in place
            for x in stacks:
                x[...] = layer.forward(x[:, :, None])[0][:, :, 0]


@dataclass(frozen=True)
class ArchSpec:
    """Concrete network architecture. A run config's ``arch`` section can
    override every field except ``kind``, which the agent fixes, and
    ``head_gain``."""

    kind: str = "cnn"  # "cnn" | "mlp"
    conv_channels: tuple[int, ...] = (16, 32)
    conv_kernels: tuple[tuple[int, int], ...] = ((8, 8), (4, 4))
    conv_strides: tuple[tuple[int, int], ...] = ((4, 4), (2, 2))
    embed_dim: int = 256
    mlp_hidden: tuple[int, ...] = (256, 256)
    log_std_init: float = field(default_factory=lambda: math.log(0.5))
    log_std_bounds: tuple[float, float] = (-5.0, 2.0)
    # Policy/value output layers start near zero (reference-implementation
    # practice): a randomly initialized value head otherwise dwarfs the
    # 1e-6-scaled rewards and poisons early advantages, and a hot policy
    # head can dive into the all-sell region it cannot explore out of.
    head_gain: float = 0.01

    def __post_init__(self):
        if self.kind not in ("cnn", "mlp"):
            raise ShuffleRlError(f"unknown extractor kind {self.kind!r}")
        if not len(self.conv_channels) == len(self.conv_kernels) == len(self.conv_strides):
            raise ShuffleRlError("conv_channels, conv_kernels, conv_strides must have equal length")
        if min((*self.conv_channels, self.embed_dim, *self.mlp_hidden)) < 1:
            raise ShuffleRlError("conv_channels, embed_dim and mlp_hidden entries must be >= 1")
        if any(n < 1 for pair in (*self.conv_kernels, *self.conv_strides) for n in pair):
            raise ShuffleRlError("conv_kernels and conv_strides entries must be >= 1")
        low, high = self.log_std_bounds
        # `not low < high` also rejects NaN, which JSON configs can hold.
        if not low < high:
            raise ShuffleRlError(f"log_std_bounds must have low < high, got {self.log_std_bounds}")
        if not math.isfinite(self.log_std_init):
            raise ShuffleRlError(f"log_std_init must be finite, got {self.log_std_init}")

    def to_dict(self) -> dict:
        return asdict(self)


# The ArchSpec fields that only one extractor kind reads. A run config's
# agent sets its own kind's fields and the log-std ones, which every kind
# reads; the other kind's would leave its network as it is.
EXTRACTOR_FIELDS = {
    "cnn": ("conv_channels", "conv_kernels", "conv_strides", "embed_dim"),
    "mlp": ("mlp_hidden",),
}


# _kaiming draws this many float64 values at a time.
_INIT_CHUNK = 1 << 16


def _kaiming(
    rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int, dtype, gain: float = 1.0
) -> np.ndarray:
    """Kaiming-normal weights drawn in float64, times ``gain``, cast to
    ``dtype``. With no generator nothing is drawn: the array is left
    uninitialized for ``load_checkpoint`` to fill.

    The draw goes through a fixed-size float64 chunk straight into the
    result, so no full-size float64 temporary exists; the generator's stream
    and every rounding step are those of the one-shot
    ``(gain * (rng.standard_normal(shape) * sqrt(2 / fan_in))).astype(dtype)``.
    """
    weight = np.empty(shape, dtype)
    if rng is None:
        return weight
    scale = math.sqrt(2.0 / fan_in)
    flat = weight.reshape(-1)
    z = np.empty(min(flat.size, _INIT_CHUNK))
    for start in range(0, flat.size, _INIT_CHUNK):
        part = flat[start : start + _INIT_CHUNK]
        chunk = z[: part.size]
        rng.standard_normal(out=chunk)
        chunk *= scale
        if gain != 1.0:
            chunk *= gain
        part[...] = chunk
    return weight


def cnn_feature_shapes(
    arch: ArchSpec, obs_shape: tuple[int, int]
) -> list[tuple[int, int, int]]:
    """(channels, height, width) after each conv layer, for shape audits."""
    h, w = obs_shape
    shapes = []
    for ch, (kh, kw), (sh, sw) in zip(arch.conv_channels, arch.conv_kernels, arch.conv_strides):
        h = conv_output_size(h, kh, sh)
        w = conv_output_size(w, kw, sw)
        shapes.append((ch, h, w))
    return shapes


def build_extractor(
    arch: ArchSpec, obs_shape: tuple[int, ...], rng: np.random.Generator | None, dtype=np.float64
) -> Sequential:
    """Feature extractor mapping an observation batch to embeddings.

    The CNN variant expects 2-D observations (window rows by feature
    columns) and views them as one input channel; the MLP variant flattens
    whatever it is given.
    """
    if arch.kind == "cnn":
        if len(obs_shape) != 2:
            raise ShuffleRlError(f"cnn extractor needs (H, W) observations, got shape {obs_shape}")
        layers: list = []
        in_ch = 1
        shapes = cnn_feature_shapes(arch, obs_shape)
        for li, (ch, (kh, kw), stride) in enumerate(
            zip(arch.conv_channels, arch.conv_kernels, arch.conv_strides), start=1
        ):
            weight = _kaiming(rng, (ch, in_ch, kh, kw), in_ch * kh * kw, dtype)
            layers.append(Conv2d(f"conv{li}", weight, np.zeros(ch, dtype), stride))
            layers.append(BatchNorm2d(f"bn{li}", np.ones(ch, dtype), np.zeros(ch, dtype)))
            layers.append(ReLU(f"relu{li}"))
            in_ch = ch
        flat = int(np.prod(shapes[-1]))
        layers.append(Flatten("flatten"))
        weight = _kaiming(rng, (arch.embed_dim, flat), flat, dtype)
        layers.append(Linear("embed", weight, np.zeros(arch.embed_dim, dtype)))
        layers.append(ReLU("relu_embed"))
        return Sequential(layers)

    in_features = int(np.prod(obs_shape))
    layers = [Flatten("flatten")]
    for li, hidden in enumerate(arch.mlp_hidden, start=1):
        weight = _kaiming(rng, (hidden, in_features), in_features, dtype)
        layers.append(Linear(f"fc{li}", weight, np.zeros(hidden, dtype)))
        layers.append(ReLU(f"relu{li}"))
        in_features = hidden
    return Sequential(layers)


def extractor_out_dim(arch: ArchSpec, obs_shape: tuple[int, ...]) -> int:
    if arch.kind == "cnn":
        return arch.embed_dim
    return arch.mlp_hidden[-1] if arch.mlp_hidden else int(np.prod(obs_shape))


class ActorCritic:
    """Shared extractor trunk with a Gaussian policy head and a value head.

    The action log-stds are a state-independent learned vector, clamped to
    the configured bounds on every use.

    Parameters, batch-norm statistics, caches and gradients all have the
    ``dtype`` the network is built with; observations and the output
    gradients handed to ``backward`` are cast to it.

    The initial weights are drawn from ``seed``. ``_draw=False`` draws
    nothing and leaves the weights uninitialized; only ``load_checkpoint``,
    which overwrites every tensor, builds a network that way.
    """

    def __init__(
        self,
        arch: ArchSpec,
        obs_shape: tuple[int, ...],
        action_dim: int,
        seed: int,
        dtype=np.float64,
        *,
        _draw: bool = True,
    ):
        self.arch = arch
        self.obs_shape = tuple(int(s) for s in obs_shape)
        self.action_dim = int(action_dim)
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed) if _draw else None
        self.extractor = build_extractor(arch, self.obs_shape, rng, self.dtype)
        embed = extractor_out_dim(arch, self.obs_shape)
        policy_w = _kaiming(rng, (action_dim, embed), embed, self.dtype, arch.head_gain)
        value_w = _kaiming(rng, (1, embed), embed, self.dtype, arch.head_gain)
        self.policy_head = Linear("policy", policy_w, np.zeros(action_dim, self.dtype))
        self.value_head = Linear("value", value_w, np.zeros(1, self.dtype))
        self.log_std = np.full(action_dim, arch.log_std_init, dtype=self.dtype)

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        return [
            *self.extractor.params(),
            *self.policy_head.params(),
            *self.value_head.params(),
            ("log_std", self.log_std),
        ]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return self.extractor.buffers()

    def effective_log_std(self) -> np.ndarray:
        low, high = self.arch.log_std_bounds
        return np.clip(self.log_std, low, high)

    def _as_batch(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=self.dtype)
        if obs.shape[1:] != self.obs_shape:
            raise ShuffleRlError(f"expected observations of shape {self.obs_shape}, got {obs.shape[1:]}")
        if self.arch.kind == "cnn":
            return obs[:, None, :, :]  # add the single input channel
        return obs

    def refresh_batch_norm(self, rows, starts) -> None:
        """``refresh_batch_norm`` of the extractor over the observations
        that start at the indices ``starts`` of the row stack ``rows``, one
        row per day (``RolloutBuffer.rows`` and ``starts``, or one window
        and ``[0]``). An MLP has nothing to refresh and reads no row."""
        if self.arch.kind != "cnn":
            return
        rows = np.asarray(rows, dtype=self.dtype)
        if rows.shape[1:] != self.obs_shape[1:]:
            raise ShuffleRlError(f"expected rows of shape {self.obs_shape[1:]}, got {rows.shape[1:]}")
        refresh_batch_norm(self.extractor, rows[:, None], starts, self.obs_shape[0])

    def forward(self, obs: np.ndarray):
        """Batched forward; returns (means, values, cache)."""
        x = self._as_batch(obs)
        embed, caches = self.extractor.forward(x)
        mu, policy_cache = self.policy_head.forward(embed)
        value, value_cache = self.value_head.forward(embed)
        return mu, value[:, 0], (caches, policy_cache, value_cache)

    def backward(self, cache, dmu: np.ndarray, dvalue: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(mu) and d(loss)/d(value).

        The log_std gradient is handled by the caller (the distribution
        math lives with the policy objective; clamping is applied there).
        """
        caches, policy_cache, value_cache = cache
        dmu = np.asarray(dmu, dtype=self.dtype)
        dvalue = np.asarray(dvalue, dtype=self.dtype)
        dembed_p, policy_grads = self.policy_head.backward(policy_cache, dmu)
        dembed_v, value_grads = self.value_head.backward(value_cache, dvalue[:, None])
        extractor_grads = self.extractor.backward(caches, dembed_p + dembed_v)
        return {**extractor_grads, **policy_grads, **value_grads}

    def log_std_grad_mask(self) -> np.ndarray:
        """1 where the raw log_std is inside the clamp bounds, else 0."""
        low, high = self.arch.log_std_bounds
        return ((self.log_std > low) & (self.log_std < high)).astype(np.float64)


def slid_by_one_row(window: np.ndarray, previous: np.ndarray) -> bool:
    """Whether ``window`` is ``previous`` slid up by one row, bit for bit,
    so that -0.0 differs from 0.0 and a NaN matches its own bits."""
    bits = f"u{window.itemsize}"
    return np.array_equal(window[:-1].view(bits), previous[1:].view(bits))


class WindowStream:
    """Forward of an ``ActorCritic`` over a sequence of windows, one
    observation at a time, reusing the convolution rows of the window before
    (the cached generation of Paine et al., "Fast Wavenet Generation
    Algorithm", 2016).

    Batch norm runs on fixed statistics, so each (Conv2d, BatchNorm2d, ReLU)
    stage maps a few nearby rows to one output row: the stage's row of day d
    reads its input rows of days d, d + s, ..., d + (kh - 1) * s, where s is
    the product of the earlier stages' row strides. Each stage keeps a ring
    of the rows still needed: the last stage its rows of every start day in
    the window, every other stage the rows that the next stage's newest row
    reads. Every stage row comes from ``_conv_rows``, so every GEMM is one
    row wide. An observation that equals the one before it slid up by one
    row, bit for bit, computes one new row per stage, from the rows of the
    ring before it, unless the stages' parameters or batch-norm statistics
    changed since the rings were filled. Any other observation (the first,
    the one after an env reset) refills the rings: each stage computes its
    rows of the whole window in one call per layer.

    Every row is the function of its inputs that ``net.forward`` computes;
    only the width of its GEMM differs (one row instead of the window's), so
    the results equal ``net.forward``'s bit for bit where the BLAS rounds
    both alike. An MLP has no conv stage and runs ``net.forward``.
    ``rebuilds`` counts the observations that refilled the rings.
    """

    def __init__(self, net: ActorCritic):
        self.net = net
        layers = net.extractor.layers
        flat = next(i for i, layer in enumerate(layers) if isinstance(layer, Flatten))
        self._tail = layers[flat:]
        # Per stage: its layers, the day step between the input rows one of
        # its rows reads, and the span of those rows, (kh - 1) * step + 1.
        steps = _row_steps(layers[: flat + 1])
        self._stages = [
            (layers[i : i + 3], steps[i], (layers[i].weight.shape[2] - 1) * steps[i] + 1) for i in range(0, flat, 3)
        ]
        # The day step between the last stage's rows that a window's features hold.
        self._step = steps[flat]
        # Each ring's rows, and how many rows have replaced its oldest since the refill.
        self._rings: list[np.ndarray] = []
        self._heads: list[int] = []
        self._window: np.ndarray | None = None
        self._state = b""
        self.rebuilds = 0

    def _stage_state(self) -> bytes:
        """The bits of the conv stages' parameters and batch-norm statistics."""
        layers = [layer for stage, _, _ in self._stages for layer in stage]
        return b"".join(t.tobytes() for layer in layers for _, t in (*layer.params(), *layer.buffers()))

    @staticmethod
    def _rows(stage, x: np.ndarray, step: int) -> np.ndarray:
        """A stage's (days, C, W) rows of every day whose input rows ``x`` holds."""
        conv, *maps = stage
        x = _conv_rows(conv, x, step)
        for layer in maps:
            x = layer.forward(x[:, :, None])[0][:, :, 0]
        return x

    def _features(self, window: np.ndarray) -> np.ndarray:
        """The last conv stage's (1, C, oh, ow) output for one (H, W) window."""
        # Until this window's rows are in, the rings match no window, so a
        # forward that raises (a NaN, say) leaves the next to refill.
        previous, self._window = self._window, None
        state = self._stage_state()
        rows, head = window[:, None], 0  # (days, channels, width)
        if previous is not None and slid_by_one_row(window, previous) and state == self._state:
            for k, (stage, step, span) in enumerate(self._stages):
                # The newest row reads the last span rows before it, oldest first.
                x = rows.take(head + np.arange(len(rows) - span, len(rows)), axis=0, mode="wrap")
                rows, head = self._rings[k], self._heads[k]
                rows[head % len(rows)] = self._rows(stage, x, step)[0]
                self._heads[k] = head = head + 1
        else:
            self.rebuilds += 1
            self._rings = []
            for k, (stage, step, _) in enumerate(self._stages):
                rows = self._rows(stage, rows, step)
                # The rows that the next stage's newest row reads; the last stage's all.
                keep = self._stages[k + 1][2] if k + 1 < len(self._stages) else len(rows)
                self._rings.append(rows[len(rows) - keep :].copy())
            self._heads = [0] * len(self._rings)
            self._state = state
        self._window = window.copy()
        last = self._rings[-1]
        reads = self._heads[-1] + np.arange(0, len(last), self._step)
        return last.take(reads, axis=0, mode="wrap").transpose(1, 0, 2)[None]

    def forward(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(means, values) of a batch of observations, streamed in order."""
        net = self.net
        if not self._stages:
            mu, value, _ = net.forward(obs)
            return mu, value
        x = np.concatenate([self._features(window[0]) for window in net._as_batch(obs)])
        for layer in self._tail:
            x, _ = layer.forward(x)
        mu, _ = net.policy_head.forward(x)
        value, _ = net.value_head.forward(x)
        return mu, value[:, 0]


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    worst_index: tuple

    def __str__(self):
        return f"max relative error {self.max_rel_error:.3e} at {self.worst_param}{list(self.worst_index)}"


def grad_check(
    compute_loss,
    params: list[tuple[str, np.ndarray]],
    h: float = 1e-4,
    max_entries_per_param: int | None = None,
    seed: int = 0,
    denominator_floor: float = 1e-6,
) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    ``compute_loss()`` must return ``(scalar_loss, grads_by_name)`` and be a
    deterministic function of the current parameter values. Parameters are
    perturbed in place and restored. For large tensors a fixed-seed subset
    of entries is checked.

    The relative error divides by ``max(|analytic|, |fd|, floor)``; the
    floor keeps mathematically-zero gradients (whose central differences
    are pure roundoff, about eps * |loss| / h) from registering as
    disagreement.
    """
    rng = np.random.default_rng(seed)
    _, grads = compute_loss()
    worst = GradCheckResult(0.0, "<none>", ())
    for name, param in params:
        grad = grads[name]
        flat_indices = np.arange(param.size)
        if max_entries_per_param is not None and param.size > max_entries_per_param:
            flat_indices = rng.choice(param.size, size=max_entries_per_param, replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(flat, param.shape)
            original = param[idx]
            param[idx] = original + h
            loss_plus, _ = compute_loss()
            param[idx] = original - h
            loss_minus, _ = compute_loss()
            param[idx] = original
            fd = (loss_plus - loss_minus) / (2 * h)
            analytic = grad[idx]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), denominator_floor)
            if rel > worst.max_rel_error:
                worst = GradCheckResult(rel, name, idx)
    return worst
