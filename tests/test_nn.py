import json

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import row_stack
from shufflerl import nn
from shufflerl.checkpoint import load_checkpoint, save_checkpoint
from shufflerl.errors import ConfigError, NonFiniteError, ShuffleRlError
from shufflerl.nn import (
    _DX_GROUP,
    ActorCritic,
    ArchSpec,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    ReLU,
    build_extractor,
    cnn_feature_shapes,
    conv_output_size,
    WindowStream,
    grad_check,
)
from shufflerl.data import generate_synthetic_market
from shufflerl.env import EnvConfig, TradingEnv
from shufflerl.ppo import AgentSpec, make_env_config
from shufflerl.runconfig import read_section


def relu_kink_margin(extractor, x):
    """Smallest |preactivation| feeding any ReLU in the chain."""
    margin = np.inf
    for layer in extractor.layers:
        if isinstance(layer, ReLU):
            margin = min(margin, float(np.abs(x).min()))
        x, _ = layer.forward(x)
    return margin


def fd_check_layer(layer, x, seed=0, h=1e-4, max_entries=None):
    """Finite-difference audit of one layer: loss = sum(output * R).

    The layer gets copies of ``x`` and ``R``, which a BatchNorm2d or a ReLU
    overwrites."""
    rng = np.random.default_rng(seed)
    out, _ = layer.forward(x.copy())
    projection = rng.standard_normal(out.shape)

    def compute_loss():
        o, cache = layer.forward(x.copy())
        loss = float((o * projection).sum())
        dx, grads = layer.backward(cache, projection.copy())
        grads = dict(grads)
        grads["__input__"] = dx
        return loss, grads

    params = list(layer.params()) + [("__input__", x)]
    return grad_check(compute_loss, params, h=h, max_entries_per_param=max_entries)


class TestConvForward:
    def test_identity_kernel(self):
        layer = Conv2d("c", np.ones((1, 1, 1, 1)), np.zeros(1), (1, 1))
        x = np.random.default_rng(0).standard_normal((2, 1, 3, 4))
        out, _ = layer.forward(x)
        np.testing.assert_array_equal(out, x)

    def test_hand_cross_correlation(self):
        kernel = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        layer = Conv2d("c", kernel, np.zeros(1), (1, 1))
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out, _ = layer.forward(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 5.0

    def test_matches_nested_loop_cross_correlation(self):
        # Stride remainders on both axes ((10-3) % 2 and (12-2) % 3), two
        # input channels and an asymmetric non-square kernel, so any mix-up
        # of window order (kh/kw, channel, stride axis) changes the output.
        rng = np.random.default_rng(11)
        weight = rng.standard_normal((3, 2, 3, 2))
        bias = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 10, 12))
        sh, sw = 2, 3
        out, _ = Conv2d("c", weight, bias, (sh, sw)).forward(x)
        batch, out_ch, in_ch, kh, kw = 2, 3, 2, 3, 2
        oh, ow = (10 - kh) // sh + 1, (12 - kw) // sw + 1
        expected = np.zeros((batch, out_ch, oh, ow))
        for n in range(batch):
            for o in range(out_ch):
                for i in range(oh):
                    for j in range(ow):
                        acc = bias[o]
                        for c in range(in_ch):
                            for u in range(kh):
                                for v in range(kw):
                                    acc += weight[o, c, u, v] * x[n, c, i * sh + u, j * sw + v]
                        expected[n, o, i, j] = acc
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_bias_added(self):
        layer = Conv2d("c", np.ones((2, 1, 1, 1)), np.array([1.0, -2.0]), (1, 1))
        x = np.zeros((1, 1, 2, 2))
        out, _ = layer.forward(x)
        assert np.all(out[0, 0] == 1.0) and np.all(out[0, 1] == -2.0)

    def test_default_architecture_sizes(self):
        assert conv_output_size(90, 8, 4) == 21
        assert conv_output_size(511, 8, 4) == 126
        assert conv_output_size(21, 4, 2) == 9
        assert conv_output_size(126, 4, 2) == 62

    def test_shape_formula_exhaustive(self):
        rng = np.random.default_rng(1)
        for size_h in range(1, 13):
            for kh in range(1, size_h + 1):
                for stride in (1, 2, 3):
                    layer = Conv2d("c", rng.standard_normal((1, 1, kh, 1)), np.zeros(1), (stride, 1))
                    out, _ = layer.forward(rng.standard_normal((1, 1, size_h, 1)))
                    assert out.shape[2] == (size_h - kh) // stride + 1

    def test_kernel_too_large(self):
        layer = Conv2d("c", np.ones((1, 1, 5, 5)), np.zeros(1), (1, 1))
        with pytest.raises(ShuffleRlError):
            layer.forward(np.zeros((1, 1, 3, 3)))

    def test_channel_mismatch(self):
        layer = Conv2d("c", np.ones((1, 2, 1, 1)), np.zeros(1), (1, 1))
        with pytest.raises(ShuffleRlError):
            layer.forward(np.zeros((1, 1, 3, 3)))


class TestConvBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(2)
        layer = Conv2d("c", rng.standard_normal((2, 1, 2, 2)), np.zeros(2), (1, 1))
        x = rng.standard_normal((1, 1, 4, 4))
        out, cache = layer.forward(x)
        dx, grads = layer.backward(cache, np.zeros_like(out))
        assert np.all(dx == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_identity_kernel_passes_gradient(self):
        layer = Conv2d("c", np.ones((1, 1, 1, 1)), np.zeros(1), (1, 1))
        x = np.random.default_rng(3).standard_normal((2, 1, 3, 3))
        _, cache = layer.forward(x)
        upstream = np.random.default_rng(4).standard_normal((2, 1, 3, 3))
        dx, _ = layer.backward(cache, upstream)
        np.testing.assert_array_equal(dx, upstream)

    def test_finite_differences_small(self):
        rng = np.random.default_rng(5)
        layer = Conv2d("c", rng.standard_normal((2, 1, 2, 2)), rng.standard_normal(2), (1, 1))
        x = rng.standard_normal((2, 1, 3, 4))
        result = fd_check_layer(layer, x, seed=6)
        assert result.max_rel_error < 1e-5, str(result)

    @pytest.mark.parametrize(
        "x_shape",
        [(2, 2, 7, 8), (2, 2, 8, 10), (1, 2, 8, 10)],
        ids=["exact-fit", "stride-remainders", "batch1"],
    )
    def test_finite_differences_strided_multichannel(self, x_shape):
        rng = np.random.default_rng(7)
        layer = Conv2d("c", rng.standard_normal((3, 2, 3, 2)), rng.standard_normal(3), (2, 3))
        x = rng.standard_normal(x_shape)
        result = fd_check_layer(layer, x, seed=8, max_entries=40)
        assert result.max_rel_error < 1e-5, str(result)


def reference_conv(layer, x, dout):
    """Reference: whole-batch im2col with broadcast GEMMs, as (out, dx,
    dweight, dbias). Same GEMM shapes and summation order as ``Conv2d``:
    per sample for the output and the weight gradient, per group of
    ``_DX_GROUP`` samples for the input gradient."""
    out_ch, in_ch, kh, kw = layer.weight.shape
    b = x.shape[0]
    sh, sw = layer.stride
    oh, ow = dout.shape[2:]
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, in_ch * kh * kw, oh * ow)
    out = layer.weight.reshape(out_ch, -1) @ cols
    out += layer.bias[:, None]
    dout_mat = dout.reshape(b, out_ch, oh * ow)
    dweight = (dout_mat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(layer.weight.shape)
    dbias = dout_mat.sum(axis=(0, 2))
    dx = np.zeros(x.shape)
    for g in range(0, b, _DX_GROUP):
        group = dout_mat[g : g + _DX_GROUP]
        n = len(group)
        group = group.transpose(1, 0, 2).reshape(out_ch, n * oh * ow)
        for u in range(kh):
            w_row = layer.weight[:, :, u, :].reshape(out_ch, in_ch * kw)
            dcols = (w_row.T @ group).reshape(in_ch, kw, n, oh, ow).transpose(2, 0, 1, 3, 4)
            for v in range(kw):
                dx[g : g + n, :, u : u + sh * oh : sh, v : v + sw * ow : sw] += dcols[:, :, v]
    return out.reshape(b, out_ch, oh, ow), dx, dweight, dbias


@pytest.mark.parametrize(
    "w_shape, stride, x_shape",
    [
        ((16, 1, 8, 8), (4, 4), (3, 1, 90, 511)),
        ((32, 16, 4, 4), (2, 2), (3, 16, 21, 126)),
        ((3, 2, 3, 2), (2, 3), (3, 2, 8, 10)),
        ((32, 16, 4, 4), (2, 2), (1, 16, 21, 126)),
        ((32, 16, 4, 4), (2, 2), (10, 16, 21, 126)),
        ((3, 2, 2, 1), (3, 2), (3, 2, 11, 9)),
        ((2, 3, 3, 2), (1, 1), (9, 3, 6, 7)),
    ],
    ids=["paper-conv1", "paper-conv2", "stride-remainders", "batch1", "two-groups",
         "kernel-shorter-than-stride", "stride-1"],
)
def test_conv_matches_whole_batch_reference_bitwise(w_shape, stride, x_shape):
    rng = np.random.default_rng(25)
    layer = Conv2d("c", rng.standard_normal(w_shape), rng.standard_normal(w_shape[0]), stride)
    x = rng.standard_normal(x_shape)
    out, cache = layer.forward(x)
    dout = rng.standard_normal(out.shape)
    dx, grads = layer.backward(cache, dout)
    out_ref, dx_ref, dweight_ref, dbias_ref = reference_conv(layer, x, dout)
    assert out.tobytes() == out_ref.tobytes()
    assert dx.tobytes() == dx_ref.tobytes()
    assert grads["c.weight"].tobytes() == dweight_ref.tobytes()
    assert grads["c.bias"].tobytes() == dbias_ref.tobytes()


def test_conv_forward_caches_only_its_input():
    rng = np.random.default_rng(26)
    layer = Conv2d("c", rng.standard_normal((16, 1, 8, 8)), np.zeros(16), (4, 4))
    x = rng.standard_normal((2, 1, 90, 511))
    _, cache = layer.forward(x)
    assert cache is x


def set_statistics(layer, rng):
    """Non-default batch-norm statistics, as a refresh leaves them."""
    layer.running_mean[:] = rng.standard_normal(layer.running_mean.shape)
    layer.running_var[:] = rng.uniform(0.5, 2.0, layer.running_var.shape)


class TestBatchNorm:
    def test_constant_input_maps_to_shift(self):
        layer = BatchNorm2d("bn", np.ones(2), np.array([0.0, 1.5]))
        x = np.full((3, 2, 4, 4), 7.0)
        nn.refresh_batch_norm(nn.Sequential([layer]), *row_stack(x), 4)
        out, _ = layer.forward(x)
        np.testing.assert_array_equal(out, np.broadcast_to(np.array([0.0, 1.5])[:, None, None], out.shape))

    def test_inference_hand_example(self):
        layer = BatchNorm2d("bn", gamma=np.array([2.0]), beta=np.array([0.5]), eps=1e-5)
        layer.running_mean[:] = 1.0
        layer.running_var[:] = 4.0
        x = np.full((1, 1, 1, 2), 3.0)
        out, _ = layer.forward(x)
        expected = (3.0 - 1.0) / np.sqrt(4.0 + 1e-5) * 2.0 + 0.5
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(10)
        layer = BatchNorm2d("bn", np.ones(3), np.zeros(3))
        _, cache = layer.forward(rng.standard_normal((2, 3, 2, 2)))
        dx, grads = layer.backward(cache, np.zeros((2, 3, 2, 2)))
        assert np.all(dx == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(11)
        layer = BatchNorm2d("bn", rng.uniform(0.5, 1.5, 3), rng.standard_normal(3))
        set_statistics(layer, rng)
        x = rng.standard_normal((2, 3, 2, 2)) * 2.0
        result = fd_check_layer(layer, x, seed=12)
        assert result.max_rel_error < 1e-5, str(result)


@pytest.mark.parametrize(
    "x_shape", [(3, 4, 5, 7), (1, 3, 2, 3), (1, 3, 1, 1), (16, 8, 9, 31)],
    ids=["odd-hw", "batch1", "one-element", "wide"],
)
def test_batchnorm_matches_reference_formulas(x_shape):
    rng = np.random.default_rng(24)
    channels = x_shape[1]
    layer = BatchNorm2d("bn", rng.uniform(0.5, 1.5, channels), rng.standard_normal(channels))
    set_statistics(layer, rng)
    x = rng.standard_normal(x_shape) * 3.0 + 2.0
    dout = rng.standard_normal(x_shape)
    shape = (1, -1, 1, 1)
    inv_std = (1.0 / np.sqrt(layer.running_var + layer.eps)).reshape(shape)
    xhat = (x - layer.running_mean.reshape(shape)) * inv_std
    out, cache = layer.forward(x.copy())
    dx, grads = layer.backward(cache, dout.copy())

    def assert_close(actual, expected):
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()

    assert_close(out, layer.gamma.reshape(shape) * xhat + layer.beta.reshape(shape))
    assert_close(dx, dout * layer.gamma.reshape(shape) * inv_std)
    assert_close(grads["bn.gamma"], (dout * xhat).sum(axis=(0, 2, 3)))
    assert_close(grads["bn.beta"], dout.sum(axis=(0, 2, 3)))


# Float64 networks for the refresh tests: three conv stages, a kernel
# shorter than its row stride, and a kernel that is not a multiple of it.
REFRESH_ARCH = ArchSpec(kind="cnn", conv_channels=(2, 3, 2), conv_kernels=((3, 3), (2, 2), (2, 2)),
                        conv_strides=((1, 2), (2, 1), (1, 1)), embed_dim=6)
REFRESH_ARCHS = [
    pytest.param(REFRESH_ARCH, id="three-stages"),
    pytest.param(ArchSpec(kind="cnn", conv_channels=(2, 3), conv_kernels=((2, 3), (1, 2)),
                          conv_strides=((3, 2), (2, 1)), embed_dim=6), id="kernel-shorter-than-stride"),
    pytest.param(ArchSpec(kind="cnn", conv_channels=(2, 3), conv_kernels=((5, 3), (3, 2)),
                          conv_strides=((2, 1), (2, 1)), embed_dim=6), id="kernel-not-a-multiple-of-stride"),
]


def sliding_runs(rng, count, runs, height, width):
    """A row stack of ``count`` windows of ``height`` rows in ``runs`` runs of
    sliding windows, as a rollout buffer stores them, with run r scaled by
    1e3**r, and the row each window starts at."""
    rows, starts = [], []
    for r, run in enumerate(np.array_split(np.arange(count), runs)):
        if len(run):
            starts.extend(sum(map(len, rows)) + np.arange(len(run)))
            rows.append((rng.standard_normal((len(run) + height - 1, width)) + 1.0) * 1e3**r)
    return np.concatenate(rows), np.array(starts)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "arch, obs_shape", [pytest.param(ArchSpec(kind="cnn"), (90, 511), id="paper"),
                        *[pytest.param(*case.values, (14, 9), id=case.id) for case in REFRESH_ARCHS]]
)
def test_conv_rows_are_one_sample_forwards_bitwise(arch, obs_shape, dtype):
    """Row d of ``_conv_rows`` has the bits of ``conv.forward`` on day d's
    own (1, C, kh, W) input, the row a stream computes, however many days
    the stack holds. At paper shape the float32 ``conv1`` input is one on
    which a GEMM 32 rows wide rounds a row differently."""
    net = ActorCritic(arch, obs_shape, 2, seed=37, dtype=dtype)
    rng = np.random.default_rng(0)
    width = obs_shape[1]
    layers = net.extractor.layers
    for conv, step in zip(layers, nn._row_steps(layers)):
        if not isinstance(conv, Conv2d):
            continue
        _, in_ch, kh, kw = conv.weight.shape
        x = (rng.standard_normal((299, in_ch, width)) * 30 + 50).astype(dtype)
        rows = nn._conv_rows(conv, x, step)
        assert len(rows) == len(x) - (kh - 1) * step
        for d, row in enumerate(rows):
            one = conv.forward(x[d : d + (kh - 1) * step + 1 : step].transpose(1, 0, 2)[None])[0]
            assert row.tobytes() == one[0, :, 0].tobytes(), f"{conv.name} day {d}"
        width = conv_output_size(width, kw, conv.stride[1])


class TestRefreshBatchNorm:
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("count", [1, 17, 40])
    @pytest.mark.parametrize("arch", REFRESH_ARCHS)
    def test_statistics_are_the_moments_of_each_input_over_all_windows(self, arch, count, runs):
        rng = np.random.default_rng(33)
        rows, starts = sliding_runs(rng, count, runs, 14, 9)
        net = ActorCritic(arch, (14, 9), 2, seed=34)
        net.refresh_batch_norm(rows, starts)
        # Window by window and stage by stage: each batch-norm input follows
        # the statistics just set for the layers before it. A row spanning
        # two runs belongs to no window, and a run's scale is 1e3 times the
        # one before, so counting one would move the moments far.
        x, checked = np.stack([rows[start : start + 14] for start in starts])[:, None], 0
        for layer in net.extractor.layers:
            if isinstance(layer, BatchNorm2d):
                np.testing.assert_allclose(layer.running_mean, x.mean(axis=(0, 2, 3)), rtol=1e-12)
                np.testing.assert_allclose(layer.running_var, x.var(axis=(0, 2, 3)), rtol=1e-12)
                checked += 1
            x, _ = layer.forward(x)
        assert checked == len(arch.conv_channels)

    def test_accurate_when_the_mean_is_a_thousand_times_the_spread(self):
        rng = np.random.default_rng(35)
        layer = BatchNorm2d("bn", np.ones(2, np.float32), np.zeros(2, np.float32))
        x = (rng.standard_normal((40, 2, 5, 7)) + np.array([1e3, -1e3])[:, None, None]).astype(np.float32)
        nn.refresh_batch_norm(nn.Sequential([layer]), *row_stack(x), 5)
        exact = x.astype(np.float64)
        np.testing.assert_allclose(layer.running_mean, exact.mean(axis=(0, 2, 3)), rtol=1e-7)
        np.testing.assert_allclose(layer.running_var, exact.var(axis=(0, 2, 3)), rtol=1e-6)

    def test_leaves_the_windows_and_an_mlp_as_they_were(self):
        windows = np.random.default_rng(36).standard_normal((5, 14, 9))
        before = windows.tobytes()
        ActorCritic(REFRESH_ARCH, (14, 9), 2, seed=34).refresh_batch_norm(*row_stack(windows))
        assert windows.tobytes() == before

        class Unread:
            def __array__(self, *args, **kwargs):
                pytest.fail("an MLP reads no window")

            __getitem__ = __len__ = __array__

        mlp = ActorCritic(ArchSpec(kind="mlp", mlp_hidden=(3,)), (14, 9), 2, seed=34)
        mlp.refresh_batch_norm(Unread(), np.arange(len(windows)))

    @pytest.mark.parametrize("starts", [[], [-1], [2]], ids=["none", "before-the-stack", "past-the-stack"])
    def test_a_window_outside_the_stack_is_an_error(self, starts):
        net = ActorCritic(REFRESH_ARCH, (14, 9), 2, seed=34)
        with pytest.raises(ShuffleRlError, match="window starts"):
            net.refresh_batch_norm(np.zeros((15, 9)), starts)


class TestReluAndLinear:
    def test_relu_values(self):
        layer = ReLU("r")
        out, _ = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_backward_mask(self):
        layer = ReLU("r")
        x = np.array([[-1.0, 3.0]])
        _, cache = layer.forward(x)
        dx, _ = layer.backward(cache, np.array([[5.0, 7.0]]))
        np.testing.assert_array_equal(dx, [[0.0, 7.0]])

    def test_relu_backward_mask_from_output_is_input_mask(self):
        layer = ReLU("r")
        x = np.array([[np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0, -3.0, 5e-324, -5e-324]])
        with np.errstate(invalid="ignore"):  # -inf * 0
            _, cache = layer.forward(x.copy())
        dout = np.arange(1.0, 10.0)[None, :]
        dx, _ = layer.backward(cache, dout.copy())
        assert dx.tobytes() == (dout * (x > 0)).tobytes()

    def test_linear_identity_passthrough(self):
        layer = Linear("l", np.eye(3), np.zeros(3))
        x = np.random.default_rng(14).standard_normal((4, 3))
        out, _ = layer.forward(x)
        np.testing.assert_array_equal(out, x)

    def test_linear_finite_differences(self):
        rng = np.random.default_rng(15)
        layer = Linear("l", rng.standard_normal((3, 5)), rng.standard_normal(3))
        x = rng.standard_normal((4, 5))
        result = fd_check_layer(layer, x, seed=16)
        assert result.max_rel_error < 1e-6, str(result)

    def test_flatten_round_trip(self):
        layer = Flatten("f")
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out, cache = layer.forward(x)
        assert out.shape == (2, 12)
        dx, _ = layer.backward(cache, out)
        np.testing.assert_array_equal(dx, x)


class TestNoInputGradient:
    @pytest.mark.parametrize(
        "layer, x_shape",
        [
            (Conv2d("c", np.arange(36.0).reshape(3, 2, 3, 2) / 7 - 2, np.arange(3.0), (2, 3)), (2, 2, 8, 10)),
            (Linear("l", np.arange(15.0).reshape(3, 5) / 4 - 1, np.arange(3.0)), (4, 5)),
        ],
        ids=["conv", "linear"],
    )
    def test_param_grads_match_full_call(self, layer, x_shape):
        rng = np.random.default_rng(20)
        out, cache = layer.forward(rng.standard_normal(x_shape))
        upstream = rng.standard_normal(out.shape)
        dx_full, full = layer.backward(cache, upstream)
        dx, grads = layer.backward(cache, upstream, need_dx=False)
        assert dx is None and dx_full is not None
        assert grads.keys() == full.keys()
        for name in full:
            assert grads[name].tobytes() == full[name].tobytes(), name


TOY_ARCH = ArchSpec(
    kind="cnn",
    conv_channels=(3, 4),
    conv_kernels=((3, 3), (2, 2)),
    conv_strides=((1, 1), (1, 1)),
    embed_dim=8,
)


class TestArchSpec:
    def test_json_round_trip(self):
        arch = ArchSpec(
            kind="mlp", conv_channels=(2,), conv_kernels=((2, 3),), conv_strides=((1, 2),),
            embed_dim=5, mlp_hidden=(7, 3), log_std_init=-1.5, log_std_bounds=(-4.0, 1.0), head_gain=0.5,
        )
        loaded = read_section("architecture", ArchSpec, json.loads(json.dumps(arch.to_dict())))
        assert loaded == arch
        assert hash(loaded) == hash(arch)

    def test_missing_head_gain_takes_default(self, tmp_path):
        save_checkpoint(tmp_path / "ckpt", ActorCritic(TOY_ARCH, (6, 8), 3, seed=5))
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["architecture"]["head_gain"]
        manifest_path.write_text(json.dumps(manifest))
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        assert loaded.arch.head_gain == ArchSpec().head_gain

    @pytest.mark.parametrize("field, value, message", [
        ("conv_channels", (0, 32), "conv_channels, embed_dim and mlp_hidden"),
        ("embed_dim", 0, "conv_channels, embed_dim and mlp_hidden"),
        ("mlp_hidden", (-4,), "conv_channels, embed_dim and mlp_hidden"),
        ("conv_kernels", ((8, 0), (4, 4)), "conv_kernels and conv_strides"),
        ("conv_strides", ((4, 4), (-1, 2)), "conv_kernels and conv_strides"),
        ("log_std_bounds", (2.0, -5.0), "low < high"),
        ("log_std_bounds", (-5.0, float("nan")), "low < high"),
        ("log_std_init", float("inf"), "log_std_init must be finite"),
        ("log_std_init", float("nan"), "log_std_init must be finite"),
    ])
    def test_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ShuffleRlError, match=message):
            ArchSpec(**{field: value})


class TestExtractors:
    def test_default_cnn_shape_chain(self):
        arch = ArchSpec()
        shapes = cnn_feature_shapes(arch, (90, 511))
        assert shapes == [(16, 21, 126), (32, 9, 62)]
        extractor = build_extractor(arch, (90, 511), np.random.default_rng(0))
        out, _ = extractor.forward(np.random.default_rng(1).standard_normal((1, 1, 90, 511)))
        assert out.shape == (1, 256)

    def test_toy_shape_chain(self):
        # 6x8 with 3x3 then 2x2 kernels, stride 1: 4x6 then 3x5
        shapes = cnn_feature_shapes(TOY_ARCH, (6, 8))
        assert shapes == [(3, 4, 6), (4, 3, 5)]

    def test_inference_determinism_on_identical_inputs(self):
        extractor = build_extractor(TOY_ARCH, (6, 8), np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((1, 1, 6, 8))
        batch = np.concatenate([x, x], axis=0)
        out, _ = extractor.forward(batch)
        np.testing.assert_array_equal(out[0], out[1])
        again, _ = extractor.forward(batch)
        np.testing.assert_array_equal(out, again)

    def test_mlp_zero_input_zero_embedding(self):
        arch = ArchSpec(kind="mlp", mlp_hidden=(4, 4))
        extractor = build_extractor(arch, (10,), np.random.default_rng(4))
        out, _ = extractor.forward(np.zeros((2, 10)))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_mlp_finite_differences(self):
        arch = ArchSpec(kind="mlp", mlp_hidden=(5, 3))
        extractor = build_extractor(arch, (6,), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 6)) + 0.3
        projection = rng.standard_normal((3, 3))

        def compute_loss():
            out, caches = extractor.forward(x)
            loss = float((out * projection).sum())
            grads = extractor.backward(caches, projection.copy())
            return loss, grads

        result = grad_check(compute_loss, extractor.params())
        assert result.max_rel_error < 1e-5, str(result)

    def test_full_cnn_extractor_finite_differences(self):
        extractor = build_extractor(TOY_ARCH, (6, 8), np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 1, 6, 8))
        # the input must keep every ReLU preactivation clear of the h=1e-4
        # perturbation window, or central differences cross the kink
        assert relu_kink_margin(extractor, x) > 5e-4
        projection = rng.standard_normal((2, 8))

        def compute_loss():
            out, caches = extractor.forward(x)
            loss = float((out * projection).sum())
            grads = extractor.backward(caches, projection.copy())
            return loss, grads

        result = grad_check(compute_loss, extractor.params(), max_entries_per_param=25)
        assert result.max_rel_error < 1e-4, str(result)

    def test_nan_guard_names_layer(self):
        extractor = build_extractor(TOY_ARCH, (6, 8), np.random.default_rng(9))
        x = np.full((1, 1, 6, 8), np.inf)
        with pytest.raises(NonFiniteError, match="conv1"):
            extractor.forward(x)


@pytest.mark.parametrize(
    "arch, obs_shape, last",
    [(TOY_ARCH, (6, 8), "relu_embed"), (ArchSpec(kind="mlp", mlp_hidden=(5, 3)), (4, 6), "relu2")],
    ids=["cnn", "mlp"],
)
def test_second_backward_over_spent_cache_names_layer(arch, obs_shape, last):
    net = ActorCritic(arch, obs_shape, 3, seed=24)
    mu, value, cache = net.forward(np.random.default_rng(25).standard_normal((4, *obs_shape)))
    net.backward(cache, np.ones_like(mu), np.ones_like(value))
    with pytest.raises(ShuffleRlError, match=f"^{last}: forward cache already spent"):
        net.backward(cache, np.ones_like(mu), np.ones_like(value))


def full_chain_grads(net, cache, dmu, dvalue):
    """Reference: ActorCritic.backward walking every layer, input gradients included."""
    caches, policy_cache, value_cache = cache
    dembed_p, grads = net.policy_head.backward(policy_cache, dmu)
    dembed_v, value_grads = net.value_head.backward(value_cache, dvalue[:, None])
    grads = {**grads, **value_grads}
    dout = dembed_p + dembed_v
    for layer, layer_cache in zip(reversed(net.extractor.layers), reversed(caches)):
        dout, layer_grads = layer.backward(layer_cache, dout)
        grads.update(layer_grads)
    return grads


@pytest.mark.parametrize(
    "arch, obs_shape",
    [(TOY_ARCH, (6, 8)), (ArchSpec(kind="mlp", mlp_hidden=(5, 3)), (4, 6))],
    ids=["cnn", "mlp-flatten-first"],
)
def test_actor_critic_grads_match_full_chain_walk(arch, obs_shape):
    net = ActorCritic(arch, obs_shape, 3, seed=22)
    rng = np.random.default_rng(23)
    obs = rng.standard_normal((4, *obs_shape))
    mu, value, cache = net.forward(obs)
    dmu = rng.standard_normal(mu.shape)
    dvalue = rng.standard_normal(value.shape)
    grads = net.backward(cache, dmu, dvalue)
    # ppo.clip_grad_norm sums the squared norms in this order: the walk's,
    # deferred weight gradients included, then the heads'.
    walk = [name for layer in reversed(net.extractor.layers) for name, _ in layer.params()]
    assert list(grads) == [*walk, "policy.weight", "policy.bias", "value.weight", "value.bias"]
    # The backward spent its caches, so the reference walks a forward of its own.
    reference = full_chain_grads(net, net.forward(obs)[2], dmu, dvalue)
    assert grads.keys() == reference.keys()
    for name in reference:
        assert grads[name].tobytes() == reference[name].tobytes(), name


# The largest difference between a stream's means or values and
# ``net.forward``'s that the stream tests accept, relative or absolute, per
# network dtype. The stream changes only the width of each conv GEMM (one
# row instead of the window's rows). OpenBLAS 0.3 on x86-64 rounded both
# alike in float32 at 1 and 2 threads, and in float64 at 2 threads; float64
# at 1 thread differed by at most 2e-15 at the paper shape.
STREAM_TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}


def episode_windows(kind, tickers, days, window, episodes):
    """Every observation of ``episodes`` whole TradingEnv episodes under
    seeded random actions, resets included."""
    market = generate_synthetic_market(seed=3, tickers=tickers, days=days)
    config = make_env_config(EnvConfig(window_length=window, turbulence_lookback=None), AgentSpec(kind), tickers)
    trading_env = TradingEnv(market, config)
    rng = np.random.default_rng(4)
    windows = []
    for _ in range(episodes):
        windows.append(trading_env.reset().rows)
        while not trading_env.done:
            windows.append(trading_env.step(rng.uniform(-1.0, 1.0, tickers)).observation.rows)
    return windows


def eval_net(arch, obs_shape, action_dim, dtype):
    """A network whose batch norms do not start as identities."""
    net = ActorCritic(arch, obs_shape, action_dim, seed=27, dtype=dtype)
    rng = np.random.default_rng(28)
    for name, tensor in [*net.named_buffers(), *net.named_parameters()]:
        if name.endswith(("running_var", "gamma")):
            tensor[...] = rng.uniform(0.5, 2.0, tensor.shape)
        elif name.endswith(("running_mean", "beta")):
            tensor[...] = rng.standard_normal(tensor.shape)
    return net


def assert_streams_like_forward(net, windows, stream=None):
    """Stream each window in turn and compare with ``net.forward``."""
    stream = stream or WindowStream(net)
    tolerance = STREAM_TOLERANCE[net.dtype.type]
    for i, window in enumerate(windows):
        mu, value = stream.forward(window[None])
        mu_ref, value_ref, _ = net.forward(window[None])
        assert mu.dtype == value.dtype == net.dtype
        np.testing.assert_allclose(mu, mu_ref, rtol=tolerance, atol=tolerance, err_msg=f"step {i}")
        np.testing.assert_allclose(value, value_ref, rtol=tolerance, atol=tolerance, err_msg=f"step {i}")
    return stream


# The small stream architectures, each with its tickers and window length.
SMALL_STREAM_ARCHS = [
    pytest.param(ArchSpec(kind="cnn", conv_channels=(4, 8), conv_kernels=((3, 5), (2, 3)),
                          conv_strides=((2, 2), (1, 2)), embed_dim=32), 1, 10, id="criterion-9"),
    pytest.param(ArchSpec(kind="cnn", conv_channels=(3, 2), conv_kernels=((2, 3), (1, 2)),
                          conv_strides=((3, 1), (2, 2)), embed_dim=5), 2, 12, id="kernel-shorter-than-stride"),
    pytest.param(ArchSpec(kind="cnn", conv_channels=(2, 3, 2), conv_kernels=((3, 3), (2, 2), (2, 2)),
                          conv_strides=((1, 2), (2, 1), (1, 1)), embed_dim=6), 2, 14, id="three-stages"),
]


class TestWindowStream:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["cnn", "cnn-shuffled"])
    def test_paper_shape_episodes_across_a_reset(self, kind, dtype):
        windows = episode_windows(kind, tickers=30, days=115, window=90, episodes=2)
        net = eval_net(ArchSpec(kind="cnn"), windows[0].shape, 30, dtype)
        stream = assert_streams_like_forward(net, windows)
        assert len(windows) == 2 * 26 and stream.rebuilds == 2  # the first window and the reset's

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch, tickers, window", SMALL_STREAM_ARCHS)
    def test_small_architectures(self, arch, tickers, window, dtype):
        windows = episode_windows("cnn", tickers, days=window + 12, window=window, episodes=3)
        net = eval_net(arch, windows[0].shape, tickers, dtype)
        stream = assert_streams_like_forward(net, windows)
        assert stream.rebuilds == 3

    def test_windows_that_do_not_slide_rebuild(self):
        rng = np.random.default_rng(29)
        windows = [rng.standard_normal((12, 7)) for _ in range(5)]
        net = eval_net(TOY_ARCH, (12, 7), 2, np.float64)
        stream = assert_streams_like_forward(net, windows)
        assert stream.rebuilds == 5

    def test_slide_is_judged_bitwise_so_a_negative_zero_rebuilds(self):
        first = np.arange(1.0, 85.0).reshape(12, 7)
        first[3, 2] = 0.0
        slid = np.vstack([first[1:], np.full((1, 7), 2.0)])
        signed = np.vstack([slid[1:], np.full((1, 7), 3.0)])
        signed[1, 2] = -0.0  # == slid[2, 2], but not the same bits
        net = eval_net(TOY_ARCH, (12, 7), 2, np.float64)
        stream = assert_streams_like_forward(net, [first, slid, signed])
        assert stream.rebuilds == 2

    def test_window_changed_in_place_after_the_call_is_not_trusted(self):
        rng = np.random.default_rng(31)
        net = eval_net(TOY_ARCH, (12, 7), 2, np.float64)
        stream = WindowStream(net)
        reused = rng.standard_normal((12, 7))
        stream.forward(reused[None])
        reused[...] = rng.standard_normal((12, 7))  # the caller refills its array
        slid = np.vstack([reused[1:], rng.standard_normal((1, 7))])
        assert_streams_like_forward(net, [slid], stream)
        assert stream.rebuilds == 2

    def test_window_that_raises_leaves_the_next_to_rebuild(self):
        rng = np.random.default_rng(32)
        net = eval_net(TOY_ARCH, (12, 7), 2, np.float64)
        stream = WindowStream(net)
        first = rng.standard_normal((12, 7))
        stream.forward(first[None])
        poisoned = rng.standard_normal((12, 7))
        poisoned[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="conv1"):
            stream.forward(poisoned[None])
        slid = np.vstack([first[1:], rng.standard_normal((1, 7))])
        assert_streams_like_forward(net, [slid], stream)
        assert stream.rebuilds == 3

    def test_batch_streams_in_order(self):
        windows = episode_windows("cnn", tickers=2, days=20, window=12, episodes=1)
        net = eval_net(TOY_ARCH, windows[0].shape, 2, np.float64)
        stream = WindowStream(net)
        mu, value = stream.forward(np.stack(windows))
        mu_ref, value_ref, _ = net.forward(np.stack(windows))
        tolerance = STREAM_TOLERANCE[np.float64]
        np.testing.assert_allclose(mu, mu_ref, rtol=tolerance, atol=tolerance)
        np.testing.assert_allclose(value, value_ref, rtol=tolerance, atol=tolerance)
        assert stream.rebuilds == 1

    def test_mlp_runs_the_full_forward(self):
        windows = episode_windows("mlp", tickers=2, days=20, window=6, episodes=2)
        net = eval_net(ArchSpec(kind="mlp", mlp_hidden=(5, 3)), windows[0].shape, 2, np.float64)
        stream = WindowStream(net)
        for window in windows:
            mu, value = stream.forward(window[None])
            mu_ref, value_ref, _ = net.forward(window[None])
            assert mu.tobytes() == mu_ref.tobytes() and value.tobytes() == value_ref.tobytes()

    @pytest.mark.parametrize("arch, tickers, window", SMALL_STREAM_ARCHS)
    def test_every_stage_gemm_is_one_row_wide(self, arch, tickers, window, monkeypatch):
        windows = episode_windows("cnn", tickers, days=window + 3, window=window, episodes=1)
        net = eval_net(arch, windows[0].shape, tickers, np.float64)
        calls = []
        for layer in net.extractor.layers:
            if isinstance(layer, Flatten):
                break

            def spy(x, name=layer.name, forward=layer.forward):
                calls.append((name, len(x), x.shape[2]))
                return forward(x)
            monkeypatch.setattr(layer, "forward", spy)
        stream = WindowStream(net)
        per_window = []
        for window in [*windows, windows[0]]:  # the last one does not slide
            calls.clear()
            stream.forward(window[None])
            per_window.append(list(calls))
        assert stream.rebuilds == 2
        # Every conv sample is kh input rows high, so its output is one row
        # and its GEMM one row wide. A refill calls each stage layer once, on
        # the stage's rows of every start day; a slide once, on one row.
        refill, slide, days, step = [], [], len(windows[0]), 1
        for li, ((kh, _), (sh, _)) in enumerate(zip(arch.conv_kernels, arch.conv_strides), start=1):
            days -= (kh - 1) * step
            step *= sh
            refill += [(f"conv{li}", days, kh), (f"bn{li}", days, 1), (f"relu{li}", days, 1)]
            slide += [(f"conv{li}", 1, kh), (f"bn{li}", 1, 1), (f"relu{li}", 1, 1)]
        assert per_window == [refill, *[slide] * (len(windows) - 1), refill]

    @pytest.mark.parametrize("tensor", ["conv1.weight", "bn2.running_var"])
    def test_network_changed_in_place_refills(self, tensor):
        windows = episode_windows("cnn", tickers=2, days=20, window=12, episodes=1)
        net = eval_net(TOY_ARCH, windows[0].shape, 2, np.float64)
        stream = assert_streams_like_forward(net, windows[:3])
        changed = dict([*net.named_parameters(), *net.named_buffers()])[tensor]
        changed *= 1.5
        assert_streams_like_forward(net, windows[3:], stream)
        assert stream.rebuilds == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "arch, tickers, window", [*SMALL_STREAM_ARCHS, pytest.param(ArchSpec(kind="cnn"), 30, 90, id="paper")]
    )
    def test_refill_mid_episode_matches_the_sliding_stream_bitwise(self, arch, tickers, window, dtype):
        windows = episode_windows("cnn", tickers, days=window + 12, window=window, episodes=1)
        net = eval_net(arch, windows[0].shape, tickers, dtype)
        sliding, restarted = WindowStream(net), WindowStream(net)
        middle = len(windows) // 2
        for window in windows[:middle]:
            sliding.forward(window[None])
        for i, window in enumerate(windows[middle:], start=middle):
            slid = sliding.forward(window[None])
            refilled = restarted.forward(window[None])
            assert all(a.tobytes() == b.tobytes() for a, b in zip(slid, refilled)), f"step {i}"
        assert sliding.rebuilds == restarted.rebuilds == 1


class TestInit:
    def test_same_seed_byte_identical(self):
        a = ActorCritic(TOY_ARCH, (6, 8), 3, seed=42)
        b = ActorCritic(TOY_ARCH, (6, 8), 3, seed=42)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert pa.tobytes() == pb.tobytes()

    def test_fan_in_scaling(self):
        rng = np.random.default_rng(0)
        arch = ArchSpec(kind="mlp", mlp_hidden=(40,))
        extractor = build_extractor(arch, (260,), rng)  # 40*260 > 1e4 draws
        weight = dict(extractor.params())["fc1.weight"]
        expected = np.sqrt(2.0 / 260)
        assert weight.std() == pytest.approx(expected, rel=0.05)
        assert abs(weight.mean()) < expected * 0.05

    def test_biases_zero_and_bn_identity(self):
        net = ActorCritic(TOY_ARCH, (6, 8), 2, seed=0)
        params = dict(net.named_parameters())
        assert np.all(params["conv1.bias"] == 0)
        assert np.all(params["embed.bias"] == 0)
        assert np.all(params["bn1.gamma"] == 1.0)
        assert np.all(params["bn2.beta"] == 0.0)
        np.testing.assert_allclose(params["log_std"], np.log(0.5))

    def test_log_std_clamp(self):
        net = ActorCritic(TOY_ARCH, (6, 8), 2, seed=0)
        net.log_std[:] = [-80.0, 80.0]
        np.testing.assert_array_equal(net.effective_log_std(), [-5.0, 2.0])
        np.testing.assert_array_equal(net.log_std_grad_mask(), [0.0, 0.0])

    @pytest.mark.parametrize("dtype, gain", [(np.float32, 0.01), (np.float64, 0.01), (np.float64, 1.0)])
    def test_chunked_draw_matches_one_shot_formula(self, dtype, gain):
        shape = (3, nn._INIT_CHUNK + 7)  # three full chunks and a remainder
        fan_in = 19
        weight = nn._kaiming(np.random.default_rng(8), shape, fan_in, dtype, gain)
        reference_rng = np.random.default_rng(8)
        reference = (gain * (reference_rng.standard_normal(shape) * np.sqrt(2.0 / fan_in))).astype(dtype)
        assert weight.dtype == dtype and weight.shape == shape
        assert weight.tobytes() == reference.tobytes()
        rng = np.random.default_rng(8)
        nn._kaiming(rng, shape, fan_in, dtype, gain)
        assert rng.standard_normal() == reference_rng.standard_normal()


class TestGradCheckHarness:
    def test_linear_only_network_is_exact(self):
        rng = np.random.default_rng(17)
        layer = Linear("l", rng.standard_normal((2, 4)), rng.standard_normal(2))
        x = rng.standard_normal((3, 4))
        result = fd_check_layer(layer, x, seed=18)
        assert result.max_rel_error < 1e-7

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(19)
        layer = Linear("l", rng.standard_normal((2, 4)), rng.standard_normal(2))
        x = rng.standard_normal((3, 4))
        projection = rng.standard_normal((3, 2))

        def compute_loss():
            out, cache = layer.forward(x)
            loss = float((out * projection).sum())
            _, grads = layer.backward(cache, projection)
            grads = dict(grads)
            grads["l.weight"] = grads["l.weight"] + 0.5  # deliberate corruption
            return loss, grads

        result = grad_check(compute_loss, layer.params())
        assert result.max_rel_error > 1e-2


class TestCheckpoint:
    def test_round_trip_identical(self, tmp_path):
        net = ActorCritic(TOY_ARCH, (6, 8), 3, seed=5)
        # make the batch-norm statistics non-trivial
        windows = np.random.default_rng(1).standard_normal((4, 6, 8))
        net.refresh_batch_norm(*row_stack(windows))
        save_checkpoint(tmp_path / "ckpt", net, metadata={"note": "test"})
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["metadata"]["note"] == "test"
        for (name_a, pa), (_, pb) in zip(
            net.named_parameters() + net.named_buffers(),
            loaded.named_parameters() + loaded.named_buffers(),
        ):
            assert pa.tobytes() == pb.tobytes(), name_a
        x = np.random.default_rng(2).standard_normal((2, 6, 8))
        mu_a, value_a, _ = net.forward(x)
        mu_b, value_b, _ = loaded.forward(x)
        np.testing.assert_array_equal(mu_a, mu_b)
        np.testing.assert_array_equal(value_a, value_b)

    def test_resave_byte_identical(self, tmp_path):
        net = ActorCritic(TOY_ARCH, (6, 8), 3, seed=5)
        save_checkpoint(tmp_path / "a", net)
        loaded, _ = load_checkpoint(tmp_path / "a")
        save_checkpoint(tmp_path / "b", loaded)
        assert (tmp_path / "a" / "params.bin").read_bytes() == (tmp_path / "b" / "params.bin").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_text() == (tmp_path / "b" / "manifest.json").read_text()

    def test_blob_outside_the_directory_is_config_error(self, tmp_path):
        save_checkpoint(tmp_path / "a", ActorCritic(TOY_ARCH, (6, 8), 3, seed=5))
        save_checkpoint(tmp_path / "b", ActorCritic(TOY_ARCH, (6, 8), 3, seed=6))
        manifest_path = tmp_path / "a" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["blob"] = "../b/params.bin"  # a sibling's weights, which fit the manifest
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=r"^checkpoint blob must be 'params\.bin', got '\.\./b/params\.bin'$"):
            load_checkpoint(tmp_path / "a")

    def test_blob_is_little_endian_float64(self, tmp_path):
        net = ActorCritic(ArchSpec(kind="mlp", mlp_hidden=(2,)), (3,), 1, seed=0)
        save_checkpoint(tmp_path / "ckpt", net)
        raw = (tmp_path / "ckpt" / "params.bin").read_bytes()
        first = dict(net.named_parameters())["fc1.weight"]
        decoded = np.frombuffer(raw, dtype="<f8", count=first.size).reshape(first.shape)
        np.testing.assert_array_equal(decoded, first)

    def test_float32_round_trip_byte_exact(self, tmp_path):
        net = ActorCritic(TOY_ARCH, (6, 8), 3, seed=5, dtype=np.float32)
        net.forward(np.random.default_rng(1).standard_normal((4, 6, 8)))
        save_checkpoint(tmp_path / "ckpt", net)
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["dtype"] == "<f4"
        assert loaded.dtype == np.float32
        tensors = net.named_parameters() + net.named_buffers()
        assert (tmp_path / "ckpt" / "params.bin").stat().st_size == 4 * sum(p.size for _, p in tensors)
        for (name, pa), (_, pb) in zip(tensors, loaded.named_parameters() + loaded.named_buffers()):
            assert pb.dtype == np.float32, name
            assert pa.tobytes() == pb.tobytes(), name

    def test_manifest_without_dtype_loads_as_float64(self, tmp_path):
        net = ActorCritic(TOY_ARCH, (6, 8), 3, seed=5)
        save_checkpoint(tmp_path / "ckpt", net)
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["dtype"]
        manifest_path.write_text(json.dumps(manifest))
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        assert loaded.dtype == np.float64
        for (name, pa), (_, pb) in zip(net.named_parameters(), loaded.named_parameters()):
            assert pa.tobytes() == pb.tobytes(), name

    def test_unsupported_dtype_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ckpt", ActorCritic(TOY_ARCH, (6, 8), 3, seed=5))
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["dtype"] = "<i8"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShuffleRlError, match="unsupported checkpoint dtype"):
            load_checkpoint(tmp_path / "ckpt")

    def test_unknown_format_version_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ckpt", ActorCritic(TOY_ARCH, (6, 8), 3, seed=5))
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShuffleRlError, match="unsupported checkpoint format 2$"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch, dtype):
        net = ActorCritic(TOY_ARCH, (6, 8), 3, seed=5, dtype=dtype)
        net.forward(np.random.default_rng(1).standard_normal((4, 6, 8)))
        save_checkpoint(tmp_path / "ckpt", net)

        def no_draw(*_args, **_kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        tensors = net.named_parameters() + net.named_buffers()
        for (name, pa), (_, pb) in zip(tensors, loaded.named_parameters() + loaded.named_buffers(), strict=True):
            assert pb.dtype == pa.dtype, name
            assert pa.tobytes() == pb.tobytes(), name

    def test_truncated_float32_blob_rejected(self, tmp_path):
        net = ActorCritic(TOY_ARCH, (6, 8), 3, seed=5, dtype=np.float32)
        save_checkpoint(tmp_path / "ckpt", net)
        blob = tmp_path / "ckpt" / "params.bin"
        full = blob.read_bytes()
        for wrong in (full[:-4], full + bytes(8)):  # too short and too long
            blob.write_bytes(wrong)
            with pytest.raises(ShuffleRlError, match="blob size"):
                load_checkpoint(tmp_path / "ckpt")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShuffleRlError):
            load_checkpoint(tmp_path / "nope")
