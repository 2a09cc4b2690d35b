import json

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from shufflerl.checkpoint import load_checkpoint, save_checkpoint
from shufflerl.errors import ConfigError, NonFiniteError, ShuffleRlError
from shufflerl.nn import (
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
    grad_check,
)
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
    """Finite-difference audit of one layer: loss = sum(output * R)."""
    rng = np.random.default_rng(seed)
    out, _ = layer.forward(x)
    projection = rng.standard_normal(out.shape)

    def compute_loss():
        o, cache = layer.forward(x)
        loss = float((o * projection).sum())
        dx, grads = layer.backward(cache, projection)
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
    dweight, dbias). Same GEMM shapes and summation order as ``Conv2d``."""
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
    for u in range(kh):
        w_row = layer.weight[:, :, u, :].reshape(out_ch, in_ch * kw)
        dcols = (w_row.T @ dout_mat).reshape(b, in_ch, kw, oh, ow)
        for v in range(kw):
            dx[:, :, u : u + sh * oh : sh, v : v + sw * ow : sw] += dcols[:, :, v]
    return out.reshape(b, out_ch, oh, ow), dx, dweight, dbias


@pytest.mark.parametrize(
    "w_shape, stride, x_shape",
    [
        ((16, 1, 8, 8), (4, 4), (3, 1, 90, 511)),
        ((32, 16, 4, 4), (2, 2), (3, 16, 21, 126)),
        ((3, 2, 3, 2), (2, 3), (3, 2, 8, 10)),
        ((32, 16, 4, 4), (2, 2), (1, 16, 21, 126)),
    ],
    ids=["paper-conv1", "paper-conv2", "stride-remainders", "batch1"],
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


class TestBatchNorm:
    def test_constant_input_maps_to_shift(self):
        layer = BatchNorm2d("bn", np.ones(2), np.zeros(2))
        out, _ = layer.forward(np.full((3, 2, 4, 4), 7.0))
        assert np.all(np.abs(out) < 1e-3)  # zero up to eps-induced wobble

    def test_train_mode_moments(self):
        rng = np.random.default_rng(9)
        layer = BatchNorm2d("bn", np.ones(4), np.zeros(4))
        x = rng.standard_normal((8, 4, 6, 6)) * 3.0 + 5.0
        out, _ = layer.forward(x)
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-5)
        assert np.all(np.abs(var - 1.0) < 1e-5)

    def test_inference_hand_example(self):
        layer = BatchNorm2d("bn", gamma=np.array([2.0]), beta=np.array([0.5]), eps=1e-5)
        layer.running_mean[:] = 1.0
        layer.running_var[:] = 4.0
        layer.training = False
        x = np.full((1, 1, 1, 2), 3.0)
        out, _ = layer.forward(x)
        expected = (3.0 - 1.0) / np.sqrt(4.0 + 1e-5) * 2.0 + 0.5
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_running_stats_update(self):
        layer = BatchNorm2d("bn", np.ones(1), np.zeros(1), momentum=0.1)
        x = np.full((2, 1, 1, 2), 10.0)
        x[0, 0, 0, 0] = 14.0  # batch mean 11, biased var 3, unbiased 4
        layer.forward(x)
        np.testing.assert_allclose(layer.running_mean, [0.9 * 0.0 + 0.1 * 11.0])
        np.testing.assert_allclose(layer.running_var, [0.9 * 1.0 + 0.1 * 4.0])

    def test_single_element_train_mode_rejected(self):
        layer = BatchNorm2d("bn", np.ones(1), np.zeros(1))
        with pytest.raises(ShuffleRlError):
            layer.forward(np.zeros((1, 1, 1, 1)))

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
        x = rng.standard_normal((2, 3, 2, 2)) * 2.0
        result = fd_check_layer(layer, x, seed=12)
        assert result.max_rel_error < 1e-5, str(result)

    def test_input_gradient_sums_to_zero_per_channel(self):
        rng = np.random.default_rng(13)
        layer = BatchNorm2d("bn", np.ones(3), np.zeros(3))
        x = rng.standard_normal((4, 3, 5, 5))
        _, cache = layer.forward(x)
        dx, _ = layer.backward(cache, rng.standard_normal(x.shape))
        sums = dx.sum(axis=(0, 2, 3))
        assert np.all(np.abs(sums) < 1e-10)

    def test_inference_cache_has_no_backward(self):
        layer = BatchNorm2d("bn", np.ones(1), np.zeros(1))
        layer.training = False
        _, cache = layer.forward(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShuffleRlError):
            layer.backward(cache, np.zeros((1, 1, 2, 2)))


def reference_batchnorm_train(layer, x):
    """Reference: the direct train-mode formulas, as (out, running_mean,
    running_var, backward) with ``backward(dout) -> (dx, dgamma, dbeta)``."""
    shape = (1, -1, 1, 1)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    out = layer.gamma.reshape(shape) * xhat + layer.beta.reshape(shape)
    m = layer.momentum
    running_mean = (1 - m) * layer.running_mean + m * mean
    running_var = (1 - m) * layer.running_var + m * var * n / (n - 1)

    def backward(dout):
        dgamma = (dout * xhat).sum(axis=(0, 2, 3))
        dbeta = dout.sum(axis=(0, 2, 3))
        dxhat = dout * layer.gamma.reshape(shape)
        sum_dxhat = dxhat.sum(axis=(0, 2, 3))
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3))
        dx = (inv_std.reshape(shape) / n) * (
            n * dxhat - sum_dxhat.reshape(shape) - xhat * sum_dxhat_xhat.reshape(shape)
        )
        return dx, dgamma, dbeta

    return out, running_mean, running_var, backward


@pytest.mark.parametrize(
    "x_shape", [(3, 4, 5, 7), (1, 3, 2, 3), (16, 8, 9, 31)], ids=["odd-hw", "batch1", "wide"]
)
def test_batchnorm_train_mode_matches_reference_formulas(x_shape):
    rng = np.random.default_rng(24)
    channels = x_shape[1]
    layer = BatchNorm2d("bn", rng.uniform(0.5, 1.5, channels), rng.standard_normal(channels))
    layer.running_mean[:] = rng.standard_normal(channels)
    layer.running_var[:] = rng.uniform(0.5, 2.0, channels)
    x = rng.standard_normal(x_shape) * 3.0 + 2.0
    dout = rng.standard_normal(x_shape)
    out_ref, running_mean_ref, running_var_ref, backward_ref = reference_batchnorm_train(layer, x)
    out, cache = layer.forward(x)
    dx, grads = layer.backward(cache, dout)
    dx_ref, dgamma_ref, dbeta_ref = backward_ref(dout)

    def assert_close(actual, expected):
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()

    assert_close(out, out_ref)
    assert_close(layer.running_mean, running_mean_ref)
    assert_close(layer.running_var, running_var_ref)
    assert_close(dx, dx_ref)
    assert_close(grads["bn.gamma"], dgamma_ref)
    assert_close(grads["bn.beta"], dbeta_ref)


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
        extractor.set_training(False)
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
            grads = extractor.backward(caches, projection)
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
            grads = extractor.backward(caches, projection)
            return loss, grads

        result = grad_check(compute_loss, extractor.params(), max_entries_per_param=25)
        assert result.max_rel_error < 1e-4, str(result)

    def test_nan_guard_names_layer(self):
        extractor = build_extractor(TOY_ARCH, (6, 8), np.random.default_rng(9))
        x = np.full((1, 1, 6, 8), np.inf)
        with pytest.raises(NonFiniteError, match="conv1"):
            extractor.forward(x)


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
    mu, value, cache = net.forward(rng.standard_normal((4, *obs_shape)))
    dmu = rng.standard_normal(mu.shape)
    dvalue = rng.standard_normal(value.shape)
    grads = net.backward(cache, dmu, dvalue)
    reference = full_chain_grads(net, cache, dmu, dvalue)
    assert grads.keys() == reference.keys()
    for name in reference:
        assert grads[name].tobytes() == reference[name].tobytes(), name


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
        # make running stats non-trivial
        net.forward(np.random.default_rng(1).standard_normal((4, 6, 8)))
        save_checkpoint(tmp_path / "ckpt", net, metadata={"note": "test"})
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["metadata"]["note"] == "test"
        for (name_a, pa), (_, pb) in zip(
            net.named_parameters() + net.named_buffers(),
            loaded.named_parameters() + loaded.named_buffers(),
        ):
            assert pa.tobytes() == pb.tobytes(), name_a
        net.set_training(False)
        loaded.set_training(False)
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
