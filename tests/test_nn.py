import numpy as np
import pytest

from carenet.errors import DataError, PipelineError
from carenet.nn import (
    Adam,
    Conv1D,
    Dense,
    GlobalAvgPool,
    Param,
    PlateauScheduler,
    ReLU,
    ResidualBlock,
    Sigmoid,
    Softmax,
    bce_loss,
    cce_loss,
    he_normal,
    make_rng,
)
from tests.conftest import central_difference, relative_error

GRAD_TOL = 1e-4


def _check_against_fd(analytic, f, point, h):
    """Accept if central differences match at h, refining once for ReLU kinks.

    A step crossing a kink corrupts the h=1e-3 estimate even when the
    analytic gradient is right; a genuinely wrong gradient stays wrong at
    every step size, so the refinement cannot hide real bugs.
    """
    num = central_difference(f, point.copy(), h)
    if relative_error(analytic, num) < GRAD_TOL:
        return
    num = central_difference(f, point.copy(), h * 1e-2)
    assert relative_error(analytic, num) < GRAD_TOL


def layer_grad_check(layer, x, rng, h=1e-3):
    """Check every parameter and the input against central differences.

    Uses a random linear functional of the output so the scalar loss
    exercises all output entries.
    """
    out = layer.forward(x)
    weights = rng.standard_normal(out.shape)

    def loss_from_input(xv):
        return float((layer.forward(xv) * weights).sum())

    gin = layer.backward(weights)
    _check_against_fd(gin, loss_from_input, x, h)

    for param in layer.params():
        original = param.value

        def loss_from_param(pv, _p=param):
            _p.value = pv
            try:
                return float((layer.forward(x) * weights).sum())
            finally:
                _p.value = original

        layer.forward(x)
        layer.backward(weights)
        _check_against_fd(param.grad, loss_from_param, original, h)


class TestConv1D:
    def test_identity_kernel(self):
        conv = Conv1D(1, 1, 3, dtype=np.float64)
        conv.w.value = np.array([[[0.0, 1.0, 0.0]]])
        x = np.arange(12, dtype=np.float64).reshape(1, 1, 12)
        np.testing.assert_array_equal(conv.forward(x), x)

    def test_hand_computed_sum_kernel(self):
        conv = Conv1D(1, 1, 3, dtype=np.float64)
        conv.w.value = np.ones((1, 1, 3))
        x = np.array([[[1.0, 2.0, 3.0]]])
        np.testing.assert_array_equal(conv.forward(x), [[[3.0, 6.0, 5.0]]])

    def test_output_length_is_ceil(self):
        conv = Conv1D(1, 2, 3, stride=2, rng=make_rng(0), dtype=np.float64)
        out = conv.forward(np.zeros((1, 1, 467)))
        assert out.shape == (1, 2, 234)

    def test_matches_triple_loop_oracle(self, rng):
        conv = Conv1D(2, 3, 5, stride=2, rng=make_rng(1), dtype=np.float64)
        x = rng.standard_normal((2, 2, 11))
        out = conv.forward(x)

        out_len = -(-11 // 2)
        pad_total = (out_len - 1) * 2 + 5 - 11
        pad_left = pad_total // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad_left, pad_total - pad_left)))
        expected = np.zeros((2, 3, out_len))
        for b in range(2):
            for o in range(3):
                for t in range(out_len):
                    acc = conv.b.value[o]
                    for c in range(2):
                        for j in range(5):
                            acc += conv.w.value[o, c, j] * xp[b, c, t * 2 + j]
                    expected[b, o, t] = acc
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(DataError):
            Conv1D(1, 1, 4)

    def test_backward_before_forward_rejected(self):
        conv = Conv1D(1, 1, 3)
        with pytest.raises(PipelineError):
            conv.backward(np.zeros((1, 1, 4)))

    @pytest.mark.parametrize("kernel,stride", [(7, 2), (3, 1), (1, 2)])
    def test_caching_pass_keeps_only_its_input(self, kernel, stride, rng):
        conv = Conv1D(2, 3, kernel, stride, rng=make_rng(0), dtype=np.float64)
        x = rng.standard_normal((2, 2, 12))
        conv.forward(x)
        assert conv._cache is x  # no column matrix: backward rebuilds it from x

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_gradients(self, stride, rng):
        for case in range(5):
            conv = Conv1D(2, 3, 3, stride=stride, rng=make_rng(case), dtype=np.float64)
            x = rng.standard_normal((2, 2, 9))
            layer_grad_check(conv, x, rng)

    @pytest.mark.parametrize("in_ch,out_ch,kernel,stride,length", [
        (1, 4, 7, 2, 467),   # the stem
        (3, 5, 1, 2, 11),    # a projection shortcut
    ])
    def test_backward_matches_loop_oracle(self, in_ch, out_ch, kernel, stride, length, rng):
        conv = Conv1D(in_ch, out_ch, kernel, stride, rng=make_rng(2), dtype=np.float64)
        conv.b.value = rng.standard_normal(out_ch)
        x = rng.standard_normal((2, in_ch, length))
        out = conv.forward(x)
        grad = rng.standard_normal(out.shape)
        dx = conv.backward(grad)

        out_len = -(-length // stride)
        pad_total = max((out_len - 1) * stride + kernel - length, 0)
        pad_left = pad_total // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad_left, pad_total - pad_left)))
        w = conv.w.value
        expected = np.zeros_like(out)
        dw = np.zeros_like(w)
        dxp = np.zeros_like(xp)
        for b in range(x.shape[0]):
            for t in range(out_len):
                for j in range(kernel):
                    window = xp[b, :, t * stride + j]  # (in,)
                    expected[b, :, t] += w[:, :, j] @ window
                    dw[:, :, j] += np.outer(grad[b, :, t], window)
                    dxp[b, :, t * stride + j] += grad[b, :, t] @ w[:, :, j]
        expected += conv.b.value[None, :, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.w.grad, dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.b.grad, grad.sum(axis=(0, 2)), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, dxp[:, :, pad_left:pad_left + length],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (1, 2)])
    def test_memory_order_does_not_change_results(self, kernel, stride, rng):
        # the same (batch, channels, length) values, once C-ordered and once a
        # transposed view of channels-last memory as layers hand them on
        conv = Conv1D(4, 6, kernel, stride, rng=make_rng(3), dtype=np.float64)
        x = rng.standard_normal((3, 4, 10))
        x_last = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        out = conv.forward(x)
        grad = rng.standard_normal(out.shape)
        grad_last = np.ascontiguousarray(grad.transpose(0, 2, 1)).transpose(0, 2, 1)
        results = []
        for xv, gv in ((x, grad), (x_last, grad_last)):
            out = conv.forward(xv)
            dx = conv.backward(gv)
            results.append((out, dx, conv.w.grad.copy(), conv.b.grad.copy()))
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)


class TestDenseAndActivations:
    def test_dense_linear_regression_gradient(self, rng):
        # squared loss on a single dense layer has the closed form 2 x^T (xW - y)
        dense = Dense(4, 2, rng=make_rng(0), dtype=np.float64)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 2))
        pred = dense.forward(x)
        dense.backward(2.0 * (pred - y))
        expected = 2.0 * x.T @ (x @ dense.w.value + dense.b.value - y)
        np.testing.assert_allclose(dense.w.grad, expected, atol=1e-10)

    def test_dense_gradients(self, rng):
        for case in range(5):
            dense = Dense(5, 3, rng=make_rng(case), dtype=np.float64)
            layer_grad_check(dense, rng.standard_normal((4, 5)), rng)

    def test_relu_gradients(self, rng):
        layer_grad_check(ReLU(), rng.standard_normal((3, 2, 7)) + 0.05, rng)

    def test_sigmoid_range_and_gradients(self, rng):
        sig = Sigmoid()
        out = sig.forward(rng.standard_normal((50,)) * 10)
        assert np.all(out > 0) and np.all(out < 1)
        layer_grad_check(Sigmoid(), rng.standard_normal((4, 3)), rng)

    def test_softmax_rows_sum_to_one(self, rng):
        soft = Softmax()
        out = soft.forward(rng.standard_normal((20, 4)) * 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_gradients(self, rng):
        layer_grad_check(Softmax(), rng.standard_normal((4, 5)), rng)

    def test_gap_preserves_mean_and_gradients(self, rng):
        gap = GlobalAvgPool()
        x = rng.standard_normal((3, 4, 9))
        np.testing.assert_array_equal(gap.forward(x), x.mean(axis=2))
        layer_grad_check(GlobalAvgPool(), x, rng)


class TestResidualBlock:
    def test_identity_shortcut_shapes(self, rng):
        block = ResidualBlock(8, 8, 1, rng=make_rng(0), dtype=np.float64)
        assert block.projection is None
        out = block.forward(rng.standard_normal((2, 8, 10)))
        assert out.shape == (2, 8, 10)

    def test_projection_shortcut_shapes(self, rng):
        block = ResidualBlock(8, 16, 2, rng=make_rng(0), dtype=np.float64)
        assert block.projection is not None
        out = block.forward(rng.standard_normal((2, 8, 11)))
        assert out.shape == (2, 16, 6)

    @pytest.mark.parametrize("in_ch,out_ch,stride", [(4, 4, 1), (4, 8, 2)])
    def test_gradients(self, in_ch, out_ch, stride, rng):
        for case in range(3):
            block = ResidualBlock(in_ch, out_ch, stride, rng=make_rng(case), dtype=np.float64)
            layer_grad_check(block, rng.standard_normal((2, in_ch, 7)), rng)

    @pytest.mark.parametrize("in_ch,out_ch,stride", [(4, 4, 1), (4, 8, 2)])
    def test_each_activation_is_cached_once(self, in_ch, out_ch, stride, rng):
        block = ResidualBlock(in_ch, out_ch, stride, rng=make_rng(0), dtype=np.float64)
        x = rng.standard_normal((2, in_ch, 9))
        out = block.forward(x)
        assert block.conv1._cache is x
        assert block.projection is None or block.projection._cache is x
        assert block.conv2._cache is block.relu1._cache
        assert block.relu_out._cache is out

    def test_zero_weights_kill_main_path(self, rng):
        block = ResidualBlock(4, 4, 1, dtype=np.float64)  # zero-initialized convs
        x = np.abs(rng.standard_normal((2, 4, 6)))
        # main path contributes nothing, shortcut is identity, output relu(x)=x
        np.testing.assert_array_equal(block.forward(x), x)


class TestLosses:
    def test_bce_half_is_ln2(self):
        loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_bce_perfect_prediction_is_clamp_scale(self):
        loss, _ = bce_loss(np.array([1.0]), np.array([1.0]))
        assert 0 < loss < 2e-7

    def test_cce_perfect_prediction_is_clamp_scale(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0]])
        one_hot = np.array([[1.0, 0.0, 0.0, 0.0]])
        loss, _ = cce_loss(probs, one_hot)
        assert 0 < loss < 2e-7

    def test_bce_gradient_matches_finite_differences(self, rng):
        probs = rng.uniform(0.05, 0.95, 12)
        targets = (rng.random(12) > 0.5).astype(float)
        _, grad = bce_loss(probs, targets)
        num = central_difference(lambda p: bce_loss(p, targets)[0], probs.copy(), h=1e-6)
        assert relative_error(grad, num) < 1e-5

    def test_cce_gradient_matches_finite_differences(self, rng):
        probs = rng.uniform(0.05, 0.95, (6, 4))
        one_hot = np.eye(4)[rng.integers(0, 4, 6)]
        _, grad = cce_loss(probs, one_hot)
        num = central_difference(lambda p: cce_loss(p, one_hot)[0], probs.copy(), h=1e-6)
        assert relative_error(grad, num) < 1e-5

    def test_bad_targets_rejected(self):
        with pytest.raises(DataError):
            bce_loss(np.array([0.5]), np.array([0.5]))
        with pytest.raises(DataError):
            cce_loss(np.full((2, 4), 0.25), np.full((2, 4), 0.5))


class TestHeNormal:
    def test_variance_matches_formula(self):
        rng = make_rng(777)
        sample = he_normal(50, (100_000,), rng, dtype=np.float64)
        assert abs(sample.var() - 0.04) < 0.05 * 0.04
        assert abs(sample.mean()) < 0.01

    def test_deterministic_per_seed(self):
        a = he_normal(10, (4, 4), make_rng(5))
        b = he_normal(10, (4, 4), make_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_fan_in_two_targets_unit_variance(self):
        sample = he_normal(2, (200_000,), make_rng(3), dtype=np.float64)
        assert abs(sample.var() - 1.0) < 0.05

    def test_bad_fan_in(self):
        with pytest.raises(DataError):
            he_normal(0, (3,), make_rng(0))


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        param = Param(np.zeros(4, dtype=np.float64))
        opt = Adam([param], lr=1e-3)
        param.grad = np.full(4, 0.5)
        opt.step()
        np.testing.assert_allclose(-param.value, 1e-3, rtol=1e-6)

    def test_zero_gradient_keeps_params(self):
        param = Param(np.array([1.0, -2.0]))
        opt = Adam([param], lr=1e-3)
        param.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(param.value, [1.0, -2.0])

    def test_quadratic_converges(self):
        # f(w) = w^2, grad 2w, from w0=1: |w| < 1e-2 after 5000 steps at lr 1e-3
        param = Param(np.array([1.0]))
        opt = Adam([param], lr=1e-3)
        for _ in range(5000):
            param.grad = 2.0 * param.value
            opt.step()
        assert abs(param.value[0]) < 1e-2

    def test_shape_mismatch_rejected(self):
        param = Param(np.zeros(3))
        opt = Adam([param])
        param.grad = np.zeros(4)
        with pytest.raises(DataError):
            opt.step()


class TestPlateauScheduler:
    def test_decreasing_losses_keep_lr(self):
        sched = PlateauScheduler(lr=1e-3)
        for loss in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]:
            assert sched.step(loss) == 1e-3

    def test_flat_losses_halve_on_sixth_call(self):
        sched = PlateauScheduler(lr=1e-3)
        rates = [sched.step(1.0) for _ in range(6)]
        assert rates == [1e-3] * 5 + [5e-4]

    def test_lr_floors_exactly(self):
        sched = PlateauScheduler(lr=1e-3)
        rates = [sched.step(1.0) for _ in range(40)]
        distinct = []
        for r in rates:
            if not distinct or distinct[-1] != r:
                distinct.append(r)
        assert distinct == [1e-3, 5e-4, 2.5e-4, 1.25e-4, 1e-4]
        assert rates[-1] == 1e-4

    def test_improvement_resets_wait(self):
        sched = PlateauScheduler(lr=1e-3)
        for loss in [1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0]:
            sched.step(loss)
        assert sched.lr == 1e-3  # wait reached exactly patience, never exceeded it
        assert sched.step(1.0) == 5e-4  # one more flat epoch tips it over
