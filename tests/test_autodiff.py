import math
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from sst import autodiff as ad
from sst import workers
from sst.autodiff import Tensor
from sst.errors import ContractError, DimensionError
from sst.model import ModelConfig, ModelParams
from sst.optim import AdamState
from sst.sampling import PairBatch
from sst.training import TrainConfig, train_step

from conftest import assert_grad_close, fd_grad


def _param(data):
    return Tensor(data, requires_grad=True)


def _conv1d_reference(x, kernel, stride, g):
    """Output, input gradient and kernel gradient of conv1d for upstream gradient g.

    Windows of every tap are materialised and contracted with einsum; the
    input gradient scatters each tap back with a strided add.
    """
    n, c_in, t = x.shape
    k = kernel.shape[-1]
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)[:, :, ::stride, :]
    out = np.einsum("ncik,ock->noi", windows, kernel)
    t_out = out.shape[-1]
    g_kernel = np.einsum("noi,ncik->ock", g, windows)
    spread = np.einsum("noi,ock->ncik", g, kernel)
    gx = np.zeros_like(x)
    for kk in range(k):
        gx[:, :, kk : kk + stride * (t_out - 1) + 1 : stride] += spread[:, :, :, kk]
    return out, gx, g_kernel


@st.composite
def _conv_shapes(draw):
    """(n, c_in, c_out, t, stride, k) with k anywhere in 1..t."""
    t = draw(st.integers(1, 40))
    k = draw(st.integers(1, t))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            t, draw(st.integers(1, 9)), k)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_hand_product(self):
        # [[1,2]] x [[3],[4]] = [[11]]
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert ad.matmul(a, b).data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_grad_of_sum_is_ones_times_bt(self, rng):
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 5))
        a = _param(a_val)
        ad.backward(ad.matmul(a, Tensor(b_val)).sum())
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b_val.T, rtol=1e-12)

    def test_grad_matches_finite_differences(self, rng):
        a_val = rng.normal(size=(2, 3, 4))
        b_val = rng.normal(size=(4, 2))
        a, b = _param(a_val), _param(b_val)
        loss = ad.matmul(a, b).sum()
        ad.backward(loss)

        def f_a(x):
            return float((x @ b_val).sum())

        def f_b(x):
            return float((a_val @ x).sum())

        assert_grad_close(a.grad, fd_grad(f_a, a_val), rtol=1e-6)
        assert_grad_close(b.grad, fd_grad(f_b, b_val), rtol=1e-6)

    def test_batch_broadcast(self, rng):
        a = _param(rng.normal(size=(2, 2, 3, 4)))
        b = _param(rng.normal(size=(4, 5)))
        out = ad.matmul(a, b)
        assert out.shape == (2, 2, 3, 5)
        ad.backward(out.sum())
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor([[[1.0, 2.0, 3.0]]])
        k = Tensor([[[1.0]]])
        np.testing.assert_array_equal(ad.conv1d(x, k).data, x.data)

    def test_hand_convolution(self):
        x = Tensor([[[1.0, 2.0, 3.0, 4.0]]])
        k = Tensor([[[1.0, 1.0]]])
        np.testing.assert_array_equal(ad.conv1d(x, k, stride=1).data, [[[3.0, 5.0, 7.0]]])

    def test_output_length_formula(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 17)))
        k = Tensor(rng.normal(size=(3, 2, 4)))
        for stride in (1, 2, 3):
            out = ad.conv1d(x, k, stride=stride)
            assert out.shape == (1, 3, (17 - 4) // stride + 1)

    def test_kernel_longer_than_padded_input(self):
        with pytest.raises(DimensionError):
            ad.conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))))

    def test_grad_matches_finite_differences(self, rng):
        x_val = rng.normal(size=(1, 1, 16))
        k_val = rng.normal(size=(2, 1, 3))
        x, k = _param(x_val), _param(k_val)
        ad.backward(ad.conv1d(x, k, stride=2).sum())

        def f_x(v):
            return float(ad.conv1d(Tensor(v), Tensor(k_val), stride=2).data.sum())

        def f_k(v):
            return float(ad.conv1d(Tensor(x_val), Tensor(v), stride=2).data.sum())

        assert_grad_close(x.grad, fd_grad(f_x, x_val), rtol=1e-6)
        assert_grad_close(k.grad, fd_grad(f_k, k_val), rtol=1e-6)

    @pytest.mark.parametrize("stride", [-1, 0])
    def test_bad_stride(self, stride):
        x = Tensor(np.arange(10.0).reshape(1, 1, 10))
        with pytest.raises(DimensionError, match="stride >= 1"):
            ad.conv1d(x, Tensor(np.ones((1, 1, 3))), stride=stride)

    @settings(max_examples=300, deadline=None)
    @given(shape=_conv_shapes(), seed=st.integers(0, 2**32 - 1))
    @example(shape=(2, 3, 2, 10, 5, 2), seed=0)   # k < stride
    @example(shape=(2, 2, 3, 23, 3, 7), seed=1)   # k not a multiple of stride
    @example(shape=(1, 2, 2, 9, 4, 9), seed=2)    # k = t, t_out = 1
    @example(shape=(3, 1, 2, 9, 9, 4), seed=3)    # t_out = 1, stride > t - k
    @example(shape=(2, 2, 2, 30, 12, 30), seed=4)  # t_out = 1, zero taps past the input
    def test_matches_reference(self, shape, seed):
        n, c_in, c_out, t, stride, k = shape
        r = np.random.default_rng(seed)
        x_val = r.normal(size=(n, c_in, t))
        k_val = r.normal(size=(c_out, c_in, k))
        x, kern = _param(x_val), _param(k_val)
        out = ad.conv1d(x, kern, stride=stride)
        g = r.normal(size=out.shape)
        gx, g_kernel = out.node.backward_rule(g)
        for got, ref in zip((out.data, gx, g_kernel), _conv1d_reference(x_val, k_val, stride, g)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())

    def test_memory_peak_at_paper_scale(self, rng):
        # The second conv of path b at the ModelConfig defaults, B=4.
        x = _param(rng.normal(size=(80, 64, 246)))
        kern = _param(rng.normal(size=(64, 64, 8)))
        tracemalloc.start()
        try:
            out = ad.conv1d(x, kern)
            ad.backward(out.sum())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (x.data.nbytes + out.data.nbytes)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, np.full(5, 0.2), rtol=1e-15)

    def test_closed_form_two_logits(self):
        out = ad.softmax(Tensor([1.0, 0.0]), axis=0)
        e = math.e
        np.testing.assert_allclose(out.data, [e / (e + 1), 1 / (e + 1)], atol=5e-7)
        np.testing.assert_allclose(out.data, [0.731059, 0.268941], atol=5e-7)

    def test_no_overflow_on_huge_logits(self):
        out = ad.softmax(Tensor([1000.0, 0.0]), axis=0)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one_randomized(self, rng):
        for _ in range(1000):
            x = rng.normal(scale=rng.uniform(0.1, 50), size=(3, 7))
            s = ad.softmax(Tensor(x), axis=1).data.sum(axis=1)
            np.testing.assert_allclose(s, 1.0, atol=1e-12)
            assert (ad.softmax(Tensor(x), axis=1).data >= 0).all()

    def test_grad_matches_finite_differences(self, rng):
        x_val = rng.normal(size=(2, 5))
        w = rng.normal(size=(2, 5))  # random projection makes the check non-trivial
        x = _param(x_val)
        ad.backward((ad.softmax(x, axis=1) * Tensor(w)).sum())
        fd = fd_grad(lambda v: float((ad.softmax(Tensor(v), axis=1).data * w).sum()), x_val)
        assert_grad_close(x.grad, fd, rtol=1e-6)


class TestLogSoftmax:
    def test_exp_normalizes(self, rng):
        x = rng.normal(size=(4, 5))
        out = ad.log_softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-12)

    def test_grad_matches_finite_differences(self, rng):
        x_val = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        x = _param(x_val)
        ad.backward((ad.log_softmax(x, axis=-1) * Tensor(w)).sum())
        fd = fd_grad(lambda v: float((ad.log_softmax(Tensor(v), axis=-1).data * w).sum()), x_val)
        assert_grad_close(x.grad, fd, rtol=1e-6)


class TestLayernorm:
    def test_constant_row_is_zeroed(self):
        x = Tensor([[5.0, 5.0, 5.0, 5.0]])
        out = ad.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_two_point_closed_form(self):
        out = ad.layernorm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-300)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], rtol=1e-12)

    def test_row_statistics(self, rng):
        x = rng.normal(scale=3.0, size=(64, 8))
        out = ad.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_gain_bias_shape_checked(self):
        with pytest.raises(DimensionError):
            ad.layernorm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_grad_matches_finite_differences(self, rng):
        x_val = rng.normal(size=(2, 8))
        g_val = rng.normal(size=8)
        b_val = rng.normal(size=8)
        w = rng.normal(size=(2, 8))
        x, g, b = _param(x_val), _param(g_val), _param(b_val)
        ad.backward((ad.layernorm(x, g, b, eps=1e-5) * Tensor(w)).sum())

        def run(xv, gv, bv):
            return float((ad.layernorm(Tensor(xv), Tensor(gv), Tensor(bv), eps=1e-5).data * w).sum())

        assert_grad_close(x.grad, fd_grad(lambda v: run(v, g_val, b_val), x_val), rtol=1e-5, atol=1e-7)
        assert_grad_close(g.grad, fd_grad(lambda v: run(x_val, v, b_val), g_val), rtol=1e-5, atol=1e-7)
        assert_grad_close(b.grad, fd_grad(lambda v: run(x_val, g_val, v), b_val), rtol=1e-5, atol=1e-7)


class TestGelu:
    def test_zero(self):
        assert ad.gelu(Tensor(0.0)).item() == 0.0

    def test_at_one_matches_normal_cdf(self):
        # Phi(1) from the erf oracle
        phi_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(ad.gelu(Tensor(1.0)).item() - phi_1) < 1e-12
        assert abs(ad.gelu(Tensor(1.0)).item() - 0.841345) < 5e-7

    def test_deep_negative_tail(self):
        val = ad.gelu(Tensor(-10.0)).item()
        assert not math.isnan(val)
        assert abs(val - (-7.6e-23)) < 1e-24

    def test_grad_matches_finite_differences(self, rng):
        x_val = rng.normal(size=12)
        x = _param(x_val)
        ad.backward(ad.gelu(x).sum())
        fd = fd_grad(lambda v: float(ad.gelu(Tensor(v)).data.sum()), x_val)
        assert_grad_close(x.grad, fd, rtol=1e-6)

    def test_backward_bitwise_equal_to_closed_form(self, rng):
        special = [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 1e-300, -1e-300, 8.5, -8.5]
        x_val = np.concatenate([special, rng.normal(scale=4.0, size=4000)])
        g = rng.normal(size=x_val.shape)
        with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) and inf * pdf(inf) are inf * 0
            (got,) = ad.gelu(_param(x_val)).node.backward_rule(g)
            pdf = np.exp(-0.5 * x_val * x_val) * (1.0 / math.sqrt(2.0 * math.pi))
            expect = g * (ndtr(x_val) + x_val * pdf)
        assert got.tobytes() == expect.tobytes()

    def test_no_grad_output_bitwise_equal_to_grad_path(self, rng):
        special = [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 1e-300, -1e-300]
        x_val = np.concatenate([special, rng.normal(size=200_000)])
        with np.errstate(invalid="ignore"):   # -inf * Phi(-inf) is inf * 0
            with_grad = ad.gelu(_param(x_val)).data
            with ad.no_grad():
                without = ad.gelu(_param(x_val))
            closed_form = x_val * ndtr(x_val)
        assert without.node is None
        assert without.data.tobytes() == with_grad.tobytes() == closed_form.tobytes()

    def test_grad_allocates_only_output_and_derivative(self, rng):
        # a GELU at paper width: B=4 windows of S=20 epochs, 64 channels, 246 samples
        x = _param(rng.normal(size=(80, 64, 246)))
        tracemalloc.start()
        try:
            y = ad.gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.node is not None
        assert peak <= 2 * y.data.nbytes + (1 << 20)

    def test_no_grad_allocates_only_the_output(self, rng):
        x = Tensor(rng.normal(size=(1 << 20,)))        # 8 MB
        ad.gelu(x)
        tracemalloc.start()
        try:
            y = ad.gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.node is None
        assert peak < 1.25 * x.data.nbytes


class TestRelu:
    def test_elementwise(self):
        np.testing.assert_array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        np.testing.assert_array_equal(ad.relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])

    def test_subgradient(self):
        x = _param([-2.0, 0.0, 3.0])
        ad.backward(ad.relu(x).sum())
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_grad_matches_finite_differences_away_from_zero(self, rng):
        x_val = rng.normal(size=20)
        x_val[np.abs(x_val) < 0.1] += 0.5  # keep clear of the kink
        x = _param(x_val)
        ad.backward(ad.relu(x).sum())
        assert_grad_close(x.grad, fd_grad(lambda v: float(np.maximum(v, 0).sum()), x_val), rtol=1e-6)


class TestAdaptiveAvgPool:
    def test_identity_length(self, rng):
        x = rng.normal(size=(1, 2, 4))
        np.testing.assert_array_equal(ad.adaptive_avg_pool1d(Tensor(x), 4).data, x)

    def test_segment_means(self):
        out = ad.adaptive_avg_pool1d(Tensor([[[1.0, 2.0, 3.0, 4.0]]]), 2)
        np.testing.assert_array_equal(out.data, [[[1.5, 3.5]]])

    def test_constant_preserved_any_out_len(self):
        x = Tensor(np.full((1, 1, 7), 3.25))
        for out_len in range(1, 8):
            np.testing.assert_allclose(ad.adaptive_avg_pool1d(x, out_len).data, 3.25, rtol=1e-15)

    def test_mean_preserved_when_divisible(self, rng):
        x = rng.normal(size=(2, 3, 12))
        out = ad.adaptive_avg_pool1d(Tensor(x), 4).data
        np.testing.assert_allclose(out.mean(), x.mean(), rtol=1e-12)

    def test_out_len_too_large(self):
        with pytest.raises(DimensionError):
            ad.adaptive_avg_pool1d(Tensor(np.zeros((1, 1, 3))), 4)

    def test_grad_matches_finite_differences(self, rng):
        x_val = rng.normal(size=(1, 2, 10))
        w = rng.normal(size=(1, 2, 3))
        x = _param(x_val)
        ad.backward((ad.adaptive_avg_pool1d(x, 3) * Tensor(w)).sum())
        fd = fd_grad(lambda v: float((ad.adaptive_avg_pool1d(Tensor(v), 3).data * w).sum()), x_val)
        assert_grad_close(x.grad, fd, rtol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        x = _param(np.arange(6.0).reshape(2, 3))
        ad.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_analytic_square(self):
        x = _param([1.0, 2.0])
        ad.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-12)

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(_param([1.0, 2.0]))

    def test_shared_input_counted_once_per_use(self):
        x = _param([3.0])
        ad.backward((x + x).sum())
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_repeated_backward_accumulates(self):
        x = _param([1.0, 1.0])
        loss = x.sum()
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_grad_written_on_leaves_only(self, rng):
        x = _param(rng.normal(size=(2, 3)))
        w = _param(rng.normal(size=(3, 4)))
        h = x @ w
        y = ad.gelu(h)
        loss = (y * y).sum()
        ad.backward(loss)
        assert h.grad is None and y.grad is None and loss.grad is None
        gx, gw = x.grad.copy(), w.grad.copy()
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * gx)
        np.testing.assert_array_equal(w.grad, 2.0 * gw)
        assert h.grad is None and y.grad is None

    def test_leaf_loss_gets_unit_grad(self):
        x = _param([4.0])
        ad.backward(x)
        ad.backward(x)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_diamond_graph(self, rng):
        x_val = rng.normal(size=4)
        x = _param(x_val)
        y = ad.gelu(x)
        ad.backward((y * y + y).sum())
        fd = fd_grad(lambda v: float((ad.gelu(Tensor(v)).data ** 2 + ad.gelu(Tensor(v)).data).sum()), x_val)
        assert_grad_close(x.grad, fd, rtol=1e-6)

    def test_no_grad_suppresses_tape(self):
        x = _param([1.0])
        with ad.no_grad():
            y = x * 2.0
        assert y.node is None and not y.requires_grad


class TestShapeOps:
    def test_concat_and_narrow_roundtrip_grads(self, rng):
        a_val = rng.normal(size=(2, 3))
        b_val = rng.normal(size=(2, 2))
        a, b = _param(a_val), _param(b_val)
        cat = ad.concat([a, b], axis=1)
        ad.backward(ad.narrow(cat, 1, 1, 3).sum())
        expect_a = np.zeros((2, 3))
        expect_a[:, 1:] = 1.0
        expect_b = np.zeros((2, 2))
        expect_b[:, :1] = 1.0
        np.testing.assert_array_equal(a.grad, expect_a)
        np.testing.assert_array_equal(b.grad, expect_b)

    def test_permute_reshape_broadcast(self, rng):
        x = _param(rng.normal(size=(2, 3, 4)))
        y = ad.permute(x, (1, 0, 2)).reshape(3, 8)
        z = ad.broadcast_to(_param(np.ones((1, 8))), (3, 8))
        ad.backward((y * z).sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_mean_axis_grad(self, rng):
        x = _param(rng.normal(size=(3, 4)))
        ad.backward(x.mean(axis=1).sum())
        np.testing.assert_allclose(x.grad, np.full((3, 4), 0.25), rtol=1e-15)

    def test_div_grad(self, rng):
        a_val = rng.normal(size=5)
        b_val = rng.normal(size=5) + 3.0
        a, b = _param(a_val), _param(b_val)
        ad.backward(ad.div(a, b).sum())
        assert_grad_close(a.grad, 1.0 / b_val, rtol=1e-12)
        assert_grad_close(b.grad, -a_val / b_val**2, rtol=1e-12)

    def test_exp_sqrt_clamp(self, rng):
        x_val = np.abs(rng.normal(size=6)) + 0.5
        x = _param(x_val)
        ad.backward(ad.sqrt(ad.exp(x)).sum())
        fd = fd_grad(lambda v: float(np.sqrt(np.exp(v)).sum()), x_val)
        assert_grad_close(x.grad, fd, rtol=1e-6)
        y = _param([-1.0, 2.0])
        ad.backward(ad.clamp_min(y, 0.5).sum())
        np.testing.assert_array_equal(y.grad, [0.0, 1.0])


def _kept_after(forward):
    """Bytes allocated by forward() that are still held once it has returned."""
    tracemalloc.start()
    try:
        result = forward()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, kept


class TestTapeMemory:
    """A recorded op keeps only what its backward rule reads."""

    def test_data_free_rules_keep_no_input(self, rng):
        x = _param(rng.normal(size=(128, 64, 128)))    # 8 MB
        # scale and shift each make a fresh input-sized array; reshape and
        # permute are views; none of their rules reads data
        loss, kept = _kept_after(lambda: ad.sum_(
            ad.shift(ad.scale(x, 2.0), 1.0).reshape(128, 64 * 128).permute(1, 0)))
        assert kept < x.data.nbytes
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 2.0))

    def test_gelu_keeps_one_array_besides_its_output(self, rng):
        x = _param(rng.normal(size=(1 << 20,)))        # 8 MB
        # the input is an intermediate, so only the tape could keep it alive
        y, kept = _kept_after(lambda: ad.gelu(ad.scale(x, 1.0)))
        assert kept < 2.5 * x.data.nbytes
        ad.backward(y.sum())
        pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(x.grad, ndtr(x.data) + x.data * pdf, rtol=1e-14)

    def test_paper_scale_train_step_peak(self, rng):
        cfg = ModelConfig()
        params = ModelParams(cfg)
        B = 4
        shape = (B, cfg.S, 1, cfg.T)
        batch = PairBatch(X=Tensor(rng.normal(size=shape)), Xp=Tensor(rng.normal(size=shape)),
                          Y=rng.integers(0, 5, size=(B, cfg.S)), provenance="random",
                          companion_ids=np.zeros((B, cfg.S), dtype=np.int64))
        adam = AdamState(params.params())
        tracemalloc.start()
        try:
            parts = train_step(params, adam, batch, TrainConfig(batch_size=B), cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(parts["total"])
        assert peak < 200e6


def _floors(monkeypatch, floor):
    """Split every op that has at least `floor` values per task, over three CPUs."""
    monkeypatch.setattr(ad, "_TASK_FLOOR", floor)
    monkeypatch.setattr(ad, "_CONV_BWD_TASK_FLOOR", floor)
    monkeypatch.setattr(workers, "cpus", lambda: 3)


class TestSplitOps:
    """An op split into tasks gives the bytes of the same op run inline."""

    @pytest.fixture(autouse=True)
    def frequent_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("shape", [(5, 3, 4, 40, 8, 1), (5, 1, 4, 300, 50, 12),
                                       (5, 1, 4, 700, 400, 100)], ids=["s1", "s12", "s100"])
    def test_conv1d(self, monkeypatch, rng, shape, x_grad):
        n, c_in, c_out, t, k, stride = shape
        x_val, k_val = rng.normal(size=(n, c_in, t)), rng.normal(size=(c_out, c_in, k))
        g = rng.normal(size=(n, c_out, (t - k) // stride + 1))
        results = []
        for floor in (1 << 62, 1):
            _floors(monkeypatch, floor)
            out = ad.conv1d(Tensor(x_val, requires_grad=x_grad), _param(k_val), stride=stride)
            gx, g_kernel = out.node.backward_rule(g)
            assert (gx is None) == (not x_grad)
            results.append([a.tobytes() for a in (out.data, g_kernel, gx) if a is not None])
        assert results[0] == results[1]

    @pytest.mark.parametrize("requires_grad", [True, False])
    @pytest.mark.parametrize("shape", [(), (7,), (5, 4, 9), (9, 4, 5)], ids=["0d", "1d", "3d", "permuted"])
    def test_gelu(self, monkeypatch, rng, shape, requires_grad):
        x_val = rng.normal(scale=3.0, size=shape)
        if shape == (9, 4, 5):
            x_val = x_val.transpose(2, 1, 0)    # rows that are not contiguous
        results = []
        for floor in (1 << 62, 1):
            _floors(monkeypatch, floor)
            y = ad.gelu(Tensor(x_val, requires_grad=requires_grad))
            assert y.shape == x_val.shape
            kept = [y.data]
            if requires_grad:
                kept += y.node.backward_rule(np.ones(x_val.shape))   # g * d with g = 1 is d
            results.append([a.tobytes() for a in kept])
        assert results[0] == results[1]

    def test_forked_child_drops_the_inherited_pool(self, monkeypatch, rng):
        monkeypatch.setattr(workers, "cpus", lambda: 2)
        x = _param(rng.normal(size=(4, 8, 1 << 16)))    # 2**18 values per task
        kern = _param(rng.normal(size=(4, 8, 3)))
        ad.gelu(x)                                       # the pool and its thread exist
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                ad.backward(ad.gelu(ad.conv1d(x, kern)).sum())
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its ops within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0
