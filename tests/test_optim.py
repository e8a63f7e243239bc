import numpy as np

from sst.autodiff import Tensor, backward
from sst.optim import AdamState, adam_step, clip_global_norm, zero_grads

BETAS = (0.9, 0.999)


def _with_grad(data, grad):
    t = Tensor(data, requires_grad=True)
    t.grad = np.asarray(grad, dtype=np.float64)
    return t


class TestClipGlobalNorm:
    def test_scales_above_threshold(self):
        # global norm 10 -> every gradient halved, returns 10
        p = _with_grad(np.zeros(2), [6.0, 8.0])
        assert clip_global_norm([p], 5.0) == 10.0
        np.testing.assert_allclose(p.grad, [3.0, 4.0], rtol=1e-15)

    def test_below_threshold_unchanged(self):
        p = _with_grad(np.zeros(1), [3.0])
        assert clip_global_norm([p], 5.0) == 3.0
        np.testing.assert_array_equal(p.grad, [3.0])

    def test_zero_gradients(self):
        p = _with_grad(np.zeros(3), np.zeros(3))
        assert clip_global_norm([p], 5.0) == 0.0
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_idempotent(self, rng):
        params = [_with_grad(np.zeros(4), rng.normal(scale=10, size=4)) for _ in range(3)]
        clip_global_norm(params, 2.0)
        once = [p.grad.copy() for p in params]
        clip_global_norm(params, 2.0)
        for g, p in zip(once, params):
            np.testing.assert_allclose(p.grad, g, rtol=1e-14)

    def test_multi_param_norm(self):
        a = _with_grad(np.zeros(1), [3.0])
        b = _with_grad(np.zeros(1), [4.0])
        assert clip_global_norm([a, b], 100.0) == 5.0


class TestAdamStep:
    def test_first_step_is_signed_lr(self):
        # m_hat = g, v_hat = g^2 -> update = -lr * g / (|g| + eps)
        p = _with_grad([1.0, 1.0], [0.01, -0.2])
        adam_step([p], AdamState([p]), lr=0.001, betas=BETAS, weight_decay=0.0)
        np.testing.assert_allclose(p.data, [1.0 - 0.001, 1.0 + 0.001], rtol=1e-5)

    def test_zero_grad_zero_wd_unchanged(self):
        p = _with_grad([2.0], [0.0])
        adam_step([p], AdamState([p]), lr=0.1, betas=BETAS, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [2.0])

    def test_descent_on_quadratic(self):
        p = Tensor([3.0], requires_grad=True)
        state = AdamState([p])
        losses = []
        for _ in range(2):
            zero_grads([p])
            loss = (p * p).sum()
            losses.append(loss.item())
            backward(loss)
            adam_step([p], state, lr=0.05, betas=BETAS, weight_decay=0.0)
        final = (p * p).sum().item()
        assert final < losses[1] < losses[0]

    def test_coupled_weight_decay_moves_zero_grad_param(self):
        p = _with_grad([1.0], [0.0])
        adam_step([p], AdamState([p]), lr=0.001, betas=BETAS, weight_decay=0.1)
        assert p.data[0] < 1.0

    def test_missing_grad_skipped(self):
        p = Tensor([1.0], requires_grad=True)
        adam_step([p], AdamState([p]), lr=0.1, betas=BETAS, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [1.0])
