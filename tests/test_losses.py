"""Loss tests: frozen hand values, degeneracy exactness, recomposition, and
gradient checks against finite differences."""

import numpy as np
import pytest

from sst import autodiff as ad
from sst.autodiff import Tensor
from sst.errors import ConfigError, DataError, DimensionError
from sst.losses import (
    LossConfig,
    cosine_alignment_loss,
    distillation_kl_loss,
    label_smoothing_loss,
    scaled_log_probs,
    total_loss,
)
from sst.model import ForwardTrace

from conftest import assert_grad_close, fd_grad

LOG_FIFTH = -1.6094379124341003


def fake_traces(rng, B=2, S=3, tokens=4, D=6):
    n = B * S
    mk = lambda *s: Tensor(rng.standard_normal(s), requires_grad=True)
    z_f, z_r = mk(B, S, 5), mk(B, S, 5)
    o_x, o_xp = mk(n, tokens, D), mk(n, tokens, D)
    fwd = ForwardTrace(o_cnn_x=o_x, o_cnn_xp=o_xp, z=z_f)
    rev = ForwardTrace(o_cnn_x=o_xp, o_cnn_xp=o_x, z=z_r)
    return fwd, rev


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert (cfg.tau, cfg.lam, cfg.alpha) == (5.0, 1.0, 0.1)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(tau=0.0)
        with pytest.raises(ConfigError):
            LossConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            LossConfig(lam=-0.1)


class TestScaledLogProbs:
    def test_uniform_logits(self):
        z = Tensor(np.zeros((1, 2, 5)))
        out = scaled_log_probs(z, 5.0).data
        np.testing.assert_allclose(out, LOG_FIFTH, rtol=1e-12)

    def test_rows_normalize(self, rng):
        z = Tensor(rng.standard_normal((10, 4, 5)) * 10.0)
        out = scaled_log_probs(z, 2.0).data
        np.testing.assert_allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-12)

    def test_high_temperature_flattens(self, rng):
        z = Tensor(rng.standard_normal((3, 3, 5)))
        out = scaled_log_probs(z, 1e6).data
        assert np.max(np.abs(out - LOG_FIFTH)) < 1e-5

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            scaled_log_probs(Tensor(np.zeros((1, 1, 5))), 0.0)


class TestLabelSmoothing:
    def test_uniform_logits_alpha_zero(self):
        z = Tensor(np.zeros((2, 3, 5)))
        y = np.zeros((2, 3), dtype=int)
        loss = label_smoothing_loss(z, y, alpha=0.0, tau=5.0)
        np.testing.assert_allclose(loss.item(), 1.609438, atol=1e-6)

    def test_confident_correct_prediction(self):
        z = np.zeros((1, 1, 5))
        z[0, 0, 2] = 60.0
        loss = label_smoothing_loss(Tensor(z), np.array([[2]]), alpha=0.0, tau=1.0)
        assert loss.item() < 1e-9

    def test_alpha_one_limit_is_label_free(self, rng):
        # alpha just below 1 since alpha=1 is out of range
        z = Tensor(rng.standard_normal((2, 3, 5)))
        a = label_smoothing_loss(z, rng.integers(0, 5, (2, 3)), alpha=0.999999999, tau=5.0)
        b = label_smoothing_loss(z, rng.integers(0, 5, (2, 3)), alpha=0.999999999, tau=5.0)
        np.testing.assert_allclose(a.item(), b.item(), rtol=1e-7)

    def test_out_of_range_label_names_position(self):
        z = Tensor(np.zeros((2, 3, 5)))
        y = np.zeros((2, 3), dtype=int)
        y[1, 2] = 7
        with pytest.raises(DataError, match=r"b=1.*s=2"):
            label_smoothing_loss(z, y, alpha=0.1, tau=5.0)

    def test_minimized_at_smoothed_target(self, rng):
        alpha = 0.1
        y = rng.integers(0, 5, (2, 3))
        q = np.full((2, 3, 5), alpha / 5)
        np.put_along_axis(q, y[..., None], alpha / 5 + 1 - alpha, axis=-1)
        z = Tensor(np.log(q), requires_grad=True)
        label_smoothing_loss(z, y, alpha=alpha, tau=1.0).backward()
        assert np.linalg.norm(z.grad) < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        z0 = rng.standard_normal((2, 2, 5))
        y = rng.integers(0, 5, (2, 2))
        z = Tensor(z0, requires_grad=True)
        label_smoothing_loss(z, y, alpha=0.1, tau=5.0).backward()
        numeric = fd_grad(
            lambda v: label_smoothing_loss(Tensor(v), y, alpha=0.1, tau=5.0).item(), z0
        )
        assert_grad_close(z.grad, numeric, rtol=1e-6)


class TestCosineAlignment:
    def test_identical_is_exactly_zero(self, rng):
        o = rng.standard_normal((4, 3, 6))
        loss = cosine_alignment_loss(Tensor(o), Tensor(o.copy()))
        assert loss.item() == 0.0

    def test_orthogonal_rows(self):
        a = np.zeros((1, 1, 4))
        b = np.zeros((1, 1, 4))
        a[0, 0, 0] = 3.0
        b[0, 0, 1] = 5.0
        assert cosine_alignment_loss(Tensor(a), Tensor(b)).item() == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_rows(self, rng):
        o = rng.standard_normal((4, 3, 6))
        loss = cosine_alignment_loss(Tensor(o), Tensor(-o))
        np.testing.assert_allclose(loss.item(), 2.0, atol=1e-12)

    def test_zero_rows_score_zero_similarity(self, rng):
        z = np.zeros((2, 3, 4))
        o = rng.standard_normal((2, 3, 4))
        assert cosine_alignment_loss(Tensor(z), Tensor(o)).item() == pytest.approx(1.0, abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(50):
            a = Tensor(rng.standard_normal((3, 2, 4)))
            b = Tensor(rng.standard_normal((3, 2, 4)))
            v = cosine_alignment_loss(a, b).item()
            assert 0.0 <= v <= 2.0

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            cosine_alignment_loss(
                Tensor(rng.standard_normal((2, 3, 4))), Tensor(rng.standard_normal((2, 3, 5)))
            )

    def test_gradient_matches_finite_differences(self, rng):
        a0 = rng.standard_normal((2, 2, 3))
        b0 = rng.standard_normal((2, 2, 3))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        cosine_alignment_loss(a, b).backward()
        numeric_a = fd_grad(lambda v: cosine_alignment_loss(Tensor(v), Tensor(b0)).item(), a0)
        numeric_b = fd_grad(lambda v: cosine_alignment_loss(Tensor(a0), Tensor(v)).item(), b0)
        assert_grad_close(a.grad, numeric_a, rtol=1e-6)
        assert_grad_close(b.grad, numeric_b, rtol=1e-6)


class TestDistillationKl:
    def test_identical_is_exactly_zero(self, rng):
        z = rng.standard_normal((2, 3, 5))
        assert distillation_kl_loss(Tensor(z), Tensor(z.copy()), tau=5.0).item() == 0.0

    def test_nonnegative(self, rng):
        z_f = Tensor(rng.standard_normal((100, 100, 5)) * 3.0)
        z_r = Tensor(rng.standard_normal((100, 100, 5)) * 3.0)
        assert distillation_kl_loss(z_f, z_r, tau=5.0).item() >= 0.0
        lp_f = scaled_log_probs(z_f, 5.0).data
        lp_r = scaled_log_probs(z_r, 5.0).data
        per_row = (np.exp(lp_f) * (lp_f - lp_r)).sum(axis=-1)
        assert per_row.min() >= -1e-15

    def test_hand_case_matches_direct_summation(self):
        p = np.array([0.5, 0.3, 0.1, 0.05, 0.05])
        q = np.array([0.25, 0.25, 0.2, 0.2, 0.1])
        oracle = float(np.sum(p * (np.log(p) - np.log(q))))
        z_f = Tensor(np.log(p).reshape(1, 1, 5))
        z_r = Tensor(np.log(q).reshape(1, 1, 5))
        got = distillation_kl_loss(z_f, z_r, tau=1.0).item()
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_asymmetric(self):
        p = np.log(np.array([0.7, 0.1, 0.1, 0.05, 0.05])).reshape(1, 1, 5)
        q = np.log(np.array([0.2, 0.2, 0.2, 0.2, 0.2])).reshape(1, 1, 5)
        fwd = distillation_kl_loss(Tensor(p), Tensor(q), tau=1.0).item()
        rev = distillation_kl_loss(Tensor(q), Tensor(p), tau=1.0).item()
        assert abs(fwd - rev) > 1e-3

    def test_gradient_flows_through_both_arguments(self, rng):
        zf0 = rng.standard_normal((1, 2, 5))
        zr0 = rng.standard_normal((1, 2, 5))
        z_f = Tensor(zf0, requires_grad=True)
        z_r = Tensor(zr0, requires_grad=True)
        distillation_kl_loss(z_f, z_r, tau=5.0).backward()
        assert z_f.grad is not None and np.linalg.norm(z_f.grad) > 0
        assert z_r.grad is not None and np.linalg.norm(z_r.grad) > 0
        num_f = fd_grad(lambda v: distillation_kl_loss(Tensor(v), Tensor(zr0), 5.0).item(), zf0)
        num_r = fd_grad(lambda v: distillation_kl_loss(Tensor(zf0), Tensor(v), 5.0).item(), zr0)
        assert_grad_close(z_f.grad, num_f, rtol=1e-6)
        assert_grad_close(z_r.grad, num_r, rtol=1e-6)


class TestTotalLoss:
    def test_recomposition(self, rng):
        fwd, rev = fake_traces(rng)
        y = rng.integers(0, 5, (2, 3))
        cfg = LossConfig()
        breakdown = total_loss(fwd, rev, y, cfg)
        recomposed = (
            breakdown.ls.item()
            + breakdown.cos.item()
            + cfg.lam * cfg.tau**2 * breakdown.kl.item()
        )
        np.testing.assert_allclose(breakdown.total.item(), recomposed, atol=1e-12)

    def test_identical_pair_reduces_to_label_smoothing(self, rng):
        z = rng.standard_normal((2, 3, 5))
        o = rng.standard_normal((6, 4, 6))
        fwd = ForwardTrace(o_cnn_x=Tensor(o), o_cnn_xp=Tensor(o.copy()), z=Tensor(z))
        rev = ForwardTrace(o_cnn_x=Tensor(o.copy()), o_cnn_xp=Tensor(o), z=Tensor(z.copy()))
        y = np.zeros((2, 3), dtype=int)
        breakdown = total_loss(fwd, rev, y, LossConfig())
        assert breakdown.cos.item() == 0.0
        assert breakdown.kl.item() == 0.0
        assert breakdown.total.item() == breakdown.ls.item()

    def test_zero_lambda_drops_kl(self, rng):
        fwd, rev = fake_traces(rng)
        y = rng.integers(0, 5, (2, 3))
        breakdown = total_loss(fwd, rev, y, LossConfig(lam=0.0))
        assert breakdown.total.item() == pytest.approx(
            breakdown.ls.item() + breakdown.cos.item(), abs=1e-15
        )
        assert breakdown.kl.item() > 0.0

    def test_components_nonnegative(self, rng):
        for _ in range(20):
            fwd, rev = fake_traces(rng)
            y = rng.integers(0, 5, (2, 3))
            b = total_loss(fwd, rev, y, LossConfig())
            assert b.ls.item() >= 0.0
            assert 0.0 <= b.cos.item() <= 2.0
            assert b.kl.item() >= 0.0

    def test_swap_changes_only_kl(self, rng):
        fwd, rev = fake_traces(rng)
        y = rng.integers(0, 5, (2, 3))
        cfg = LossConfig(alpha=0.0)
        b_fwd = total_loss(fwd, rev, y, cfg)
        b_rev = total_loss(rev, fwd, y, cfg)
        np.testing.assert_allclose(b_fwd.cos.item(), b_rev.cos.item(), atol=1e-12)
        assert abs(b_fwd.kl.item() - b_rev.kl.item()) > 1e-9

    def test_gradient_through_total(self, rng):
        fwd, rev = fake_traces(rng)
        y = rng.integers(0, 5, (2, 3))
        cfg = LossConfig()
        total_loss(fwd, rev, y, cfg).total.backward()
        for tensor in (fwd.z, rev.z, fwd.o_cnn_x, fwd.o_cnn_xp):
            assert tensor.grad is not None

        zf0 = fwd.z.data.copy()
        def f(values):
            fwd2 = ForwardTrace(
                o_cnn_x=Tensor(fwd.o_cnn_x.data), o_cnn_xp=Tensor(fwd.o_cnn_xp.data),
                z=Tensor(values),
            )
            rev2 = ForwardTrace(
                o_cnn_x=Tensor(rev.o_cnn_x.data), o_cnn_xp=Tensor(rev.o_cnn_xp.data),
                z=Tensor(rev.z.data),
            )
            return total_loss(fwd2, rev2, y, cfg).total.item()

        assert_grad_close(fwd.z.grad, fd_grad(f, zf0), rtol=1e-6)
