"""Architecture tests: shapes, the positional encoding, attention behavior,
the Siamese weight sharing, and gradient checks through an encoder block."""

import re
import tracemalloc

import numpy as np
import pytest

import sst.model
from sst import autodiff as ad
from sst.autodiff import Tensor
from sst.errors import ConfigError, DimensionError
from sst.model import (
    EncoderBlockParams,
    ModelConfig,
    ModelParams,
    cnn_block_forward,
    encoder_block_forward,
    multi_head_attention,
    positional_encoding,
    sst_forward,
)

from conftest import assert_grad_close, fd_grad


def toy_config(**overrides):
    base = dict(fs=10, S=4, D=16, N=4, A=4, head_dim=4, d=1, ffn_dim=32)
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_t_derived(self):
        assert toy_config().T == 300
        assert ModelConfig().T == 3000

    def test_head_split_must_cover_d(self):
        with pytest.raises(ConfigError):
            toy_config(A=3)

    def test_head_dim_derived(self):
        assert toy_config(head_dim=None).head_dim == 4
        assert ModelConfig().head_dim == 8
        assert ModelConfig(D=48, A=8).head_dim == 6

    def test_head_dim_must_equal_d_over_a(self):
        with pytest.raises(ConfigError, match=re.escape("[model] head_dim = 8 must equal D/A = 4")):
            toy_config(head_dim=8)

    def test_d_must_split_across_heads(self):
        with pytest.raises(ConfigError, match="D must be a multiple of A, got D=16, A=3"):
            toy_config(A=3, head_dim=None)

    def test_odd_token_count_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(N=5)

    def test_odd_rate_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(fs=9, A=4)

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(d=-1)

    def test_zero_depth_allowed(self):
        assert toy_config(d=0).d == 0


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(3, 4).data
        np.testing.assert_allclose(pe[0], [-1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_position_one(self):
        pe = positional_encoding(3, 4).data
        expected = [-np.cos(1.0), np.sin(1.0), -np.cos(0.01), np.sin(0.01)]
        np.testing.assert_allclose(pe[1], expected, rtol=1e-12)

    def test_bounded(self):
        pe = positional_encoding(64, 32).data
        assert pe.shape == (64, 32)
        assert np.all(np.abs(pe) <= 1.0)

    def test_even_index_is_negative_cosine(self):
        pe = positional_encoding(8, 6).data
        pos = np.arange(8, dtype=float)
        np.testing.assert_allclose(pe[:, 0], -np.cos(pos), atol=1e-12)
        np.testing.assert_allclose(pe[:, 1], np.sin(pos), atol=1e-12)


class TestCnnBlock:
    def test_output_shape(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        x = Tensor(rng.standard_normal((2, 4, 1, 300)))
        out = cnn_block_forward(x, params, cfg)
        assert out.shape == (8, cfg.N + 1, cfg.D)

    def test_full_width_shape(self, rng):
        cfg = ModelConfig(fs=100, S=2, D=64, N=16, A=8, head_dim=8, d=1, ffn_dim=128)
        params = ModelParams(cfg, rng)
        x = Tensor(rng.standard_normal((1, 2, 1, 3000)))
        out = cnn_block_forward(x, params, cfg)
        assert out.shape == (2, 17, 64)

    def test_class_token_slot_is_input_independent(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        a = cnn_block_forward(Tensor(rng.standard_normal((2, 4, 1, 300))), params, cfg)
        b = cnn_block_forward(Tensor(rng.standard_normal((2, 4, 1, 300))), params, cfg)
        np.testing.assert_array_equal(a.data[:, 0, :], b.data[:, 0, :])
        assert not np.allclose(a.data[:, 1:, :], b.data[:, 1:, :])

    def test_wrong_shape_rejected(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        with pytest.raises(DimensionError):
            cnn_block_forward(Tensor(rng.standard_normal((2, 4, 1, 299))), params, cfg)
        with pytest.raises(DimensionError, match=r"\(B, 4, 1, 300\)"):
            cnn_block_forward(Tensor(rng.standard_normal((2, 4, 2, 300))), params, cfg)


def record_outputs(monkeypatch, module, name):
    """The output of every call of module.name made while the test runs."""
    outputs = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        outputs.append(real(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(module, name, recorded)
    return outputs


def tiny_block(rng, D=4, ffn=8):
    u = lambda *s: Tensor(rng.uniform(-0.5, 0.5, size=s), requires_grad=True)
    return EncoderBlockParams(
        wq=u(D, D), wk=u(D, D), wv=u(D, D), wm=u(D, D),
        ln1_gain=Tensor(np.ones(D), requires_grad=True),
        ln1_bias=Tensor(np.zeros(D), requires_grad=True),
        we1=u(D, ffn), we2=u(ffn, D),
        ln2_gain=Tensor(np.ones(D), requires_grad=True),
        ln2_bias=Tensor(np.zeros(D), requires_grad=True),
    )


class TestAttention:
    def test_rows_sum_to_one(self, rng, monkeypatch):
        block = tiny_block(rng)
        q = Tensor(rng.standard_normal((2, 3, 4)))
        c = Tensor(rng.standard_normal((2, 5, 4)))
        weights = record_outputs(monkeypatch, ad, "softmax")
        multi_head_attention(q, c, block, 2)
        (attn,) = [t.data for t in weights]
        assert attn.shape == (2, 2, 3, 5)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_single_context_ignores_queries(self, rng):
        block = tiny_block(rng)
        c = Tensor(rng.standard_normal((1, 1, 4)))
        out1 = multi_head_attention(Tensor(rng.standard_normal((1, 3, 4))), c, block, 2)
        out2 = multi_head_attention(Tensor(rng.standard_normal((1, 3, 4))), c, block, 2)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-15)
        np.testing.assert_allclose(out1.data[0, 0], out1.data[0, 2], atol=1e-15)

    def test_context_permutation_invariant(self, rng):
        block = tiny_block(rng)
        q = Tensor(rng.standard_normal((1, 3, 4)))
        c = rng.standard_normal((1, 5, 4))
        out = multi_head_attention(q, Tensor(c), block, 2)
        perm = rng.permutation(5)
        out_p = multi_head_attention(q, Tensor(c[:, perm, :]), block, 2)
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-12)

    def test_feature_mismatch_rejected(self, rng):
        block = tiny_block(rng)
        with pytest.raises(DimensionError):
            multi_head_attention(
                Tensor(rng.standard_normal((1, 3, 4))),
                Tensor(rng.standard_normal((1, 3, 6))),
                block, 2,
            )


class TestEncoderBlock:
    def test_shape_follows_queries(self, rng):
        block = tiny_block(rng)
        q = Tensor(rng.standard_normal((2, 3, 4)))
        c = Tensor(rng.standard_normal((2, 7, 4)))
        out = encoder_block_forward(q, c, block, 2)
        assert out.shape == (2, 3, 4)

    def test_rows_are_normalized(self, rng):
        block = tiny_block(rng)
        q = Tensor(rng.standard_normal((2, 3, 4)))
        out = encoder_block_forward(q, q, block, 2).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)

    def test_gradients_match_finite_differences(self, rng):
        block = tiny_block(rng)
        q = Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        weighting = rng.standard_normal((1, 3, 4))

        loss = ad.sum_(encoder_block_forward(q, q, block, 2) * Tensor(weighting))
        loss.backward()

        probes = [("q", q)] + [
            (name, getattr(block, name)) for name in ("wq", "wv", "wm", "we1", "ln1_gain", "ln2_bias")
        ]
        for name, tensor in probes:
            base = tensor.data.copy()

            def f(values, tensor=tensor, base=base):
                tensor.data = values
                with ad.no_grad():
                    out = encoder_block_forward(Tensor(q.data), Tensor(q.data), block, 2)
                tensor.data = base
                return float((out.data * weighting).sum())

            numeric = fd_grad(f, base)
            assert_grad_close(tensor.grad, numeric, rtol=1e-5, atol=1e-7)


class TestFullForward:
    def test_trace_shapes(self, rng, monkeypatch):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        x = Tensor(rng.standard_normal((2, 4, 1, 300)))
        xp = Tensor(rng.standard_normal((2, 4, 1, 300)))
        pooled = record_outputs(monkeypatch, ad, "narrow")
        encoded = record_outputs(monkeypatch, sst.model, "encoder_block_forward")
        trace = sst_forward(x, xp, params, cfg)
        assert trace.o_cnn_x.shape == (8, 5, 16)
        assert trace.o_cnn_xp.shape == (8, 5, 16)
        (o_ete,) = pooled                  # class-token slot of the cross-attention stack
        assert o_ete.shape == (8, 1, 16)
        o_se = encoded[-1]                 # output of the sequence stack
        assert o_se.shape == (2, 4, 16)
        assert trace.z.shape == (2, 4, 5)

    def test_deterministic(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        x = Tensor(rng.standard_normal((1, 4, 1, 300)))
        xp = Tensor(rng.standard_normal((1, 4, 1, 300)))
        z1 = sst_forward(x, xp, params, cfg).z.data
        z2 = sst_forward(x, xp, params, cfg).z.data
        np.testing.assert_array_equal(z1, z2)

    def test_swapping_inputs_swaps_cnn_traces(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        x = Tensor(rng.standard_normal((1, 4, 1, 300)))
        xp = Tensor(rng.standard_normal((1, 4, 1, 300)))
        fwd = sst_forward(x, xp, params, cfg)
        swapped = sst_forward(xp, x, params, cfg)
        np.testing.assert_array_equal(fwd.o_cnn_x.data, swapped.o_cnn_xp.data)
        np.testing.assert_array_equal(fwd.o_cnn_xp.data, swapped.o_cnn_x.data)

    def test_identical_inputs_give_identical_branches(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        x = Tensor(rng.standard_normal((1, 4, 1, 300)))
        trace = sst_forward(x, x, params, cfg)
        np.testing.assert_array_equal(trace.o_cnn_x.data, trace.o_cnn_xp.data)

    def test_zero_depth_collapses_to_class_token(self, rng):
        cfg = toy_config(d=0)
        params = ModelParams(cfg, rng)
        z1 = sst_forward(
            Tensor(rng.standard_normal((1, 4, 1, 300))),
            Tensor(rng.standard_normal((1, 4, 1, 300))),
            params, cfg,
        ).z.data
        z2 = sst_forward(
            Tensor(rng.standard_normal((1, 4, 1, 300))),
            Tensor(rng.standard_normal((1, 4, 1, 300))),
            params, cfg,
        ).z.data
        np.testing.assert_array_equal(z1, z2)

    def test_inference_peak_below_its_batch(self, rng):
        # A transfer batch at the benchmark's EDF widths: 32 windows of 10
        # epochs at 100 Hz, 7.7 MB. Embedded whole, path b's folded input and
        # its conv output alone come to 12.7 MB.
        cfg = ModelConfig(fs=100, S=10, D=8, N=2, A=2, d=1, ffn_dim=16)
        params = ModelParams(cfg, rng)
        x = Tensor(rng.standard_normal((32, cfg.S, 1, cfg.T)))
        tracemalloc.start()
        try:
            with ad.no_grad():
                trace = sst_forward(x, x, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.z.shape == (32, cfg.S, 5)
        assert peak < x.data.nbytes

    def test_shape_mismatch_rejected(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        with pytest.raises(DimensionError):
            sst_forward(
                Tensor(rng.standard_normal((1, 4, 1, 300))),
                Tensor(rng.standard_normal((2, 4, 1, 300))),
                params, cfg,
            )


class TestModelParams:
    def test_named_params_deterministic(self):
        cfg = toy_config(d=2)
        names_a = [n for n, _ in ModelParams(cfg, np.random.default_rng(0)).named_params()]
        names_b = [n for n, _ in ModelParams(cfg, np.random.default_rng(7)).named_params()]
        assert names_a == names_b
        assert names_a[0] == "conv_a1"
        assert names_a[-1] == "w_mlp"
        assert "ete.1.we2" in names_a
        assert len(set(names_a)) == len(names_a)

    def test_param_count_depends_only_on_config(self):
        cfg = toy_config()
        a = ModelParams(cfg, np.random.default_rng(1))
        b = ModelParams(cfg, np.random.default_rng(2))
        count = lambda params: sum(t.data.size for t in params.params())
        assert count(a) == count(b)

    def test_init_scale(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        k_a = 4 * cfg.fs
        assert np.max(np.abs(params.conv_a1.data)) <= 1.0 / np.sqrt(k_a)
        assert np.max(np.abs(params.w_mlp.data)) <= 1.0 / np.sqrt(cfg.D)
        np.testing.assert_array_equal(params.ete[0].ln1_gain.data, np.ones(cfg.D))
        np.testing.assert_array_equal(params.ete[0].ln2_bias.data, np.zeros(cfg.D))
        assert np.std(params.cls_token.data) < 0.1

    def test_copy_does_not_reinitialize(self, rng, monkeypatch):
        cfg = toy_config(d=2)
        params = ModelParams(cfg, rng)
        params.w_mlp.grad = np.ones_like(params.w_mlp.data)

        def no_init(*args):
            raise AssertionError("copy() re-ran the random initialization")

        monkeypatch.setattr(sst.model, "_uniform", no_init)
        monkeypatch.setattr(sst.model, "_encoder_block", no_init)
        dup = params.copy()
        assert dup.config is params.config
        assert [n for n, _ in dup.named_params()] == [n for n, _ in params.named_params()]
        for (_, src), (_, dst) in zip(params.named_params(), dup.named_params()):
            assert dst.data.tobytes() == src.data.tobytes()
            assert dst.data is not src.data
            assert dst.requires_grad and dst.grad is None and dst.node is None
        dup.se[1].wq.data[0, 0] += 1.0
        assert params.se[1].wq.data[0, 0] != dup.se[1].wq.data[0, 0]

    def test_copy_is_deep(self, rng):
        cfg = toy_config()
        params = ModelParams(cfg, rng)
        dup = params.copy()
        for (_, src), (_, dst) in zip(params.named_params(), dup.named_params()):
            np.testing.assert_array_equal(src.data, dst.data)
            assert src is not dst
        dup.w_mlp.data[0, 0] += 1.0
        assert params.w_mlp.data[0, 0] != dup.w_mlp.data[0, 0]
