"""Tests for the attention zoo: correctness, masks, gradients, registry."""

import numpy as np
import pytest

from repro import nn
from repro.nn.attention import causal_mask
from repro.perf import op_profile
from repro.tensor import Tensor, functional as F
from tests.helpers import check_gradients

RNG = np.random.default_rng(21)


def qkv(batch=2, heads=2, length=8, d_head=4):
    make = lambda: Tensor(RNG.normal(size=(batch, heads, length, d_head)), requires_grad=True)
    return make(), make(), make()


class TestFullAttention:
    def test_output_shape(self):
        q, k, v = qkv()
        out = nn.FullAttention()(q, k, v)
        assert out.shape == q.shape

    def test_uniform_when_queries_orthogonal_scores_zero(self):
        # zero queries -> uniform weights -> output = mean of values
        q = Tensor(np.zeros((1, 1, 4, 3)))
        k = Tensor(RNG.normal(size=(1, 1, 4, 3)))
        v = Tensor(RNG.normal(size=(1, 1, 4, 3)))
        out = nn.FullAttention()(q, k, v)
        np.testing.assert_allclose(out.data, np.broadcast_to(v.data.mean(axis=2, keepdims=True), out.shape))

    def test_causal_ignores_future(self):
        q, k, v = qkv(batch=1, heads=1, length=6)
        attn = nn.FullAttention(causal=True)
        out1 = attn(q, k, v)
        v2 = Tensor(v.data.copy())
        v2.data[:, :, -1, :] += 100.0  # change only the last value
        k2 = Tensor(k.data.copy())
        out2 = attn(q, k2, v2)
        np.testing.assert_allclose(out1.data[:, :, :-1, :], out2.data[:, :, :-1, :])

    def test_gradients(self):
        q, k, v = qkv(batch=1, heads=1, length=4, d_head=3)
        attn = nn.FullAttention()
        check_gradients(lambda: (attn(q, k, v) ** 2).sum(), [q, k, v], atol=1e-4)

    def test_cross_attention_lengths(self):
        q = Tensor(RNG.normal(size=(1, 2, 5, 4)))
        k = Tensor(RNG.normal(size=(1, 2, 9, 4)))
        v = Tensor(RNG.normal(size=(1, 2, 9, 4)))
        assert nn.FullAttention()(q, k, v).shape == (1, 2, 5, 4)


class TestSlidingWindowAttention:
    def test_shape(self):
        q, k, v = qkv()
        out = nn.SlidingWindowAttention(window=2)(q, k, v)
        assert out.shape == q.shape

    def test_locality(self):
        """Changing a value outside the window must not change the output."""
        q, k, v = qkv(batch=1, heads=1, length=10)
        attn = nn.SlidingWindowAttention(window=2)  # one neighbour each side
        out1 = attn(q, k, v).data.copy()
        v2 = Tensor(v.data.copy())
        v2.data[0, 0, 9, :] += 50.0  # far from position 0..7
        out2 = attn(q, k, v2).data
        np.testing.assert_allclose(out1[0, 0, :8], out2[0, 0, :8])
        assert not np.allclose(out1[0, 0, 8:], out2[0, 0, 8:])

    def test_matches_full_attention_with_band_mask(self):
        q, k, v = qkv(batch=1, heads=1, length=7, d_head=3)
        window = 4
        swa = nn.SlidingWindowAttention(window=window)(q, k, v)
        # build the equivalent banded mask for full attention
        idx = np.arange(7)
        band = np.abs(idx[:, None] - idx[None, :]) > window // 2
        full = nn.FullAttention()(q, k, v, mask=band)
        np.testing.assert_allclose(swa.data, full.data, atol=1e-10)

    def test_causal_variant(self):
        q, k, v = qkv(batch=1, heads=1, length=6)
        attn = nn.SlidingWindowAttention(window=4, causal=True)
        out1 = attn(q, k, v)
        v2 = Tensor(v.data.copy())
        v2.data[:, :, 3, :] += 10.0
        out2 = attn(q, k, v2)
        # positions before 3 cannot see position 3
        np.testing.assert_allclose(out1.data[:, :, :3], out2.data[:, :, :3])

    def test_gradients(self):
        q, k, v = qkv(batch=1, heads=1, length=5, d_head=2)
        attn = nn.SlidingWindowAttention(window=2)
        check_gradients(lambda: (attn(q, k, v) ** 2).sum(), [q, k, v], atol=1e-4)

    @pytest.mark.parametrize("half", [0, 1, 2, 6])
    def test_window_scores_gradients(self, half):
        q, k, _ = qkv(batch=2, heads=1, length=5, d_head=3)
        check_gradients(lambda: (F.window_scores(q, k, half) ** 2).sum(), [q, k])

    @pytest.mark.parametrize("half", [0, 1, 2, 6])
    def test_window_mix_gradients(self, half):
        _, _, v = qkv(batch=2, heads=1, length=5, d_head=3)
        weights = Tensor(RNG.normal(size=(2, 1, 5, 2 * half + 1)), requires_grad=True)
        check_gradients(lambda: (F.window_mix(weights, v, half) ** 2).sum(), [weights, v])

    def test_window_kernels_match_gather_definition(self):
        q, k, v = qkv(batch=2, heads=2, length=6, d_head=3)
        half = 2
        offsets = np.arange(-half, half + 1)
        positions = np.arange(6)[:, None] + offsets[None, :]
        valid = (positions >= 0) & (positions < 6)
        k_win = k.data[:, :, np.clip(positions, 0, 5), :]  # (B, H, L, w+1, d)
        scores = np.einsum("bhld,bhlwd->bhlw", q.data, k_win) / np.sqrt(3)
        np.testing.assert_allclose(F.window_scores(q, k, half).data, np.where(valid, scores, 0.0), atol=1e-12)
        weights = RNG.normal(size=(2, 2, 6, 2 * half + 1))
        v_win = v.data[:, :, np.clip(positions, 0, 5), :]
        mixed = np.einsum("bhlw,bhlwd->bhld", np.where(valid, weights, 0.0), v_win)
        np.testing.assert_allclose(F.window_mix(Tensor(weights), v, half).data, mixed, atol=1e-12)

    def test_fused_forward_records_no_gather(self):
        q, k, v = qkv(length=9)
        with op_profile() as prof:
            nn.SlidingWindowAttention(window=4)(q, k, v)
        taped = {op: row["tape_nodes"] for op, row in prof.per_op().items() if row["tape_nodes"]}
        assert taped == {"window_scores": 1, "softmax_masked": 1, "window_mix": 1}

    def test_requires_self_attention(self):
        q = Tensor(RNG.normal(size=(1, 1, 4, 2)))
        k = Tensor(RNG.normal(size=(1, 1, 6, 2)))
        with pytest.raises(ValueError):
            nn.SlidingWindowAttention(window=2)(q, k, k)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            nn.SlidingWindowAttention(window=0)


class TestLogSparseAttention:
    def test_mask_pattern(self):
        attn = nn.LogSparseAttention(sub_len=1)
        mask = attn.log_mask(8, 8)
        allowed = ~mask
        # position 7 attends to itself and 7-1, 7-2, 7-4
        assert allowed[7, 7] and allowed[7, 6] and allowed[7, 5] and allowed[7, 3]
        assert not allowed[7, 4] and not allowed[7, 0]
        # no future positions
        assert not np.any(np.triu(allowed, k=1))

    def test_shape_and_grad(self):
        q, k, v = qkv(batch=1, heads=1, length=6, d_head=2)
        attn = nn.LogSparseAttention()
        assert attn(q, k, v).shape == q.shape
        check_gradients(lambda: (attn(q, k, v) ** 2).sum(), [q, k, v], atol=1e-4)


class TestProbSparseAttention:
    def test_shape(self):
        q, k, v = qkv(length=16)
        out = nn.ProbSparseAttention(factor=2)(q, k, v)
        assert out.shape == q.shape

    def test_reduces_to_something_close_to_full_for_large_factor(self):
        q, k, v = qkv(batch=1, heads=1, length=6, d_head=3)
        sparse = nn.ProbSparseAttention(factor=100)(q, k, v)  # selects all queries
        full = nn.FullAttention()(q, k, v)
        np.testing.assert_allclose(sparse.data, full.data, atol=1e-8)

    def test_lazy_queries_get_mean_value(self):
        q, k, v = qkv(batch=1, heads=1, length=32, d_head=4)
        out = nn.ProbSparseAttention(factor=1, seed=0)(q, k, v)
        mean_v = v.data.mean(axis=2)
        # at least one row should be exactly the mean (a lazy query)
        distances = np.abs(out.data[0, 0] - mean_v[0, 0]).sum(axis=-1)
        assert np.min(distances) < 1e-10

    def test_gradients_flow(self):
        q, k, v = qkv(batch=1, heads=1, length=8, d_head=2)
        out = (nn.ProbSparseAttention(factor=2)(q, k, v) ** 2).sum()
        out.backward()
        assert q.grad is not None and v.grad is not None

    def test_causal(self):
        q, k, v = qkv(batch=1, heads=1, length=8, d_head=2)
        out = nn.ProbSparseAttention(factor=2, causal=True)(q, k, v)
        assert out.shape == q.shape


class TestLSHAttention:
    def test_shape_divisible(self):
        q, k, v = qkv(length=16)
        out = nn.LSHAttention(bucket_length=4)(q, k, v)
        assert out.shape == q.shape

    def test_fallback_on_awkward_length(self):
        q, k, v = qkv(length=7)
        out = nn.LSHAttention(bucket_length=4)(q, k, v)
        assert out.shape == q.shape

    def test_multi_round(self):
        q, k, v = qkv(length=8)
        out = nn.LSHAttention(bucket_length=4, n_rounds=3)(q, k, v)
        assert out.shape == q.shape

    def test_gradients_flow(self):
        q, k, v = qkv(batch=1, heads=1, length=8, d_head=2)
        out = (nn.LSHAttention(bucket_length=4)(q, k, v) ** 2).sum()
        out.backward()
        assert q.grad is not None and v.grad is not None and k.grad is not None


class TestAutoCorrelation:
    def test_shape(self):
        q, k, v = qkv(length=16)
        out = nn.AutoCorrelation(factor=1)(q, k, v)
        assert out.shape == q.shape

    def test_detects_shift(self):
        """For v = roll(q, s), the dominant delay should recover the shift."""
        length = 32
        base = np.sin(2 * np.pi * np.arange(length) / 8.0)
        q = Tensor(base.reshape(1, 1, length, 1), requires_grad=True)
        k = Tensor(np.roll(base, -4).reshape(1, 1, length, 1))
        v = Tensor(RNG.normal(size=(1, 1, length, 1)))
        attn = nn.AutoCorrelation(factor=1)
        out = attn(q, k, v)
        assert out.shape == (1, 1, length, 1)

    def test_mismatched_kv_length(self):
        q = Tensor(RNG.normal(size=(1, 1, 8, 2)))
        k = Tensor(RNG.normal(size=(1, 1, 12, 2)))
        v = Tensor(RNG.normal(size=(1, 1, 12, 2)))
        assert nn.AutoCorrelation()(q, k, v).shape == (1, 1, 8, 2)
        k2 = Tensor(RNG.normal(size=(1, 1, 5, 2)))
        v2 = Tensor(RNG.normal(size=(1, 1, 5, 2)))
        assert nn.AutoCorrelation()(q, k2, v2).shape == (1, 1, 8, 2)

    def test_gradients_flow(self):
        q, k, v = qkv(batch=1, heads=1, length=8, d_head=2)
        out = (nn.AutoCorrelation(factor=1)(q, k, v) ** 2).sum()
        out.backward()
        assert v.grad is not None and q.grad is not None


class TestMultiHeadAttention:
    def test_self_attention_shape(self):
        mha = nn.MultiHeadAttention(d_model=16, n_heads=4)
        x = Tensor(RNG.normal(size=(2, 10, 16)))
        assert mha(x).shape == (2, 10, 16)

    def test_cross_attention_shape(self):
        mha = nn.MultiHeadAttention(d_model=16, n_heads=4)
        x = Tensor(RNG.normal(size=(2, 6, 16)))
        memory = Tensor(RNG.normal(size=(2, 12, 16)))
        assert mha(x, memory, memory).shape == (2, 6, 16)

    def test_with_sliding_window_mechanism(self):
        mha = nn.MultiHeadAttention(16, 4, mechanism=nn.SlidingWindowAttention(window=2))
        x = Tensor(RNG.normal(size=(2, 10, 16)))
        assert mha(x).shape == (2, 10, 16)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(d_model=10, n_heads=3)

    def test_gradients(self):
        mha = nn.MultiHeadAttention(8, 2, dropout=0.0)
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        check_gradients(lambda: (mha(x) ** 2).sum(), mha.parameters()[:2], atol=1e-4)


class TestRegistry:
    @pytest.mark.parametrize("name", ["full", "sliding_window", "prob_sparse", "lsh", "log_sparse", "auto_correlation"])
    def test_get_attention(self, name):
        mech = nn.get_attention(name)
        q, k, v = qkv(batch=1, heads=1, length=8, d_head=4)
        assert mech(q, k, v).shape == q.shape

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            nn.get_attention("flash")

    def test_available(self):
        names = nn.available_attentions()
        assert "sliding_window" in names and "global_window" in names and len(names) == 7

    def test_causal_mask_helper(self):
        mask = causal_mask(4)
        assert mask[0, 1] and not mask[1, 0] and not mask[2, 2]
