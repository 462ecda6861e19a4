"""Tests for the full-model efficiency probe and attention equivariances."""

import numpy as np
import pytest

from repro import nn
from repro.core import Conformer, ConformerConfig
from repro.eval.complexity import measure_model
from repro.tensor import Tensor

RNG = np.random.default_rng(120)


class TestMeasureModel:
    def _builder(self, input_len, label_len, pred_len):
        return Conformer(ConformerConfig(
            enc_in=3, dec_in=3, c_out=3,
            input_len=input_len, label_len=label_len, pred_len=pred_len,
            d_model=8, n_heads=2, moving_avg=5, d_time=4, dropout=0.0,
        ))

    def test_returns_points_per_length(self):
        points = measure_model(self._builder, lengths=[8, 16], enc_in=3, repeats=1)
        assert [p.length for p in points] == [8, 16]
        assert all(p.seconds > 0 and p.peak_bytes > 0 for p in points)

    def test_longer_input_costs_more_memory(self):
        points = measure_model(self._builder, lengths=[8, 32], enc_in=3, repeats=1)
        assert points[1].peak_bytes > points[0].peak_bytes


class TestAttentionEquivariance:
    def test_full_attention_permutation_equivariant(self):
        """Permuting positions (q, k, v jointly) permutes the output."""
        q = Tensor(RNG.normal(size=(1, 1, 6, 4)))
        k = Tensor(RNG.normal(size=(1, 1, 6, 4)))
        v = Tensor(RNG.normal(size=(1, 1, 6, 4)))
        attn = nn.FullAttention()
        out = attn(q, k, v).data
        perm = RNG.permutation(6)
        out_perm = attn(
            Tensor(q.data[:, :, perm]), Tensor(k.data[:, :, perm]), Tensor(v.data[:, :, perm])
        ).data
        np.testing.assert_allclose(out_perm, out[:, :, perm], atol=1e-10)

    def test_sliding_window_not_permutation_equivariant(self):
        """Windowed attention depends on position order (locality)."""
        q = Tensor(RNG.normal(size=(1, 1, 8, 4)))
        k = Tensor(RNG.normal(size=(1, 1, 8, 4)))
        v = Tensor(RNG.normal(size=(1, 1, 8, 4)))
        attn = nn.SlidingWindowAttention(window=2)
        out = attn(q, k, v).data
        perm = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        out_perm = attn(
            Tensor(q.data[:, :, perm]), Tensor(k.data[:, :, perm]), Tensor(v.data[:, :, perm])
        ).data
        # reversal IS a symmetry of the symmetric window -> equal; use a
        # non-symmetric permutation instead
        perm2 = np.array([1, 3, 0, 2, 5, 7, 4, 6])
        out_perm2 = attn(
            Tensor(q.data[:, :, perm2]), Tensor(k.data[:, :, perm2]), Tensor(v.data[:, :, perm2])
        ).data
        assert not np.allclose(out_perm2, out[:, :, perm2])

    def test_attention_scale_covariance_in_values(self):
        """Scaling V scales the output (attention is linear in V)."""
        q = Tensor(RNG.normal(size=(1, 1, 5, 3)))
        k = Tensor(RNG.normal(size=(1, 1, 5, 3)))
        v = Tensor(RNG.normal(size=(1, 1, 5, 3)))
        attn = nn.FullAttention()
        out1 = attn(q, k, v).data
        out2 = attn(q, k, Tensor(3.0 * v.data)).data
        np.testing.assert_allclose(out2, 3.0 * out1, atol=1e-10)
