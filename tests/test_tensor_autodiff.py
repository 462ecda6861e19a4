"""Unit tests for the autodiff engine: every op vs finite differences."""

import warnings

import numpy as np
import pytest

from repro.nn import GRUCell
from repro.tensor import Tensor, compute_dtype, functional as F, inference_mode, no_grad
from tests.helpers import check_gradients

RNG = np.random.default_rng(7)


def randt(*shape, scale=1.0):
    return Tensor(RNG.normal(0.0, scale, size=shape), requires_grad=True)


class TestArithmetic:
    def test_add_broadcast(self):
        a, b = randt(3, 4), randt(4)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_sub(self):
        a, b = randt(2, 3), randt(2, 3)
        check_gradients(lambda: (a - b).sum(), [a, b])

    def test_mul_broadcast(self):
        a, b = randt(2, 3, 4), randt(1, 3, 1)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div(self):
        a = randt(3, 3)
        b = Tensor(RNG.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_neg_pow(self):
        a = Tensor(RNG.uniform(0.5, 2.0, (4,)), requires_grad=True)
        check_gradients(lambda: (-(a**3)).sum(), [a])

    def test_scalar_ops(self):
        a = randt(3)
        check_gradients(lambda: (2.0 * a + 1.0 - a / 3.0).sum(), [a])

    def test_rsub_rdiv(self):
        a = Tensor(RNG.uniform(0.5, 2.0, (3,)), requires_grad=True)
        check_gradients(lambda: (1.0 - a).sum() + (2.0 / a).sum(), [a])


class TestMatmul:
    def test_matmul_2d(self):
        a, b = randt(3, 4), randt(4, 5)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched(self):
        a, b = randt(2, 3, 4), randt(2, 4, 5)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_broadcast_batch(self):
        a, b = randt(2, 3, 4), randt(4, 5)
        check_gradients(lambda: (a @ b).sum(), [a, b])


class TestReductions:
    def test_sum_axis(self):
        a = randt(3, 4, 5)
        check_gradients(lambda: a.sum(axis=1).sum(), [a])

    def test_sum_keepdims(self):
        a = randt(3, 4)
        check_gradients(lambda: (a.sum(axis=0, keepdims=True) * a).sum(), [a])

    def test_mean(self):
        a = randt(4, 5)
        check_gradients(lambda: a.mean(), [a])

    def test_mean_axis(self):
        a = randt(2, 6)
        check_gradients(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_var(self):
        a = randt(3, 7)
        check_gradients(lambda: a.var(axis=1).sum(), [a])

    def test_max(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        check_gradients(lambda: a.max(axis=1).sum(), [a])

    def test_min(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        check_gradients(lambda: a.min(axis=0).sum(), [a])

    @pytest.mark.parametrize("axis", [None, 0, -1, (0, 2)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_min_values_match_numpy(self, axis, keepdims):
        a = Tensor(RNG.normal(size=(3, 4, 5)))
        for op, reference in ((F.max, np.max), (F.min, np.min)):
            out = op(a, axis=axis, keepdims=keepdims).data
            expected = np.asarray(reference(a.data, axis=axis, keepdims=keepdims))
            assert out.shape == expected.shape
            np.testing.assert_array_equal(out, expected)


class TestElementwise:
    @pytest.mark.parametrize(
        "op",
        [F.exp, F.tanh, F.sigmoid, F.relu, F.gelu, F.elu, F.softplus, F.erf, F.leaky_relu],
    )
    def test_activation_gradients(self, op):
        a = randt(4, 3, scale=0.8)
        # nudge away from relu kink at 0
        a.data[np.abs(a.data) < 1e-3] += 0.01
        check_gradients(lambda: op(a).sum(), [a])

    def test_softplus_matches_logaddexp(self):
        grid = np.concatenate([np.linspace(-60.0, 60.0, 2401), [-1e4, 1e4]])
        np.testing.assert_allclose(F.softplus(Tensor(grid)).data, np.logaddexp(0.0, grid), rtol=1e-15, atol=0)
        grid32 = grid.astype(np.float32)
        with compute_dtype(np.float32):
            out = F.softplus(Tensor(grid32)).data
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, np.logaddexp(np.float32(0.0), grid32), rtol=1e-6, atol=0)

    def test_log_sqrt(self):
        a = Tensor(RNG.uniform(0.5, 3.0, (5,)), requires_grad=True)
        check_gradients(lambda: (F.log(a) + F.sqrt(a)).sum(), [a])

    def test_abs(self):
        a = randt(6)
        a.data[np.abs(a.data) < 1e-3] += 0.01
        check_gradients(lambda: a.abs().sum(), [a])

    def test_clip(self):
        a = randt(8)
        a.data[np.abs(np.abs(a.data) - 0.5) < 1e-3] += 0.01
        check_gradients(lambda: a.clip(-0.5, 0.5).sum(), [a])

    def test_maximum(self):
        a, b = randt(5), randt(5)
        b.data += 0.05  # avoid exact ties
        check_gradients(lambda: F.maximum(a, b).sum(), [a, b])

    def test_where(self):
        a, b = randt(5), randt(5)
        cond = RNG.random(5) > 0.5
        check_gradients(lambda: F.where(cond, a, b).sum(), [a, b])


class TestSoftmax:
    def test_softmax_grad(self):
        a = randt(3, 6)
        w = Tensor(RNG.normal(size=(3, 6)))
        check_gradients(lambda: (F.softmax(a, axis=-1) * w).sum(), [a])

    def test_softmax_rows_sum_to_one(self):
        a = randt(4, 9)
        out = F.softmax(a, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_log_softmax_grad(self):
        a = randt(2, 5)
        w = Tensor(RNG.normal(size=(2, 5)))
        check_gradients(lambda: (F.log_softmax(a, axis=-1) * w).sum(), [a])

    def test_softmax_stability(self):
        a = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        out = F.softmax(a, axis=-1)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_max_matches_numpy_bit_for_bit(self, dtype):
        for width in range(1, 71):
            x = RNG.normal(size=(3, 5, width)).astype(dtype)
            x[0, 0, RNG.integers(width)] = np.nan
            x[0, 1] = -np.inf  # an all -inf row
            x[1, 2, RNG.integers(width)] = np.inf
            x[2, 3, RNG.integers(width)] = -np.inf
            slot_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
            for a in (x, slot_major, x[:, ::2]):
                out = F.row_max(a)
                assert out.dtype == dtype
                np.testing.assert_array_equal(out, a.max(axis=-1, keepdims=True))
            for axis in (0, 1):
                np.testing.assert_array_equal(F.row_max(x, axis), x.max(axis=axis, keepdims=True))


class TestShapeOps:
    def test_reshape(self):
        a = randt(2, 6)
        check_gradients(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose(self):
        a = randt(2, 3, 4)
        check_gradients(lambda: (a.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_swapaxes(self):
        a = randt(2, 3, 4)
        check_gradients(lambda: (a.swapaxes(1, 2) ** 2).sum(), [a])

    def test_getitem_slice(self):
        a = randt(5, 4)
        check_gradients(lambda: (a[1:4, ::2] ** 2).sum(), [a])

    def test_getitem_fancy(self):
        a = randt(6, 3)
        idx = np.array([0, 2, 2, 5])  # repeated index must accumulate
        check_gradients(lambda: (a[idx] ** 2).sum(), [a])

    @pytest.mark.parametrize(
        "index",
        [
            1,
            np.int64(-2),
            slice(None, None, -2),
            (Ellipsis, 1),
            (None, slice(1, 3), Ellipsis),
            (slice(0, 4, 3), None, -1),
            (2, slice(None), 0),
        ],
    )
    def test_getitem_basic_grad_equals_scatter_add(self, index):
        a = randt(4, 3, 2)
        grad = RNG.normal(size=a.data[index].shape)
        a[index].backward(grad)
        expected = np.zeros_like(a.data)
        np.add.at(expected, index, grad)
        np.testing.assert_array_equal(a.grad, expected)

    def test_getitem_repeated_fancy_index_accumulates(self):
        a = randt(5, 2)
        idx = (np.array([1, 3, 1, 1]), slice(None))
        a[idx].backward(np.ones((4, 2)))
        np.testing.assert_array_equal(a.grad[:, 0], [0.0, 3.0, 0.0, 1.0, 0.0])

    def test_concat(self):
        a, b = randt(2, 3), randt(2, 5)
        check_gradients(lambda: (F.concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self):
        a, b = randt(3, 4), randt(3, 4)
        check_gradients(lambda: (F.stack([a, b], axis=0) ** 2).sum(), [a, b])

    def test_split_roundtrip(self):
        a = randt(4, 6)
        parts = F.split(a, 3, axis=1)
        assert len(parts) == 3
        check_gradients(lambda: sum((p**2).sum() for p in F.split(a, 3, axis=1)), [a])

    def test_expand_squeeze(self):
        a = randt(3, 4)
        check_gradients(lambda: (a.expand_dims(1).squeeze(1) ** 2).sum(), [a])

    def test_broadcast_to(self):
        a = randt(1, 4)
        check_gradients(lambda: (a.broadcast_to((3, 4)) ** 2).sum(), [a])


class TestPadding:
    @pytest.mark.parametrize("mode", ["constant", "edge", "wrap"])
    def test_pad_grad(self, mode):
        a = randt(2, 5, 3)
        check_gradients(lambda: (F.pad(a, ((0, 0), (2, 1), (0, 0)), mode=mode) ** 2).sum(), [a])

    @pytest.mark.parametrize("before, after", [(5, 0), (0, 7), (4, 9)])
    def test_wrap_pad_wider_than_series_grad(self, before, after):
        a = randt(2, 3, 2)
        w = Tensor(RNG.normal(size=(2, 3 + before + after, 2)))
        check_gradients(lambda: (F.pad(a, ((0, 0), (before, after), (0, 0)), mode="wrap") * w).sum(), [a])

    def test_pad_shape(self):
        a = randt(2, 5, 3)
        out = F.pad(a, ((0, 0), (2, 3), (1, 0)))
        assert out.shape == (2, 10, 4)

    @pytest.mark.parametrize("mode", ["constant", "edge", "wrap"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pad_matches_numpy_bit_for_bit(self, mode, dtype):
        with compute_dtype(dtype):
            for length in (1, 3, 6):
                x = Tensor(RNG.normal(size=(2, length, 3)))
                for before, after in ((1, 0), (0, 2), (2, 3), (length, length), (2 * length + 1, length + 2)):
                    out = F._pad_axis(x, 1, before, after, mode).data
                    expected = np.pad(x.data, ((0, 0), (before, after), (0, 0)), mode=mode)
                    assert out.dtype == expected.dtype == dtype
                    np.testing.assert_array_equal(out, expected)


class TestConvPool:
    def test_conv1d_grad(self):
        x, w, b = randt(2, 7, 3), randt(3, 3, 4), randt(4)
        check_gradients(lambda: (F.conv1d(x, w, b, padding=1) ** 2).sum(), [x, w, b])

    def test_conv1d_circular(self):
        x, w = randt(1, 6, 2), randt(3, 2, 2)
        out = F.conv1d(x, w, padding=1, padding_mode="wrap")
        assert out.shape == (1, 6, 2)
        check_gradients(lambda: (F.conv1d(x, w, padding=1, padding_mode="wrap") ** 2).sum(), [x, w])

    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["constant", "edge", "wrap"])
    def test_conv1d_matches_sliding_window_definition(self, kernel, padding, mode):
        for length in (1, 6):
            if kernel > length + 2 * padding:
                continue
            x, w, b = randt(3, length, 2), randt(kernel, 2, 4), randt(4)
            padded = np.pad(x.data, ((0, 0), (padding, padding), (0, 0)), mode=mode)
            windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=1)  # (B, L_out, C, K)
            expected = np.einsum("blck,kco->blo", windows, w.data) + b.data
            out = F.conv1d(x, w, b, padding=padding, padding_mode=mode)
            np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
            check_gradients(lambda: (F.conv1d(x, w, b, padding=padding, padding_mode=mode) ** 2).sum(), [x, w, b])

    def test_conv1d_matches_manual(self):
        x = Tensor(np.arange(5, dtype=float).reshape(1, 5, 1))
        w = Tensor(np.ones((3, 1, 1)))
        out = F.conv1d(x, w, padding=0)
        np.testing.assert_allclose(out.data.ravel(), [3.0, 6.0, 9.0])

    def test_avg_pool_keeps_length(self):
        x = randt(2, 9, 3)
        out = F.avg_pool1d(x, kernel=5)
        assert out.shape == (2, 9, 3)

    def test_avg_pool_grad(self):
        x = randt(1, 7, 2)
        check_gradients(lambda: (F.avg_pool1d(x, kernel=3) ** 2).sum(), [x])

    @staticmethod
    def _moving_mean(data, kernel, stride):
        left = (kernel - 1) // 2
        padded = np.pad(data, ((0, 0), (left, kernel - 1 - left), (0, 0)), mode="edge")
        starts = range(0, padded.shape[1] - kernel + 1, stride)
        return np.stack([padded[:, s : s + kernel].mean(axis=1) for s in starts], axis=1)

    @pytest.mark.parametrize("kernel", [1, 2, 5, 13, 20])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_avg_pool_matches_moving_mean(self, kernel, stride):
        x = randt(2, 11, 3)  # kernel 20 > L
        out = F.avg_pool1d(x, kernel, stride=stride)
        np.testing.assert_allclose(out.data, self._moving_mean(x.data, kernel, stride), rtol=1e-12, atol=1e-14)
        check_gradients(lambda: (F.avg_pool1d(x, kernel, stride=stride) ** 2).sum(), [x])

    def test_avg_pool_without_padding_rejects_long_kernel(self):
        with pytest.raises(ValueError):
            F.avg_pool1d(randt(1, 4, 2), kernel=5, pad_edges=False)

    def test_avg_pool_constant_series(self):
        x = Tensor(np.full((1, 8, 1), 2.5))
        out = F.avg_pool1d(x, kernel=5)
        np.testing.assert_allclose(out.data, 2.5)

    def test_max_pool(self):
        x = randt(2, 8, 3)
        out = F.max_pool1d(x, kernel=2, stride=2)
        assert out.shape == (2, 4, 3)
        check_gradients(lambda: (F.max_pool1d(x, kernel=2, stride=2) ** 2).sum(), [x])


class TestLosses:
    def test_mse(self):
        pred, target = randt(4, 3), randt(4, 3)
        loss = F.mse_loss(pred, target)
        expected = np.mean((pred.data - target.data) ** 2)
        assert loss.item() == pytest.approx(expected)
        check_gradients(lambda: F.mse_loss(pred, target), [pred])

    def test_mae(self):
        pred, target = randt(4, 3), randt(4, 3)
        loss = F.mae_loss(pred, target)
        assert loss.item() == pytest.approx(np.mean(np.abs(pred.data - target.data)))

    def test_huber_between_mse_and_mae_shape(self):
        pred, target = randt(10), randt(10)
        check_gradients(lambda: F.huber_loss(pred, target, delta=0.7), [pred])


class TestEinsum:
    def test_matmul_pattern(self):
        a, b = randt(3, 4), randt(4, 5)
        check_gradients(lambda: (F.einsum("ij,jk->ik", a, b) ** 2).sum(), [a, b])
        np.testing.assert_allclose(F.einsum("ij,jk->ik", a, b).data, a.data @ b.data)

    def test_attention_score_pattern(self):
        q, k = randt(2, 2, 5, 3), randt(2, 2, 5, 4, 3)
        check_gradients(lambda: (F.einsum("bhld,bhlwd->bhlw", q, k) ** 2).sum(), [q, k])

    def test_attention_output_pattern(self):
        w, v = randt(2, 2, 5, 4), randt(2, 2, 5, 4, 3)
        check_gradients(lambda: (F.einsum("bhlw,bhlwd->bhld", w, v) ** 2).sum(), [w, v])

    def test_free_summed_index(self):
        # 'j' is summed over a alone: the backward must broadcast against ones
        a = randt(3, 4)
        check_gradients(lambda: (F.einsum("ij->i", a) ** 2).sum(), [a])

    def test_implicit_output(self):
        a, b = randt(3, 4), randt(4, 5)
        np.testing.assert_allclose(F.einsum("ij,jk", a, b).data, np.einsum("ij,jk", a.data, b.data))
        check_gradients(lambda: (F.einsum("ij,jk", a, b) ** 2).sum(), [a, b])

    def test_three_operands(self):
        a, b, c = randt(3, 4), randt(4, 5), randt(5, 2)
        check_gradients(lambda: (F.einsum("ij,jk,kl->il", a, b, c) ** 2).sum(), [a, b, c])

    def test_rejects_traces_and_ellipsis(self):
        a = randt(3, 3)
        with pytest.raises(NotImplementedError):
            F.einsum("ii->i", a)
        with pytest.raises(NotImplementedError):
            F.einsum("...i->...", a)


class TestSoftmaxMasked:
    def test_none_mask_is_softmax(self):
        a = randt(3, 5)
        np.testing.assert_allclose(F.softmax_masked(a, None).data, F.softmax(a, axis=-1).data)

    def test_masked_positions_get_zero_weight(self):
        a = randt(4, 6)
        mask = RNG.random((4, 6)) > 0.5
        mask[:, 0] = False  # keep every row alive
        out = F.softmax_masked(a, mask)
        assert np.all(out.data[mask] == 0.0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradcheck_with_mask(self):
        a = randt(3, 6)
        mask = RNG.random((3, 6)) > 0.5
        mask[:, 2] = False
        w = Tensor(RNG.normal(size=(3, 6)))
        check_gradients(lambda: (F.softmax_masked(a, mask) * w).sum(), [a])

    def test_gradcheck_broadcast_mask(self):
        # (L, w) mask broadcasting over (B, H, L, w) scores — the attention case
        a = randt(2, 2, 4, 3)
        mask = RNG.random((4, 3)) > 0.6
        w = Tensor(RNG.normal(size=(2, 2, 4, 3)))
        check_gradients(lambda: (F.softmax_masked(a, mask) * w).sum(), [a])

    def test_matches_neg_inf_composition(self):
        a = randt(2, 5, 7)
        mask = RNG.random((5, 7)) > 0.5
        mask[:, 0] = False
        fused = F.softmax_masked(a, mask)
        big_neg = Tensor(np.full(a.shape, -1e9))
        reference = F.softmax(F.where(np.broadcast_to(mask, a.shape), big_neg, a), axis=-1)
        np.testing.assert_allclose(fused.data, reference.data, atol=1e-9)

    def test_all_masked_row_uniform_zero_grad(self):
        a = randt(3, 4)
        mask = np.zeros((3, 4), dtype=bool)
        mask[1] = True  # row 1 fully masked
        w = Tensor(RNG.normal(size=(3, 4)))
        out = F.softmax_masked(a, mask)
        np.testing.assert_allclose(out.data[1], 0.25)
        (out * w).sum().backward()
        np.testing.assert_allclose(a.grad[1], 0.0)
        a.zero_grad()
        check_gradients(lambda: (F.softmax_masked(a, mask) * w).sum(), [a])

    def test_extreme_masked_values_stay_stable(self):
        # huge masked scores must not poison the max-shift or overflow exp
        data = np.array([[1.0, 2.0, 1000.0], [1000.0, 0.5, -0.5]])
        mask = np.array([[False, False, True], [True, False, False]])
        out = F.softmax_masked(Tensor(data), mask)
        assert np.all(np.isfinite(out.data))
        assert np.all(out.data[mask] == 0.0)


class TestFusedRecurrent:
    HIDDEN = 4
    BATCH = 3

    def _gru_params(self):
        return (
            randt(self.BATCH, 3 * self.HIDDEN),
            randt(self.BATCH, self.HIDDEN),
            randt(self.HIDDEN, 3 * self.HIDDEN, scale=0.5),
            randt(3 * self.HIDDEN, scale=0.3),
        )

    def test_gru_step_gradcheck(self):
        xg, h, whh, bhh = self._gru_params()
        check_gradients(lambda: (F.gru_step(xg, h, whh, bhh) ** 2).sum(), [xg, h, whh, bhh])

    def test_gru_step_is_single_tape_node(self):
        xg, h, whh, bhh = self._gru_params()
        out = F.gru_step(xg, h, whh, bhh)
        assert out._op == "gru_step"
        assert out._parents == (xg, h, whh, bhh)

    def test_lstm_step_gradcheck(self):
        xg = randt(self.BATCH, 4 * self.HIDDEN)
        h, c = randt(self.BATCH, self.HIDDEN), randt(self.BATCH, self.HIDDEN)
        whh = randt(self.HIDDEN, 4 * self.HIDDEN, scale=0.5)
        bhh = randt(4 * self.HIDDEN, scale=0.3)
        check_gradients(lambda: (F.lstm_step(xg, h, c, whh, bhh) ** 2).sum(), [xg, h, c, whh, bhh])

    def test_gru_sequence_gradcheck(self):
        length = 5
        xp = randt(self.BATCH, length, 3 * self.HIDDEN)
        h0 = randt(self.BATCH, self.HIDDEN)
        whh = randt(self.HIDDEN, 3 * self.HIDDEN, scale=0.5)
        bhh = randt(3 * self.HIDDEN, scale=0.3)
        check_gradients(lambda: (F.gru_sequence(xp, h0, whh, bhh) ** 2).sum(), [xp, h0, whh, bhh])

    def test_lstm_sequence_gradcheck(self):
        length = 5
        xp = randt(self.BATCH, length, 4 * self.HIDDEN)
        h0, c0 = randt(self.BATCH, self.HIDDEN), randt(self.BATCH, self.HIDDEN)
        whh = randt(self.HIDDEN, 4 * self.HIDDEN, scale=0.5)
        bhh = randt(4 * self.HIDDEN, scale=0.3)
        check_gradients(
            lambda: (F.lstm_sequence(xp, h0, c0, whh, bhh) ** 2).sum(), [xp, h0, c0, whh, bhh]
        )

    def test_gru_sequence_matches_unrolled_steps(self):
        length = 4
        xp = randt(self.BATCH, length, 3 * self.HIDDEN)
        h0 = randt(self.BATCH, self.HIDDEN)
        whh = randt(self.HIDDEN, 3 * self.HIDDEN, scale=0.5)
        bhh = randt(3 * self.HIDDEN, scale=0.3)
        seq = F.gru_sequence(xp, h0, whh, bhh)
        h = h0
        for t in range(length):
            h = F.gru_step(xp[:, t, :], h, whh, bhh)
            np.testing.assert_allclose(seq.data[:, t], h.data, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("length", [1, 2, 64])
    def test_gru_scans_match_references(self, dtype, batch, length):
        """Both scan branches against the op-by-op cell and unrolled
        gru_step; the tape-free scan equals the taped one bit for bit."""
        cell = GRUCell(3, self.HIDDEN, rng=np.random.default_rng(length))
        cell.bias_hh.data[...] = RNG.normal(size=3 * self.HIDDEN) * 0.3  # exercise the ones row
        cell.to_dtype(dtype)
        with compute_dtype(dtype):
            x = Tensor(RNG.normal(size=(batch, length, 3)))
            h0 = Tensor(RNG.normal(size=(batch, self.HIDDEN)))
            with F.fused_ops(True):
                taped, taped_h = cell(x, h0)
                with inference_mode():
                    fast, fast_h = cell(x, h0)
            with F.fused_ops(False):
                unfused, _ = cell(x, h0)
            x_proj = x @ cell.weight_ih + cell.bias_ih
            h, steps = h0, []
            for t in range(length):
                h = F.gru_step(x_proj[:, t, :], h, cell.weight_hh, cell.bias_hh)
                steps.append(h.data)
        assert taped.data.dtype == fast.data.dtype == dtype
        np.testing.assert_array_equal(fast.data, taped.data)
        np.testing.assert_array_equal(fast_h.data, taped_h.data)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(taped.data, unfused.data, atol=tol)
        np.testing.assert_allclose(taped.data, np.stack(steps, axis=1), atol=tol)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gru_scans_saturated_gates(self, dtype):
        """Pre-activations far beyond exp's range: the scans' folded-sign
        gates overflow to exactly 0 silently, as the expit kernel does."""
        cell = GRUCell(3, self.HIDDEN, rng=np.random.default_rng(5))
        for param in cell.parameters():
            param.data *= 1e3
        cell.to_dtype(dtype)
        with compute_dtype(dtype), warnings.catch_warnings():
            warnings.simplefilter("error")
            x = Tensor(RNG.normal(size=(3, 8, 3)))
            with F.fused_ops(True):
                taped, _ = cell(x)
                with inference_mode():
                    fast, _ = cell(x)
            with F.fused_ops(False):
                unfused, _ = cell(x)
        assert np.all(np.isfinite(taped.data))
        np.testing.assert_array_equal(fast.data, taped.data)
        np.testing.assert_allclose(taped.data, unfused.data, atol=1e-12 if dtype == np.float64 else 1e-5)

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("length", [1, 2, 64])
    def test_gru_sequence_grads_match_unfused(self, batch, length):
        cell = GRUCell(3, self.HIDDEN, rng=np.random.default_rng(length))
        cell.bias_hh.data[...] = RNG.normal(size=3 * self.HIDDEN) * 0.3
        x = Tensor(RNG.normal(size=(batch, length, 3)), requires_grad=True)
        h0 = Tensor(RNG.normal(size=(batch, self.HIDDEN)), requires_grad=True)
        weights = Tensor(RNG.normal(size=(batch, length, self.HIDDEN)))
        grads = []
        for fused in (True, False):
            tensors = [x, h0] + list(cell.parameters())
            for tensor in tensors:
                tensor.zero_grad()
            with F.fused_ops(fused):
                (cell(x, h0)[0] * weights).sum().backward()
            grads.append([tensor.grad.copy() for tensor in tensors])
        for fused_grad, unfused_grad in zip(*grads):
            np.testing.assert_allclose(fused_grad, unfused_grad, rtol=1e-10, atol=1e-12)

    def test_lstm_sequence_matches_unrolled_steps(self):
        length = 4
        xp = randt(self.BATCH, length, 4 * self.HIDDEN)
        h0, c0 = randt(self.BATCH, self.HIDDEN), randt(self.BATCH, self.HIDDEN)
        whh = randt(self.HIDDEN, 4 * self.HIDDEN, scale=0.5)
        bhh = randt(4 * self.HIDDEN, scale=0.3)
        seq = F.lstm_sequence(xp, h0, c0, whh, bhh)
        h, c = h0, c0
        for t in range(length):
            hc = F.lstm_step(xp[:, t, :], h, c, whh, bhh)
            h, c = hc[:, : self.HIDDEN], hc[:, self.HIDDEN :]
            np.testing.assert_allclose(seq.data[:, t, : self.HIDDEN], h.data, atol=1e-12)
            np.testing.assert_allclose(seq.data[:, t, self.HIDDEN :], c.data, atol=1e-12)


class TestAutodiffMechanics:
    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * a + a  # dy/da = 2a + 1 = 5
        out.backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_backward_requires_scalar(self):
        a = randt(3)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_seed_grad(self):
        a = randt(3)
        out = a * 3.0
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, 3.0 * np.ones(3))

    def test_no_grad_blocks_tape(self):
        a = randt(3)
        with no_grad():
            out = a * 2 + 1
        assert not out.requires_grad
        assert out._parents == ()

    def test_detach(self):
        a = randt(3)
        d = a.detach()
        out = (d * 2).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        a = randt(3)
        (a.sum()).backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2
        c = a * 4
        out = (b + c).sum()  # d/da = 6
        out.backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 0.001
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor(np.array([1.0]))
        with pytest.raises(RuntimeError):
            a.backward()
