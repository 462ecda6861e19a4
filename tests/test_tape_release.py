"""The autodiff tape's memory contract and the single-node affine map.

``Tensor.backward()`` consumes the graph it walks: each op output's
backward closure, parent links and ``.grad`` are dropped once its backward
has run, so saved activations are freed during the walk and a second
backward through the same graph raises.  ``F.linear`` records one tape
node per affine map, and dropout saves a bool mask.
"""

import weakref

import numpy as np
import pytest

from repro.core import Conformer, ConformerConfig
from repro.nn import Linear
from repro.tensor import Observer, Tensor, compute_dtype, functional as F, observe
from repro.tensor.gradcheck import gradcheck

RNG = np.random.default_rng(2020)
DTYPES = [np.float64, np.float32]


def _tiny_conformer(flow_loss: str = "mse") -> Conformer:
    return Conformer(ConformerConfig(
        enc_in=3, dec_in=3, c_out=3, input_len=16, label_len=8, pred_len=8,
        d_model=8, n_heads=2, moving_avg=5, d_time=3, dropout=0.1, n_flows=2, seed=0,
        flow_loss=flow_loss,
    ))


class _TapedOutputs(Observer):
    """Records (op, weakref to its output array) for every taped op."""

    def __init__(self):
        self.taped = []

    def on_op(self, op, data, parents, taped):
        if taped and isinstance(data, np.ndarray):
            self.taped.append((op, weakref.ref(data)))


def _batch(model: Conformer):
    cfg = model.config
    dec_len = cfg.label_len + cfg.pred_len
    return (
        Tensor(RNG.normal(size=(2, cfg.input_len, cfg.enc_in))),
        Tensor(RNG.normal(size=(2, cfg.input_len, cfg.d_time))),
        Tensor(RNG.normal(size=(2, dec_len, cfg.dec_in))),
        Tensor(RNG.normal(size=(2, dec_len, cfg.d_time))),
    ), Tensor(RNG.normal(size=(2, cfg.pred_len, cfg.c_out)))


class TestBackwardReleasesTheTape:
    def test_conformer_step_frees_interior_arrays(self):
        model = _tiny_conformer()
        model.train()
        inputs, target = _batch(model)
        with observe(_TapedOutputs()) as census:
            outputs = model(*inputs)
            loss = model.compute_loss(outputs, target)
        taped = census.taped
        flow_in = outputs[2]
        assert all(isinstance(t, Tensor) for t in flow_in)
        assert taped[0][1]() is not None

        loss.backward()

        dead = {op for op, ref in taped if ref() is None}
        # the first op output (an input projection) and every linear
        # output are freed although the loss and all outputs are held
        assert taped[0][1]() is None
        assert "linear" in dead and all(ref() is None for op, ref in taped if op == "linear")
        assert sum(ref() is None for _, ref in taped) > len(taped) // 2
        assert loss.grad is None and np.isfinite(loss.item())
        assert model.enc_repr.conv.weight.grad is not None
        for hidden in flow_in:  # on the loss path: released too
            assert hidden.grad is None and hidden._parents == ()

    @pytest.mark.parametrize("flow_loss", ["mse", "nll"])
    def test_no_scan_or_slice_outlives_backward(self, flow_loss):
        """The outputs are all a forward leaves behind: once the caller
        holds only the loss, backward frees every GRU scan output and every
        slice, including the hidden states of layers the flow does not read."""
        model = _tiny_conformer(flow_loss=flow_loss)
        inputs, target = _batch(model)
        with observe(_TapedOutputs()) as census:
            loss = model.compute_loss(model(*inputs), target)
        taped = census.taped
        assert {"gru_sequence", "getitem"} <= {op for op, _ in taped}

        loss.backward()

        survivors = [op for op, ref in taped if op in ("gru_sequence", "getitem") and ref() is not None]
        assert survivors == []

    def test_second_backward_raises_naming_the_op(self):
        model = _tiny_conformer()
        inputs, target = _batch(model)
        loss = model.compute_loss(model(*inputs), target)
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()

    def test_backward_reaching_a_freed_node_raises(self):
        w = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(RNG.normal(size=(2, 3)))
        shared = F.tanh(F.linear(x, w))
        shared.sum().backward()
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="'tanh' output"):
            (shared * 2.0).sum().backward()
        # the failed walk raised before accumulating anything
        np.testing.assert_array_equal(w.grad, first)

    def test_leaves_keep_grads_and_accumulate_across_graphs(self):
        a = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a * a).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0 * a.data + 3.0)

    def test_a_leaf_may_seed_backward_twice(self):
        a = Tensor(np.ones(3), requires_grad=True)
        a.backward(np.ones(3))
        a.backward(np.ones(3))
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))


class TestLinear:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_gradcheck(self, dtype, shape, use_bias):
        # the loss is linear in every operand, so central differences are
        # exact up to rounding: a large step keeps float32 well-conditioned
        eps, tol = (1e-6, 1e-6) if dtype == np.float64 else (1e-2, 2e-3)
        with compute_dtype(dtype):
            x = Tensor(RNG.normal(size=shape), requires_grad=True)
            w = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
            b = Tensor(RNG.normal(size=(3,)), requires_grad=True) if use_bias else None
            weights = Tensor(RNG.normal(size=shape[:-1] + (3,)))
            params = [x, w] + ([b] if use_bias else [])
            out = F.linear(x, w, b)
            assert out.data.dtype == dtype and out._op == "linear"
            assert gradcheck(lambda: (F.linear(x, w, b) * weights).sum(), params, eps=eps, atol=tol, rtol=tol)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_matmul_plus_bias(self, dtype):
        with compute_dtype(dtype):
            w = Tensor(RNG.normal(size=(6, 5)), requires_grad=True)
            b = Tensor(RNG.normal(size=(5,)), requires_grad=True)
            x2 = Tensor(RNG.normal(size=(7, 6)), requires_grad=True)
            x3 = Tensor(RNG.normal(size=(3, 7, 6)), requires_grad=True)
            # a 2-D input is the same single GEMM plus the same bias add
            np.testing.assert_array_equal(F.linear(x2, w, b).data, (x2 @ w + b).data)
            np.testing.assert_array_equal(F.linear(x2, w).data, (x2 @ w).data)
            tol = 1e-12 if dtype == np.float64 else 1e-5
            np.testing.assert_allclose(F.linear(x3, w, b).data, (x3 @ w + b).data, rtol=tol, atol=tol)
            grads = []
            for fn in (lambda: F.linear(x3, w, b), lambda: x3 @ w + b):
                for t in (x3, w, b):
                    t.zero_grad()
                (fn() * 0.5).sum().backward()
                grads.append([t.grad.copy() for t in (x3, w, b)])
        for fused, reference in zip(*grads):
            np.testing.assert_allclose(fused, reference, rtol=tol, atol=tol)

    def test_one_node_per_affine_map(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(RNG.normal(size=(2, 5, 4))))
        assert out._op == "linear" and out._parents == (out._parents[0], layer.weight, layer.bias)
        assert out.shape == (2, 5, 3)

    def test_bias_promotion_is_not_hidden(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        w = Tensor(np.ones((3, 2), dtype=np.float32))
        b = Tensor(np.ones(2))  # float64
        seen = []

        class Dtypes(Observer):
            def on_op(self, op, data, parents, taped):
                seen.append((op, data.dtype))

        with observe(Dtypes()):
            F.linear(x, w, b)
        assert seen == [("linear", np.dtype(np.float64))]


class TestDropoutMask:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bit_identical_to_a_float_mask(self, dtype):
        p = 0.3
        with compute_dtype(dtype):
            x = Tensor(RNG.normal(size=(4, 6, 5)) * 10.0, requires_grad=True)
            upstream = RNG.normal(size=x.shape).astype(dtype)
            out = F.dropout(x, p, np.random.default_rng(11))
            (out * Tensor(upstream)).sum().backward()
        reference_mask = (np.random.default_rng(11).random(x.shape) < 1.0 - p).astype(dtype) / (1.0 - p)
        assert out.data.dtype == dtype and x.grad.dtype == dtype
        np.testing.assert_array_equal(out.data, x.data * reference_mask)
        np.testing.assert_array_equal(x.grad, upstream * reference_mask)

    def test_saves_a_bool_mask(self):
        x = Tensor(RNG.normal(size=(3, 8)), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(0))
        saved = [c.cell_contents for c in out._backward.__closure__]
        masks = [v for v in saved if isinstance(v, np.ndarray) and v.shape == x.shape]
        assert [m.dtype for m in masks] == [np.dtype(bool)]
