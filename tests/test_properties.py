"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic properties the library's correctness rests on:
autodiff linearity, softmax simplex membership, decomposition identity,
scaler round-trips, window arithmetic, attention-weight normalization,
conformal coverage guarantees, and checkpoint round-trips (arbitrary
module trees and optimizer configs survive serialization bit-exactly;
crash-and-resume training matches uninterrupted training step for step).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.core import SeriesDecomposition
from repro.data import StandardScaler, WindowedDataset
from repro.eval import conformal_radius
from repro.tensor import Tensor, functional as F


def arrays(shape, lo=-10.0, hi=10.0):
    return hnp.arrays(
        np.float64,
        shape,
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=64),
    )


small_dims = st.integers(min_value=1, max_value=5)


class TestAutodiffProperties:
    @given(arrays((3, 4)))
    @settings(max_examples=25, deadline=None)
    def test_grad_of_sum_is_ones(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @given(arrays((2, 3)), st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_gradient_linearity(self, data, alpha):
        """grad of (alpha * f) == alpha * grad of f."""
        x1 = Tensor(data, requires_grad=True)
        (x1 * x1).sum().backward()
        x2 = Tensor(data, requires_grad=True)
        (alpha * (x2 * x2)).sum().backward()
        np.testing.assert_allclose(x2.grad, alpha * x1.grad, atol=1e-9)

    @given(arrays((3, 3)), arrays((3, 3)))
    @settings(max_examples=25, deadline=None)
    def test_sum_rule(self, a_data, b_data):
        """grad through f+g equals grad through f plus grad through g."""
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data)
        ((a * a) + (a * b)).sum().backward()
        expected = 2 * a_data + b_data
        np.testing.assert_allclose(a.grad, expected, atol=1e-9)

    @given(arrays((4,), lo=-3, hi=3))
    @settings(max_examples=25, deadline=None)
    def test_exp_log_roundtrip_grad(self, data):
        x = Tensor(data, requires_grad=True)
        F.log(F.exp(x)).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data), atol=1e-8)


class TestSoftmaxProperties:
    @given(arrays((3, 7), lo=-50, hi=50))
    @settings(max_examples=30, deadline=None)
    def test_simplex(self, data):
        out = F.softmax(Tensor(data), axis=-1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    @given(arrays((2, 5), lo=-20, hi=20), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, data, shift):
        a = F.softmax(Tensor(data), axis=-1).data
        b = F.softmax(Tensor(data + shift), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(arrays((6,), lo=-5, hi=5))
    @settings(max_examples=25, deadline=None)
    def test_log_softmax_consistency(self, data):
        log_sm = F.log_softmax(Tensor(data)).data
        sm = F.softmax(Tensor(data)).data
        np.testing.assert_allclose(np.exp(log_sm), sm, atol=1e-9)


class TestDecompositionProperties:
    @given(arrays((2, 20, 3)), st.sampled_from([3, 5, 9, 15]))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction(self, data, kernel):
        trend, seasonal = SeriesDecomposition(kernel)(Tensor(data))
        np.testing.assert_allclose(trend.data + seasonal.data, data, atol=1e-9)

    @given(st.floats(-100, 100, allow_nan=False), st.sampled_from([3, 7]))
    @settings(max_examples=20, deadline=None)
    def test_constant_is_pure_trend(self, value, kernel):
        x = Tensor(np.full((1, 16, 2), value))
        trend, seasonal = SeriesDecomposition(kernel)(x)
        np.testing.assert_allclose(trend.data, value, atol=1e-9)
        np.testing.assert_allclose(seasonal.data, 0.0, atol=1e-9)

    @given(arrays((1, 24, 2)), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_shift_equivariance(self, data, shift):
        """Decomp(x + c) == (trend + c, seasonal)."""
        decomp = SeriesDecomposition(5)
        t1, s1 = decomp(Tensor(data))
        t2, s2 = decomp(Tensor(data + shift))
        np.testing.assert_allclose(t2.data, t1.data + shift, atol=1e-9)
        np.testing.assert_allclose(s2.data, s1.data, atol=1e-9)


class TestScalerProperties:
    @given(arrays((30, 4), lo=-1e3, hi=1e3))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, data):
        scaler = StandardScaler().fit(data)
        recovered = scaler.inverse_transform(scaler.transform(data))
        np.testing.assert_allclose(recovered, data, atol=1e-6)

    @given(arrays((25, 3), lo=-100, hi=100))
    @settings(max_examples=25, deadline=None)
    def test_transform_is_affine(self, data):
        """transform(a) - transform(b) is scale-only (no shift)."""
        scaler = StandardScaler().fit(data)
        a, b = data[:5], data[5:10]
        diff_raw = a - b
        diff_scaled = scaler.transform(a) - scaler.transform(b)
        np.testing.assert_allclose(diff_scaled * scaler.std_, diff_raw, atol=1e-8)


class TestWindowProperties:
    @given(
        st.integers(min_value=20, max_value=120),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_count_and_bounds(self, n, input_len, pred_len, stride):
        values = np.arange(n, dtype=float)[:, None]
        marks = np.zeros((n, 2))
        ws = WindowedDataset(values, marks, input_len, pred_len, stride=stride)
        usable = n - input_len - pred_len + 1
        assert len(ws) == max(0, (usable + stride - 1) // stride)
        if len(ws):
            last = ws[len(ws) - 1]
            # final target must stay inside the series
            assert last.y[-1, 0] <= n - 1

    @given(st.integers(min_value=30, max_value=80), st.integers(min_value=0, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_x_dec_layout(self, n, index_offset):
        values = np.arange(n, dtype=float)[:, None]
        ws = WindowedDataset(values, np.zeros((n, 1)), 8, 4, label_len=3)
        index = min(index_offset, len(ws) - 1)
        s = ws[index]
        # label section equals tail of encoder input; pred section is zeros
        np.testing.assert_array_equal(s.x_dec[:3, 0], s.x_enc[-3:, 0])
        np.testing.assert_array_equal(s.x_dec[3:, 0], 0.0)
        # target continues exactly where the encoder window ends
        assert s.y[0, 0] == s.x_enc[-1, 0] + 1


class TestAttentionProperties:
    @given(arrays((1, 1, 6, 4), lo=-3, hi=3))
    @settings(max_examples=15, deadline=None)
    def test_full_attention_convexity(self, q_data):
        """Attention output is a convex combination of values: bounded by
        the min/max of V per channel."""
        q = Tensor(q_data)
        k = Tensor(q_data[..., ::-1].copy())
        v_data = np.random.default_rng(0).normal(size=(1, 1, 6, 4))
        out = nn.FullAttention()(q, k, Tensor(v_data)).data
        assert np.all(out <= v_data.max(axis=2, keepdims=True) + 1e-9)
        assert np.all(out >= v_data.min(axis=2, keepdims=True) - 1e-9)

    @given(st.integers(min_value=1, max_value=10), st.sampled_from([1, 2, 4, 6]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_window_attention_matches_banded_full(self, length, window, causal):
        rng = np.random.default_rng(length)
        q = Tensor(rng.normal(size=(2, 2, length, 3)))
        k = Tensor(rng.normal(size=(2, 2, length, 3)))
        v = Tensor(rng.normal(size=(2, 2, length, 3)))
        swa = nn.SlidingWindowAttention(window=window, causal=causal)(q, k, v).data
        idx = np.arange(length)
        band = np.abs(idx[:, None] - idx[None, :]) > window // 2
        if causal:
            band |= idx[None, :] > idx[:, None]
        full = nn.FullAttention()(q, k, v, mask=band).data
        np.testing.assert_allclose(swa, full, atol=1e-9)


class TestDiagnosticsProperties:
    @given(arrays((120,), lo=-20, hi=20), st.sampled_from([4, 8, 12]))
    @settings(max_examples=20, deadline=None)
    def test_seasonal_strength_bounded(self, data, period):
        from repro.data.diagnostics import seasonal_strength

        s = seasonal_strength(data, period)
        assert 0.0 <= s <= 1.0

    @given(arrays((150,), lo=-50, hi=50))
    @settings(max_examples=20, deadline=None)
    def test_burstiness_bounded(self, data):
        from repro.data.diagnostics import burstiness

        assert -1.0 <= burstiness(data) <= 1.0

    @given(arrays((200,), lo=-10, hi=10))
    @settings(max_examples=15, deadline=None)
    def test_ljung_box_p_value_valid(self, data):
        from repro.data.diagnostics import ljung_box

        p = ljung_box(data, lags=10)["p_value"]
        assert 0.0 <= p <= 1.0


class TestImputationProperties:
    @given(arrays((40, 2), lo=-100, hi=100), st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_imputers_preserve_observed_cells(self, data, n_holes):
        from repro.data.missing import forward_fill, linear_interpolate

        rng = np.random.default_rng(0)
        holey = data.copy()
        rows = rng.integers(1, 40, size=n_holes)  # keep row 0 observed
        holey[rows, rng.integers(0, 2, size=n_holes)] = np.nan
        observed = ~np.isnan(holey)
        for imputer in (forward_fill, linear_interpolate):
            out = imputer(holey)
            assert not np.isnan(out).any()
            np.testing.assert_array_equal(out[observed], holey[observed])

    @given(arrays((30, 3), lo=-50, hi=50))
    @settings(max_examples=20, deadline=None)
    def test_complete_data_fixed_point(self, data):
        from repro.data.missing import forward_fill, linear_interpolate

        np.testing.assert_array_equal(forward_fill(data), data)
        np.testing.assert_array_equal(linear_interpolate(data), data)


class TestEnsembleProperties:
    @given(
        hnp.arrays(np.float64, (3,), elements=st.floats(0.01, 10.0, allow_nan=False)),
    )
    @settings(max_examples=20, deadline=None)
    def test_weights_always_simplex(self, raw):
        from repro.training.ensembling import ForecastEnsemble

        normalized = ForecastEnsemble._normalize(raw)
        assert normalized.min() >= 0
        assert normalized.sum() == pytest.approx(1.0)


class TestConformalProperties:
    @given(arrays((200,), lo=-50, hi=50), st.sampled_from([0.5, 0.8, 0.9, 0.95]))
    @settings(max_examples=25, deadline=None)
    def test_radius_covers_requested_fraction(self, residuals, level):
        radius = conformal_radius(residuals, level)
        covered = np.mean(np.abs(residuals) <= radius)
        assert covered >= level - 1e-9

    @given(arrays((50,), lo=-10, hi=10))
    @settings(max_examples=20, deadline=None)
    def test_radius_monotone_in_level(self, residuals):
        assert conformal_radius(residuals, 0.95) >= conformal_radius(residuals, 0.5)


# ----------------------------------------------------------------------
# checkpoint round-trips (repro.ckpt)
# ----------------------------------------------------------------------
@st.composite
def module_specs(draw):
    """Spec for an arbitrary small module tree: a chain of Linear blocks,
    some wrapped in nested Sequentials, some carrying Dropout (which owns
    a private RNG stream the checkpoint must capture)."""
    dims = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=5))
    nested = draw(st.lists(st.booleans(), min_size=len(dims) - 1, max_size=len(dims) - 1))
    dropouts = draw(st.lists(st.booleans(), min_size=len(dims) - 1, max_size=len(dims) - 1))
    return dims, nested, dropouts


def build_tree(spec, seed):
    from repro.tensor.random import seed_everything

    seed_everything(seed)
    dims, nested, dropouts = spec
    blocks = []
    for i, (wrap, drop) in enumerate(zip(nested, dropouts)):
        layer = nn.Linear(dims[i], dims[i + 1])
        inner = [layer] + ([nn.Dropout(0.25)] if drop else [])
        blocks.append(nn.Sequential(*inner) if (wrap or len(inner) > 1) else layer)
    return nn.Sequential(*blocks)


@st.composite
def optimizer_configs(draw):
    from repro.optim import SGD, Adam, AdamW

    kind = draw(st.sampled_from(["sgd", "adam", "adamw"]))
    lr = draw(st.floats(1e-5, 1e-1, allow_nan=False))
    decay = draw(st.floats(0.0, 0.1, allow_nan=False))
    if kind == "sgd":
        momentum = draw(st.floats(0.0, 0.99, allow_nan=False))
        return lambda params: SGD(params, lr=lr, momentum=momentum, weight_decay=decay)
    cls = Adam if kind == "adam" else AdamW
    return lambda params: cls(params, lr=lr, weight_decay=decay)


def assert_trees_equal(a, b, path=""):
    """Bit-exact structural equality over nested dict/list/array state."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            assert_trees_equal(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_trees_equal(x, y, f"{path}/{i}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, path


class TestCheckpointProperties:
    @given(module_specs(), optimizer_configs(), st.integers(0, 2**16), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_save_crash_restore_is_bit_identical(self, spec, make_opt, seed, n_steps):
        """Arbitrary module tree + optimizer config: capture -> encode ->
        decode -> restore reproduces every array, counter, and RNG stream
        bit for bit, even after the live objects were trashed."""
        from repro.ckpt import capture_training_state, decode_state, encode_state, restore_training_state
        from repro.ckpt.state import named_module_rngs
        from repro.tensor.random import default_rng

        model = build_tree(spec, seed)
        optimizer = make_opt(model.parameters())
        rng = np.random.default_rng(seed)
        for _ in range(n_steps):
            for param in model.parameters():
                param.grad = rng.normal(size=param.data.shape)
            optimizer.step()

        state = capture_training_state(model, optimizer, step=n_steps)
        payload = encode_state(state)

        # simulate the crash-and-restart: trash weights and drain RNGs
        for param in model.parameters():
            param.data[...] = rng.normal(size=param.data.shape)
        default_rng().normal(size=7)
        for _, gen in named_module_rngs(model):
            gen.normal(size=7)

        extras = restore_training_state(decode_state(payload), model, optimizer)
        assert extras == {"step": n_steps}
        recaptured = capture_training_state(model, optimizer, step=n_steps)
        assert_trees_equal(state, recaptured)

    @given(
        st.integers(0, 2**16),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_resumed_training_matches_uninterrupted_step_for_step(
        self, seed, crash_step, ckpt_every
    ):
        """Whatever the crash step and checkpoint cadence, the resumed run
        reproduces the uninterrupted run's loss history exactly."""
        from repro.ckpt import CheckpointManager, SimulatedCrash, inject_fault
        from repro.data.windows import DataLoader
        from repro.tensor.random import seed_everything
        from repro.training.experiment import ExperimentSettings, build_model
        from repro.training.trainer import Trainer
        import tempfile

        settings_ = ExperimentSettings(input_len=16, label_len=8)

        def make(run_seed):
            seed_everything(run_seed)
            data_rng = np.random.default_rng(0)
            series = data_rng.normal(size=(140, 2))
            marks = data_rng.normal(size=(140, 4))
            windows = WindowedDataset(series, marks, 16, 4, label_len=8, stride=4)
            train = DataLoader(windows, batch_size=16, shuffle=True, rng=np.random.default_rng(7))
            val = DataLoader(windows, batch_size=16)
            model = build_model("dlinear", 2, 2, 4, settings_, seed=run_seed)
            return Trainer(model, max_epochs=3, patience=5), train, val

        trainer, train, val = make(seed)
        baseline_history = trainer.fit(train, val)
        baseline_weights = trainer.model.state_dict()

        with tempfile.TemporaryDirectory() as directory:
            crashed, train2, val2 = make(seed)
            with inject_fault(f"step:{crash_step}"):
                with pytest.raises(SimulatedCrash):
                    crashed.fit(
                        train2, val2,
                        checkpoint=CheckpointManager(directory, keep_last=10),
                        checkpoint_every_steps=ckpt_every,
                    )
            # a real resume re-runs the same command, seed included: if the
            # crash predates the first checkpoint, the rerun is simply a
            # fresh (deterministic) start and must still match
            resumed, train3, val3 = make(seed)
            history = resumed.fit(
                train3, val3,
                checkpoint=CheckpointManager(directory, keep_last=10),
                checkpoint_every_steps=ckpt_every,
                resume=True,
            )
        assert history.train_loss == baseline_history.train_loss
        assert history.val_loss == baseline_history.val_loss
        for key, value in baseline_weights.items():
            np.testing.assert_array_equal(value, resumed.model.state_dict()[key], err_msg=key)


class TestServingParityProperties:
    """Micro-batching must be a pure perf optimization: the batched
    forward's row ``i`` is element-wise identical to the forward of row
    ``i`` alone, for every served model and both serving dtypes.  Exact
    equality (not allclose) — numpy's elementwise kernels and reductions
    over non-batch axes are deterministic per-row, and the window
    assembly is a pure function of the series tail, so any difference
    at all means the batch path changed the computation."""

    @pytest.mark.serving
    @pytest.mark.parametrize("model_name", ["conformer", "gru"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=3, deadline=None)
    def test_batched_forward_matches_one_by_one(self, model_name, dtype, seed):
        from repro.serve import ModelRegistry, SeriesStore, ServingSpec
        from repro.training.experiment import ExperimentSettings, build_model

        settings_ = ExperimentSettings(input_len=16, label_len=8)
        pred_len, n_dims, n_series = 4, 2, 3
        spec = ServingSpec(
            input_len=settings_.input_len,
            label_len=settings_.label_len,
            pred_len=pred_len,
            n_dims=n_dims,
        )

        def factory():
            return build_model(model_name, n_dims, n_dims, pred_len, settings_, seed=0)

        registry = ModelRegistry(factory, spec, dtype=dtype)
        version = registry.publish("v1", factory())
        store = SeriesStore(n_dims=n_dims)
        rng = np.random.default_rng(seed)
        for i in range(n_series):
            store.ingest(f"s{i}", rng.normal(size=(40, n_dims)))

        windows = [
            store.window(f"s{i}", spec.input_len, spec.label_len, spec.pred_len)
            for i in range(n_series)
        ]
        # pad_to pins the BLAS kernel batch shape — without it a batch of
        # one and a batch of three pick different gemm/gemv micro-kernels
        # and drift in the last ulp (the serving paths always pin it)
        batched = version.forecast_batch(
            np.stack([w.x_enc for w in windows]),
            np.stack([w.x_mark for w in windows]),
            np.stack([w.x_dec for w in windows]),
            np.stack([w.y_mark for w in windows]),
            pad_to=n_series + 1,
        )
        for i, w in enumerate(windows):
            alone = version.forecast_batch(
                w.x_enc[None], w.x_mark[None], w.x_dec[None], w.y_mark[None], pad_to=n_series + 1
            )[0]
            np.testing.assert_array_equal(
                batched[i], alone, err_msg=f"{model_name}/{np.dtype(dtype).name} series s{i}"
            )

    @pytest.mark.serving
    @pytest.mark.parametrize("model_name", ["conformer", "gru"])
    def test_server_batched_path_matches_unbatched_server(self, model_name):
        """End-to-end version of the same property: a server coalescing 3
        concurrent requests returns byte-identical forecasts to a server
        answering them one at a time (cache off on both)."""
        from repro.serve import ForecastServer, ManualClock, ModelRegistry, SeriesStore, ServingSpec
        from repro.training.experiment import ExperimentSettings, build_model

        settings_ = ExperimentSettings(input_len=16, label_len=8)
        pred_len, n_dims, n_series = 4, 2, 3
        spec = ServingSpec(
            input_len=settings_.input_len,
            label_len=settings_.label_len,
            pred_len=pred_len,
            n_dims=n_dims,
        )

        def factory():
            return build_model(model_name, n_dims, n_dims, pred_len, settings_, seed=0)

        def make_server(batching):
            registry = ModelRegistry(factory, spec, dtype=np.float32)
            registry.publish("v1", factory())
            store = SeriesStore(n_dims=n_dims)
            rng = np.random.default_rng(11)
            for i in range(n_series):
                store.ingest(f"s{i}", rng.normal(size=(40, n_dims)))
            return ForecastServer(
                registry, store, clock=ManualClock(), batching=batching,
                cache_enabled=False, n_workers=1, max_batch=n_series,
            )

        serial_server = make_server(batching=False)
        serial = {f"s{i}": serial_server.forecast(f"s{i}").forecast for i in range(n_series)}
        serial_server.shutdown()

        batched_server = make_server(batching=True)
        try:
            futures = [batched_server.submit(f"s{i}") for i in range(n_series)]
            for i, future in enumerate(futures):
                response = future.result(timeout=30)
                assert response.ok and response.batch_size == n_series
                np.testing.assert_array_equal(response.forecast, serial[f"s{i}"])
        finally:
            batched_server.shutdown()
