"""A forecaster's forward writes no module state.

Everything ``compute_loss`` and ``point_forecast`` need comes back in the
forward's outputs, so a loss is a function of the outputs it is given,
not of whichever forward ran last on the model.
"""

import copy

import numpy as np
import pytest

from repro.baselines import DeepAR, TS2Vec
from repro.core import Conformer, ConformerConfig
from repro.nn import BatchNorm1d
from repro.tensor import Tensor
from repro.training import ExperimentSettings, available_models, build_model

ENC_IN, C_OUT, INPUT_LEN, LABEL_LEN, PRED_LEN = 3, 3, 16, 8, 8
D_TIME = 4  # the registry wires every model for four calendar marks

SETTINGS = ExperimentSettings(
    input_len=INPUT_LEN,
    label_len=LABEL_LEN,
    d_model=8,
    n_heads=2,
    e_layers=2,
    d_layers=1,
    d_ff=16,
    moving_avg=5,
)

#: (module type, attribute) a train-mode forward may rebind: running statistics
TRAIN_MODE_STATE = {(BatchNorm1d, "running_mean"), (BatchNorm1d, "running_var")}


def _batch(seed: int):
    rng = np.random.default_rng(seed)
    dec_len = LABEL_LEN + PRED_LEN
    inputs = (
        Tensor(rng.normal(size=(2, INPUT_LEN, ENC_IN))),
        Tensor(rng.normal(size=(2, INPUT_LEN, D_TIME))),
        Tensor(rng.normal(size=(2, dec_len, ENC_IN))),
        Tensor(rng.normal(size=(2, dec_len, D_TIME))),
    )
    return inputs, Tensor(rng.normal(size=(2, PRED_LEN, C_OUT)))


def _conformer(flow_loss: str) -> Conformer:
    return Conformer(ConformerConfig(
        enc_in=ENC_IN, dec_in=ENC_IN, c_out=C_OUT, input_len=INPUT_LEN, label_len=LABEL_LEN,
        pred_len=PRED_LEN, d_model=8, n_heads=2, e_layers=2, moving_avg=5, d_time=D_TIME,
        dropout=0.1, seed=0, flow_loss=flow_loss,
    ))


CROSS_BATCH_CASES = {
    "conformer-nll": (lambda: _conformer("nll"), {"deterministic": True}),
    "conformer-mse": (lambda: _conformer("mse"), {"deterministic": True}),
    "deepar": (lambda: DeepAR(enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, hidden_size=8, d_time=D_TIME), {}),
    "ts2vec": (lambda: TS2Vec(enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, d_repr=8, depth=2, d_time=D_TIME), {}),
}


@pytest.mark.parametrize("case", sorted(CROSS_BATCH_CASES))
def test_loss_ignores_later_forwards(case):
    """a's loss is the same bit for bit whether or not a forward on b ran
    between a's forward and a's loss."""
    make, kwargs = CROSS_BATCH_CASES[case]
    alone = make()
    crossed = copy.deepcopy(alone)  # same weights and generator states
    batch_a, target_a = _batch(1)
    batch_b, _ = _batch(2)

    expected = alone.compute_loss(alone(*batch_a, **kwargs), target_a)
    outputs_a = crossed(*batch_a, **kwargs)
    crossed(*batch_b, **kwargs)
    actual = crossed.compute_loss(outputs_a, target_a)

    assert actual.data.tobytes() == expected.data.tobytes()


def _attributes(model):
    return {
        (path, type(module), name): value
        for path, module in model.named_modules()
        for name, value in vars(module).items()
    }


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("name", available_models())
def test_forward_rebinds_no_module_attribute(name, mode):
    """Runtime counterpart of ``lint --dataflow``: it also sees writes made
    inside submodules reached through ``Module.__call__``."""
    model = build_model(name, ENC_IN, C_OUT, PRED_LEN, SETTINGS)
    model.train(mode == "train")
    before = _attributes(model)
    model(*_batch(3)[0])
    after = _attributes(model)

    missing = object()
    rebound = sorted(
        f"{path or '<root>'}.{attr}"
        for path, kind, attr in before.keys() | after.keys()
        if before.get((path, kind, attr), missing) is not after.get((path, kind, attr), missing)
        and not (mode == "train" and (kind, attr) in TRAIN_MODE_STATE)
    )
    assert rebound == []
