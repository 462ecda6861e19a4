"""Fig. 5 extension — end-to-end model cost (the paper's declared future
work: "The computational costs of other components in Conformer are not
elaborated, which will be provided in our future work", §V-I).

Measures full forward time and peak memory of Conformer against the
Transformer baselines across input lengths, confirming that the whole
model — not just its attention — scales gracefully.
"""

import numpy as np
import pytest

from _common import format_table, save_and_print
from repro.core import Conformer, ConformerConfig
from repro.baselines import Informer, VanillaTransformer
from repro.eval import scaling_exponent
from repro.eval.complexity import measure_model

LENGTHS = [32, 64, 128]
ENC_IN, D_TIME, D_MODEL, HEADS = 4, 4, 16, 2


def _conformer(input_len, label_len, pred_len):
    return Conformer(ConformerConfig(
        enc_in=ENC_IN, dec_in=ENC_IN, c_out=ENC_IN,
        input_len=input_len, label_len=label_len, pred_len=pred_len,
        d_model=D_MODEL, n_heads=HEADS, moving_avg=13, d_time=D_TIME, dropout=0.0,
    ))


def _transformer(input_len, label_len, pred_len):
    return VanillaTransformer(
        enc_in=ENC_IN, dec_in=ENC_IN, c_out=ENC_IN, pred_len=pred_len,
        d_model=D_MODEL, n_heads=HEADS, e_layers=2, d_layers=1, d_ff=32, dropout=0.0, d_time=D_TIME,
    )


def _informer(input_len, label_len, pred_len):
    return Informer(
        enc_in=ENC_IN, dec_in=ENC_IN, c_out=ENC_IN, pred_len=pred_len,
        d_model=D_MODEL, n_heads=HEADS, e_layers=2, d_layers=1, d_ff=32, dropout=0.0, d_time=D_TIME,
    )


BUILDERS = {"conformer": _conformer, "transformer": _transformer, "informer": _informer}


@pytest.fixture(scope="module")
def table():
    return {name: measure_model(fn, LENGTHS, enc_in=ENC_IN, d_time=D_TIME) for name, fn in BUILDERS.items()}


def test_fig5b_model_cost(benchmark, table):
    benchmark.pedantic(lambda: table, rounds=1, iterations=1)
    rows = []
    for name, points in table.items():
        for p in points:
            rows.append([name, p.length, f"{p.seconds * 1e3:.1f}", f"{p.peak_bytes / 1e6:.2f}"])
    save_and_print(
        "fig5b_model_efficiency",
        format_table("Fig. 5b (future work) — full-model forward cost", rows, ["model", "L", "ms", "peak MB"]),
    )


def test_conformer_memory_not_quadratic(benchmark, table):
    """Conformer's peak memory growth should stay well below the
    quadratic (L^2 = 16x over the 4x length range) regime."""
    benchmark.pedantic(lambda: table, rounds=1, iterations=1)
    points = table["conformer"]
    growth = points[-1].peak_bytes / points[0].peak_bytes
    assert growth < 12, f"memory grew {growth:.1f}x over a 4x length range"


def test_all_models_scale_subquadratically_in_time(benchmark, table):
    """Python-loop overhead dominates at these sizes; nothing should show
    worse-than-quadratic wall-time scaling."""
    benchmark.pedantic(lambda: table, rounds=1, iterations=1)
    for name, points in table.items():
        slope = scaling_exponent(points)
        assert slope < 2.3, f"{name}: slope {slope:.2f}"
