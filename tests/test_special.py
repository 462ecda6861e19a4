"""The numpy ``expit``/``erf`` kernels against ``scipy.special`` and
``math.erf``, and the scipy-free engine import."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp_special

import repro
from repro.tensor import Tensor, functional as F, special
from tests.helpers import check_gradients

RNG = np.random.default_rng(19)
DTYPES = [np.float64, np.float32]


def _ulps(got, ref, dtype):
    """|got - ref| in units of the spacing of ``ref`` in ``dtype``."""
    ref64 = np.asarray(ref, dtype=np.float64)
    spacing = np.spacing(np.abs(ref64.astype(dtype))).astype(np.float64)
    return np.abs(np.asarray(got, dtype=np.float64) - ref64) / spacing


def _no_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args, **kwargs)


def test_engine_import_does_not_load_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, repro, repro.serve; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestExpit:
    GRID = np.concatenate([np.linspace(-800.0, 800.0, 16000), RNG.normal(0.0, 8.0, 4000)])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_scipy(self, dtype):
        x = self.GRID.astype(dtype)
        got = _no_warnings(special.expit, x)
        assert got.dtype == dtype
        # scipy returns 0 where the exact value is subnormal: finfo.tiny floor
        np.testing.assert_allclose(got, sp_special.expit(x), rtol=4 * np.finfo(dtype).eps, atol=np.finfo(dtype).tiny)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_in_place(self, dtype):
        x = self.GRID.astype(dtype)
        expected = special.expit(x)
        y = x.copy()
        assert _no_warnings(special.expit, y, out=y) is y
        np.testing.assert_array_equal(y, expected)
        # out as a second view of the same memory, as the LSTM scan passes it
        block = x.reshape(4, -1).copy()
        _no_warnings(special.expit, block[:2], out=block[:2])
        np.testing.assert_array_equal(block[:2], expected.reshape(4, -1)[:2])
        np.testing.assert_array_equal(block[2:], x.reshape(4, -1)[2:])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_non_finite(self, dtype):
        got = _no_warnings(special.expit, np.array([np.inf, -np.inf, np.nan, 0.0], dtype=dtype))
        np.testing.assert_array_equal(got, np.array([1.0, 0.0, np.nan, 0.5], dtype=dtype))

    def test_integer_input_gives_float64(self):
        np.testing.assert_array_equal(special.expit(np.array([0, 1000])), [0.5, 1.0])


class TestErf:
    # the piece boundaries (1, 2.5, 6) and their neighbours included
    EDGES = np.array([1.0, 2.5, 6.0])
    GRID = np.concatenate(
        [
            np.linspace(-7.0, 7.0, 14001),
            RNG.uniform(-6.5, 6.5, 6000),
            EDGES,
            np.nextafter(EDGES, 0.0),
            np.nextafter(EDGES, 9.0),
            [1e-300, 5e-324, 1e-20, 30.0, -30.0],
        ]
    )

    def test_float64_within_a_few_ulp_of_math_erf(self):
        got = _no_warnings(special.erf, self.GRID)
        ref = np.array([math.erf(v) for v in self.GRID])
        assert _ulps(got, ref, np.float64).max() <= 3

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_scipy(self, dtype):
        x = self.GRID.astype(dtype)
        got = _no_warnings(special.erf, x)
        assert got.dtype == dtype
        # float32 is computed in float64 and rounded once
        tol = 3 if dtype == np.float64 else 1
        assert _ulps(got, sp_special.erf(x), dtype).max() <= tol

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_non_finite_and_signed_zero(self, dtype):
        got = _no_warnings(special.erf, np.array([np.inf, -np.inf, np.nan, -0.0, 0.0], dtype=dtype))
        np.testing.assert_array_equal(got, np.array([1.0, -1.0, np.nan, 0.0, 0.0], dtype=dtype))
        assert np.signbit(got[3]) and not np.signbit(got[4])

    def test_odd_and_monotone(self):
        x = np.linspace(0.0, 7.0, 70001)
        y = special.erf(x)
        np.testing.assert_array_equal(special.erf(-x), -y)
        assert np.all(np.diff(y) >= 0.0)

    def test_integer_input_gives_float64(self):
        got = special.erf(np.array([0, 1, 9]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [0.0, math.erf(1.0), 1.0])


@pytest.mark.parametrize("op", [F.sigmoid, F.erf, F.gelu])
def test_gradcheck_across_the_kernel_pieces(op):
    # points in every erf piece (after gelu's 1/sqrt(2) too) and sigmoid's tails
    a = Tensor(np.array([-6.5, -4.2, -2.7, -1.6, -0.7, 0.3, 1.2, 2.2, 3.1, 5.0, 8.0]), requires_grad=True)
    check_gradients(lambda: op(a).sum(), [a])
