"""In-place float64 kernels of ``repro.nn.functional`` against their oracles.

The oracles are the straightforward allocate-per-op formulas the kernels
replaced.  ``softmax``, ``log_softmax`` and ``layer_norm`` must match them
bitwise.  ``gelu`` computes ``x * x * x`` where its oracle calls ``x ** 3``;
``pow`` rounds differently by a few ulp, so it is held to a relative bound.
"""

import numpy as np
import pytest

from repro.nn import functional as F

GELU_RTOL = 1e-11


def softmax_oracle(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax_oracle(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def gelu_oracle(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def layer_norm_oracle(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    normed = (x - mean) / np.sqrt(var + eps)
    return normed * gamma + beta


_RNG = np.random.default_rng(13)
INPUTS = {
    "0d": np.asarray(-0.7),
    "1d": _RNG.normal(0.0, 3.0, size=17),
    "3d": _RNG.normal(0.5, 4.0, size=(2, 5, 33)),
    "3d-transposed": _RNG.normal(0.0, 2.0, size=(33, 5, 2)).transpose(2, 1, 0),
    "int": np.arange(-24, 24).reshape(2, 4, 6),
}
# Causally masked attention scores: -inf above the diagonal.
MASKED_SCORES = _RNG.normal(0.0, 4.0, size=(3, 6, 6)) + np.triu(
    np.full((6, 6), -np.inf), k=1
)


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("axis", [-1, 0])
@pytest.mark.parametrize(
    "kernel, oracle",
    [(F.softmax, softmax_oracle), (F.log_softmax, log_softmax_oracle)],
    ids=["softmax", "log_softmax"],
)
def test_softmax_family_bitwise(kernel, oracle, name, axis):
    x = INPUTS[name]
    out = kernel(x, axis=axis)
    expected = oracle(x, axis=axis)
    assert out.shape == np.shape(expected)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize(
    "kernel, oracle",
    [(F.softmax, softmax_oracle), (F.log_softmax, log_softmax_oracle)],
    ids=["softmax", "log_softmax"],
)
def test_softmax_family_bitwise_on_masked_scores(kernel, oracle):
    np.testing.assert_array_equal(kernel(MASKED_SCORES), oracle(MASKED_SCORES))


@pytest.mark.parametrize("name", sorted(set(INPUTS) - {"0d"}))
def test_layer_norm_bitwise(name):
    x = INPUTS[name]
    width = x.shape[-1]
    rng = np.random.default_rng(width)
    gamma, beta = rng.normal(1.0, 0.2, size=width), rng.normal(0.0, 0.2, size=width)
    out = F.layer_norm(x, gamma, beta)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, layer_norm_oracle(x, gamma, beta))


def test_layer_norm_rejects_0d_like_its_oracle():
    x = INPUTS["0d"]
    with pytest.raises(ValueError) as oracle_error:
        layer_norm_oracle(x, 1.0, 0.0)
    with pytest.raises(type(oracle_error.value)):
        F.layer_norm(x, 1.0, 0.0)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_gelu_within_relative_bound(name):
    x = INPUTS[name]
    out = F.gelu(x)
    assert out.shape == np.shape(x)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, gelu_oracle(x), rtol=GELU_RTOL, atol=0.0)


def test_gelu_within_relative_bound_over_a_wide_sweep():
    # The deep negative tail is where 1 + tanh cancels and an ulp of the
    # cube shows most; below about -18 both underflow to exactly -0.0.
    x = np.concatenate(
        [np.linspace(-20.0, 20.0, 40001), np.random.default_rng(5).normal(0.0, 3.0, 20000)]
    )
    np.testing.assert_allclose(F.gelu(x), gelu_oracle(x), rtol=GELU_RTOL, atol=0.0)


def test_scalars_keep_working():
    assert float(F.gelu(1.5)) == pytest.approx(float(gelu_oracle(1.5)), rel=GELU_RTOL)
    assert float(F.gelu(np.float64(-2.0))) == pytest.approx(
        float(gelu_oracle(-2.0)), rel=GELU_RTOL
    )
    assert float(F.softmax(3.0)) == float(softmax_oracle(3.0)) == 1.0
    assert float(F.log_softmax(3.0)) == float(log_softmax_oracle(3.0)) == 0.0


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_kernels_leave_their_input_untouched(name):
    x = INPUTS[name]
    before = x.copy()
    F.softmax(x)
    F.log_softmax(x)
    F.gelu(x)
    if x.ndim:
        F.layer_norm(x, np.ones(x.shape[-1]), np.zeros(x.shape[-1]))
    np.testing.assert_array_equal(x, before)
