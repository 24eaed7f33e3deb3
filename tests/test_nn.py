import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonvae.nn import (
    FROZEN,
    INFER,
    TRAIN,
    Adam,
    BatchNorm,
    Dense,
    DenseBlock,
    GradientError,
    LEAKY_SLOPE,
    MLPStack,
    NamedVector,
    SELU_ALPHA,
    SELU_SCALE,
    dropout_forward,
    leaky_relu,
    leaky_relu_grad,
    selu,
    selu_grad,
)


def test_dense_init_scaling():
    rng = np.random.default_rng(0)
    layer = Dense(64, 8, rng)
    bound = 1 / np.sqrt(64)
    assert np.all(np.abs(layer.weight) <= bound)
    assert np.all(layer.bias == 0.0)


def test_dense_forward_backward():
    rng = np.random.default_rng(1)
    layer = Dense(3, 2, rng)
    x = rng.random((5, 3))
    y, cache = layer.forward(x)
    np.testing.assert_allclose(y, x @ layer.weight + layer.bias)
    dy = rng.random((5, 2))
    dx, grads = layer.backward(dy, cache)
    np.testing.assert_allclose(dx, dy @ layer.weight.T)
    np.testing.assert_allclose(grads["W"], x.T @ dy)
    np.testing.assert_allclose(grads["b"], dy.sum(axis=0))


def test_selu_values():
    assert selu(np.array([0.0]))[0] == 0.0
    assert selu(np.array([1.0]))[0] == pytest.approx(SELU_SCALE)
    assert selu(np.array([-30.0]))[0] == pytest.approx(-SELU_SCALE * SELU_ALPHA, rel=1e-6)
    assert selu_grad(np.array([2.0]))[0] == pytest.approx(SELU_SCALE)


def test_leaky_relu_values():
    np.testing.assert_allclose(leaky_relu(np.array([-2.0, 3.0])), [-0.02, 3.0])


# reference forms of the activations, selecting their branch with np.where
def where_selu(x):
    return SELU_SCALE * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))


def where_selu_grad(x):
    return SELU_SCALE * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))


def where_leaky_relu(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def where_leaky_relu_grad(x):
    return np.where(x > 0, 1.0, LEAKY_SLOPE)


# signed zeros, the smallest subnormal and normal magnitudes, and +-800, where
# exp and expm1 overflow
EDGE_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1.0, -1.0, 800.0, -800.0]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=40))
def test_activations_equal_np_where_forms(values):
    x = np.array(EDGE_INPUTS + values)
    with np.errstate(over="ignore"):  # the where forms evaluate the branch they drop
        expected = [f(x) for f in (where_selu, where_selu_grad, where_leaky_relu, where_leaky_relu_grad)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = [f(x) for f in (selu, selu_grad, leaky_relu, leaky_relu_grad)]
    for want, have in zip(expected, got):
        assert have.dtype == np.float64
        assert np.array_equal(have, want)


def test_dropout_keep_frequency():
    rng = np.random.default_rng(2)
    x = np.ones((1, 50))
    kept = np.zeros(50)
    passes = 10**4
    for _ in range(passes):
        out, _ = dropout_forward(x, 0.2, TRAIN, rng)
        kept += (out[0] != 0.0)
    freq = kept / passes
    assert np.all(np.abs(freq - 0.8) < 0.02)


def test_dropout_inverted_scaling_and_inference_identity():
    rng = np.random.default_rng(3)
    x = np.ones((2000, 20))
    out, mask = dropout_forward(x, 0.2, TRAIN, rng)
    assert set(np.unique(out)) <= {0.0, 1.0 / 0.8}
    assert out.mean() == pytest.approx(1.0, abs=0.02)
    same, none = dropout_forward(x, 0.2, INFER, None)
    assert none is None
    np.testing.assert_array_equal(same, x)


def test_batchnorm_train_normalizes_and_tracks_running_stats():
    bn = BatchNorm(3)
    rng = np.random.default_rng(4)
    x = rng.normal(5.0, 2.0, size=(512, 3))
    out, _ = bn.forward(x, TRAIN)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)
    np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
    # inference path uses the running statistics
    frozen, _ = bn.forward(x, INFER)
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.EPS)
    np.testing.assert_allclose(frozen, expected, atol=1e-12)


def test_batchnorm_train_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    bn = BatchNorm(4)
    bn.gamma = rng.random(4) + 0.5
    bn.beta = rng.random(4)
    x = rng.random((6, 4))
    target = rng.random((6, 4))

    def loss(inputs):
        out, _ = bn.forward(inputs, TRAIN, update_running=False)
        return 0.5 * np.sum((out - target) ** 2)

    out, cache = bn.forward(x, TRAIN, update_running=False)
    dx, grads = bn.backward(out - target, cache, TRAIN)
    h = 1e-6
    for i in range(x.size):
        pert = x.copy().reshape(-1)
        pert[i] += h
        up = loss(pert.reshape(x.shape))
        pert[i] -= 2 * h
        down = loss(pert.reshape(x.shape))
        fd = (up - down) / (2 * h)
        assert dx.reshape(-1)[i] == pytest.approx(fd, abs=1e-5)
    for name, param in (("gamma", bn.gamma), ("beta", bn.beta)):
        for i in range(param.size):
            saved = param[i]
            param[i] = saved + h
            up = loss(x)
            param[i] = saved - h
            down = loss(x)
            param[i] = saved
            fd = (up - down) / (2 * h)
            assert grads[name][i] == pytest.approx(fd, abs=1e-5)


def test_dense_block_and_stack_shapes():
    rng = np.random.default_rng(6)
    stack = MLPStack(5, (16, 8), 3, "selu", 0.2, rng)
    x = rng.random((10, 5))
    y, caches = stack.forward(x, INFER, None)
    assert y.shape == (10, 3)
    dy = rng.random((10, 3))
    dx, grads = stack.backward(dy, caches)
    assert dx.shape == x.shape
    assert {"out.W", "out.b", "hidden0.dense.W", "hidden1.norm.gamma"} <= set(grads)


def test_block_frozen_mode_is_deterministic():
    rng = np.random.default_rng(7)
    block = DenseBlock(4, 6, "leaky_relu", 0.5, rng)
    x = rng.random((3, 4))
    a, _ = block.forward(x, FROZEN, None)
    b, _ = block.forward(x, FROZEN, None)
    np.testing.assert_array_equal(a, b)


# --- optimizer ---------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    params = NamedVector.pack({"w": np.array([1.0, -2.0])})
    adam = Adam()
    adam.step(params, NamedVector.pack({"w": np.zeros(2)}))
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_moves_against_gradient():
    params = NamedVector.pack({"w": np.array([0.0])})
    adam = Adam()
    for _ in range(10):
        adam.step(params, NamedVector.pack({"w": np.array([3.0])}))
    assert params["w"][0] < 0.0


def test_adam_quadratic_bowl_convergence():
    # Adam's bias-corrected step magnitude is about lr per step, so covering
    # the unit distance within 500 steps needs lr >= ~2e-3
    params = NamedVector.pack({"w": np.array([1.0])})
    adam = Adam(lr=1e-2)
    for _ in range(500):
        adam.step(params, NamedVector.pack({"w": 2.0 * params["w"]}))
    assert abs(params["w"][0]) < 0.1


def test_adam_default_rate_descends_quadratic_bowl():
    params = NamedVector.pack({"w": np.array([1.0])})
    adam = Adam()
    trace = []
    for _ in range(500):
        adam.step(params, NamedVector.pack({"w": 2.0 * params["w"]}))
        trace.append(params["w"][0])
    assert trace[-1] < 0.6
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_adam_rejects_non_finite_gradient():
    params = NamedVector.pack({"w": np.array([1.0])})
    adam = Adam()
    with pytest.raises(GradientError):
        adam.step(params, NamedVector.pack({"w": np.array([np.nan])}))
    params = NamedVector.pack({"a": np.array([1.0]), "w": np.array([1.0, 2.0])})
    with pytest.raises(GradientError, match="'w'"):
        adam.step(params, NamedVector.pack({"a": np.array([0.5]), "w": np.array([0.0, np.inf])}))
    np.testing.assert_array_equal(params.vector, [1.0, 1.0, 2.0])
