import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonvae import nn
from photonvae.nn import (
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
    column_sums,
    dropout_backward,
    dropout_forward,
    leaky_relu,
    leaky_relu_grad,
    selu,
    selu_grad,
)


DTYPES = [np.float32, np.float64]


def cast_params(dtype, *owners):
    """Rebind each layer's parameters, and the arrays a TRAIN pass writes, as
    copies in ``dtype``; a model holds them as views into vectors of its dtype,
    which layers built alone do not."""
    for owner in owners:
        for attr in (*owner.LEAVES.values(), *owner.RESULTS.values()):
            setattr(owner, attr, getattr(owner, attr).astype(dtype))


def test_dense_init_scaling():
    rng = np.random.default_rng(0)
    layer = Dense(64, 8, rng)
    bound = 1 / np.sqrt(64)
    assert np.all(np.abs(layer.weight) <= bound)


def test_dense_forward_backward(dtype=np.float64):
    rng = np.random.default_rng(1)
    layer = Dense(3, 2, rng)
    cast_params(dtype, layer)
    x = rng.random((5, 3)).astype(dtype)
    y, cache = layer.forward(x)
    np.testing.assert_allclose(y, x @ layer.weight)
    dy = rng.random((5, 2)).astype(dtype)
    dx = layer.backward(dy, cache)
    assert y.dtype == dx.dtype == layer.weight_grad.dtype == dtype
    np.testing.assert_allclose(dx, dy @ layer.weight.T)
    np.testing.assert_allclose(layer.weight_grad, x.T @ dy)


def test_dense_forward_backward_in_float32():
    test_dense_forward_backward(np.float32)


def test_selu_values():
    assert selu(np.array([0.0]))[0] == 0.0
    assert selu(np.array([1.0]))[0] == pytest.approx(SELU_SCALE)
    assert selu(np.array([-30.0]))[0] == pytest.approx(-SELU_SCALE * SELU_ALPHA, rel=1e-6)
    assert selu_grad(np.array([2.0]))[0] == pytest.approx(SELU_SCALE)


def test_leaky_relu_values():
    np.testing.assert_allclose(leaky_relu(np.array([-2.0, 3.0])), [-0.02, 3.0])


# reference forms of the activations, selecting their branch with np.where; the
# derivatives are functions of the input, and where_selu_grad is the exp form
# the library computed before it took the derivative from the output
def where_selu(x):
    return SELU_SCALE * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))


def where_selu_grad(x):
    return SELU_SCALE * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))


def where_leaky_relu(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def where_leaky_relu_grad(x):
    return np.where(x > 0, 1.0, LEAKY_SLOPE).astype(x.dtype)


EPS = np.finfo(np.float64).eps


def selu_grad_atol(dtype):
    """selu_grad's y + SCALE * ALPHA rounds differently from SCALE * ALPHA * exp(x);
    the difference is absolute, a few units in the last place of the largest
    derivative, SCALE * ALPHA (near y -> -SCALE * ALPHA)."""
    return 4 * np.finfo(dtype).eps * SELU_SCALE * SELU_ALPHA


SELU_GRAD_ATOL = selu_grad_atol(np.float64)


def edge_inputs(dtype):
    """Signed zeros, the smallest subnormal and normal magnitudes, and +-800,
    where exp and expm1 overflow."""
    info = np.finfo(dtype)
    return [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
            info.smallest_normal, -info.smallest_normal, 1.0, -1.0, 800.0, -800.0]


# magnitudes whose SELU still fits the dtype
INPUT_BOUND = {np.float32: 1e38, np.float64: 1e300}


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(dtype=st.sampled_from(DTYPES), data=st.data())
def test_activations_equal_np_where_forms(dtype, data):
    bound, width = float(dtype(INPUT_BOUND[dtype])), np.finfo(dtype).bits
    values = data.draw(st.lists(st.floats(min_value=-bound, max_value=bound, width=width), max_size=40))
    x = np.array(edge_inputs(dtype) + values, dtype=dtype)
    with np.errstate(over="ignore"):  # the where forms evaluate the branch they drop
        expected = [f(x) for f in (where_selu, where_selu_grad, where_leaky_relu, where_leaky_relu_grad)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        y_selu, y_leaky = selu(x), leaky_relu(x)
        got = [y_selu, selu_grad(y_selu), y_leaky, leaky_relu_grad(y_leaky)]
    for have in got + expected:
        assert have.dtype == dtype
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[2], expected[2])
    # the derivatives read the output: LeakyReLU's keeps the input's sign, so its
    # derivative is exact; SELU's differs from the exp form by rounding only
    assert np.array_equal(got[3], expected[3])
    assert np.abs(got[1] - expected[1]).max() <= selu_grad_atol(dtype)
    # scaled, as a TRAIN block's activation is: written in place, the same
    # values as in a new array, which leaves its argument alone
    scale = 1.0 / (1.0 - 0.2)
    before = x.tobytes()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        # SELU's derivative as unscaled, relative to the scale; LeakyReLU's
        # constants scale * (1 - slope) and scale * slope sum to scale to a rounding
        for act, act_grad, where_grad, atol in (
            (selu, selu_grad, where_selu_grad, scale * selu_grad_atol(dtype)),
            (leaky_relu, leaky_relu_grad, where_leaky_relu_grad, scale * np.finfo(dtype).eps),
        ):
            scaled = act(x, scale)
            assert x.tobytes() == before and scaled.dtype == dtype
            in_place = x.copy()
            assert act(in_place, scale, out=in_place) is in_place
            assert np.array_equal(in_place, scaled)
            with np.errstate(over="ignore"):
                want = where_grad(x) * scale
            have = act_grad(scaled, scale)
            assert have.dtype == dtype
            assert np.abs(have - want).max() <= atol


def test_dropout_keep_frequency(dtype=np.float64):
    rng = np.random.default_rng(2)
    x = np.ones((1, 50), dtype=dtype)
    kept = np.zeros(50)
    passes = 10**4
    for _ in range(passes):
        out, keep = dropout_forward(x, 0.2, TRAIN, rng)
        assert out.dtype == dtype and keep.dtype == bool
        kept += (out[0] != 0.0)
    freq = kept / passes
    assert np.all(np.abs(freq - 0.8) < 0.02)


def test_dropout_keep_frequency_in_float32():
    test_dropout_keep_frequency(np.float32)


def test_dropout_zeroes_dropped_units_and_inference_identity(dtype=np.float64):
    """Dropout only zeroes: the 1 / (1 - rate) of inverted dropout is the
    block's activation's (``test_block_output_is_inverted_dropout...``)."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2000, 20)).astype(dtype)
    out, keep = dropout_forward(x, 0.2, TRAIN, rng)
    assert out.dtype == dtype and keep.dtype == bool
    assert np.array_equal(out, np.where(keep, x, dtype(0.0)))
    dx = dropout_backward(np.ones_like(x), keep)
    assert dx.dtype == dtype
    np.testing.assert_array_equal(dx, keep)
    same, none = dropout_forward(x, 0.2, INFER, None)
    assert none is None and same is x


def test_dropout_zeroes_dropped_units_and_inference_identity_in_float32():
    test_dropout_zeroes_dropped_units_and_inference_identity(np.float32)


DROPOUT_SHAPES = [pytest.param((3, 5), id="3x5"), pytest.param((512, 64), id="512x64")]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", DROPOUT_SHAPES)
def test_dropout_mask_is_a_16_bit_draw_from_raw_generator_words(dtype, shape):
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    _, keep = dropout_forward(np.ones(shape, dtype=dtype), 0.2, TRAIN, rng)
    # oracle: each word's four 16-bit quarters, lowest first (memory order on a
    # little-endian host), kept when at least round(0.2 * 2**16) = 13107
    size = shape[0] * shape[1]
    words = twin.bit_generator.random_raw(-(-size // 4))
    quarters = (words[:, None] >> np.array([0, 16, 32, 48], dtype=np.uint64)) & 0xFFFF
    assert keep.dtype == bool
    np.testing.assert_array_equal(keep, quarters.ravel()[:size].reshape(shape) >= 13107)
    assert rng.bit_generator.state == twin.bit_generator.state


EXTREME_RATES = pytest.mark.parametrize("rate, keeps", [(2.0**-18, True), (1.0 - 1e-6, False)],
                                        ids=["below_2**-17", "threshold_rounds_to_2**16"])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", DROPOUT_SHAPES)
@EXTREME_RATES
def test_dropout_extreme_rates_keep_or_drop_every_unit(dtype, shape, rate, keeps):
    x = np.ones(shape, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, keep = dropout_forward(x, rate, TRAIN, np.random.default_rng(8))
    np.testing.assert_array_equal(keep, np.full(shape, keeps))
    np.testing.assert_array_equal(out, np.full(shape, 1.0 if keeps else 0.0, dtype=dtype))


def block_reference_output(block, cache, rate):
    """(1 / (1 - rate)) * act(normed) * keep, from a TRAIN pass's cache, by the
    np.where form of the activation at the normalized input, scaled in float64."""
    _, (centred, inv_std), _, keep = cache
    normed = centred * (inv_std * block.norm.gamma) + block.norm.beta
    where_act = where_selu if block.act is selu else where_leaky_relu
    return where_act(normed).astype(np.float64) * (1.0 / (1.0 - rate)) * keep


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("activation", ["selu", "leaky_relu"])
def test_block_output_is_inverted_dropout_of_the_scaled_activation(dtype, activation):
    rng = np.random.default_rng(11)
    block = DenseBlock(5, 64, activation, 0.2, rng)
    cast_params(dtype, block.dense, block.norm)
    block.norm.gamma[...] = rng.normal(size=64)
    block.norm.beta[...] = rng.normal(size=64)
    out, cache = block.forward(rng.normal(size=(512, 5)).astype(dtype), TRAIN, rng)
    assert out.dtype == dtype and cache[3].dtype == bool and cache[2] is out
    want = block_reference_output(block, cache, 0.2)
    # the scale meets the activation's own constant in one product, where the
    # reference rounds act(normed) first: a rounding of each side
    assert np.all(np.abs(out - want) <= 2 * np.finfo(dtype).eps * np.abs(want))
    # on ones (a normalized input of exactly 1), the output is act(1) / (1 -
    # rate) on kept units, and averages act(1): 1 for LeakyReLU, SCALE for SELU
    block.norm.gamma[...] = 0.0
    block.norm.beta[...] = 1.0
    out, cache = block.forward(rng.normal(size=(2000, 5)).astype(dtype), TRAIN, rng)
    ones = np.ones(1, dtype=dtype)
    assert set(np.unique(out)) == {0.0, block.act(ones, 1.0 / 0.8)[0]}
    assert out.mean() == pytest.approx(block.act(ones)[0], abs=0.02)


@pytest.mark.parametrize("dtype", DTYPES)
@EXTREME_RATES
def test_block_with_an_extreme_rate_keeps_or_drops_every_unit(dtype, rate, keeps):
    rng = np.random.default_rng(12)
    block = DenseBlock(5, 64, "selu", rate, rng)
    cast_params(dtype, block.dense, block.norm)
    x = rng.normal(size=(512, 5)).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, cache = block.forward(x, TRAIN, rng)
        dx = block.backward(np.ones_like(out), cache)
    np.testing.assert_array_equal(cache[3], np.full(out.shape, keeps))
    assert np.all(np.abs(out - block_reference_output(block, cache, rate))
                  <= 2 * np.finfo(dtype).eps * np.abs(out))
    assert np.all(np.isfinite(dx)) and np.any(dx != 0.0) == keeps


# --- batch sums -----------------------------------------------------------------

BATCH_ROWS = [2, 64, 512, 513]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", BATCH_ROWS)
def test_column_sums_are_exact_on_whole_numbers(dtype, n):
    # every partial sum of at most 513 entries of size <= 1000 is a whole
    # number below 2**24, so any order of the additions is exact
    rng = np.random.default_rng(n)
    for width in range(1, 65):
        a = rng.integers(-1000, 1001, size=(n, width)).astype(dtype)
        sums = column_sums(a)
        assert sums.dtype == dtype and sums.shape == (width,)
        assert np.array_equal(sums, a.sum(axis=0))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", BATCH_ROWS)
def test_column_sums_agree_with_numpy_within_the_summation_error(dtype, n):
    # each order's error is at most (n - 1) * eps / 2 * sum|a| to first order,
    # so the two orders differ by at most twice that
    rng = np.random.default_rng(100 + n)
    for width in range(1, 65):
        a = rng.normal(rng.normal(size=width), 1.0, size=(n, width)).astype(dtype)
        bound = (n - 1) * np.finfo(dtype).eps * np.abs(a).sum(axis=0)
        assert np.all(np.abs(column_sums(a) - a.sum(axis=0)) <= bound)


def test_column_sums_use_one_read_only_ones_vector_per_rows_and_dtype():
    a = np.arange(12.0).reshape(4, 3)
    narrow = column_sums(a.astype(np.float32))
    wide = column_sums(a)
    assert narrow.dtype == np.float32 and wide.dtype == np.float64
    assert np.array_equal(narrow, [18, 22, 26]) and np.array_equal(wide, [18, 22, 26])
    ones = nn._ones(4, np.dtype(np.float32))
    assert ones is nn._ones(4, np.dtype(np.float32))
    assert ones.dtype == np.float32 and not ones.flags.writeable
    with pytest.raises(ValueError):
        ones[0] = 2.0


def test_batchnorm_train_normalizes_and_writes_its_batch_stats(dtype=np.float64):
    """A TRAIN pass writes the batch statistics and leaves the running ones to
    the layer's owner (tested on the model in test_vae.py)."""
    bn = BatchNorm(3)
    cast_params(dtype, bn)
    rng = np.random.default_rng(4)
    x = rng.normal(5.0, 2.0, size=(512, 3)).astype(dtype)
    # 1e-12 at float64, the same number of units in the last place at float32
    atol = 1e-12 * np.finfo(dtype).eps / EPS
    out, _ = bn.forward(x, TRAIN)
    assert out.dtype == dtype
    assert np.allclose(out.mean(axis=0), 0.0, atol=atol)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)
    # two orders of a 512-term sum: each within (n - 1) * eps / 2 of the exact one
    rtol = 512 * np.finfo(dtype).eps
    np.testing.assert_allclose(bn.batch_mean, x.mean(axis=0), rtol=rtol)
    np.testing.assert_allclose(bn.batch_var, x.var(axis=0), rtol=rtol)
    assert np.array_equal(bn.running_mean, np.zeros(3))
    assert np.array_equal(bn.running_var, np.ones(3))
    assert bn.running_mean.dtype == bn.running_var.dtype == dtype
    # inference path uses the running statistics
    frozen, _ = bn.forward(x, INFER)
    assert frozen.dtype == dtype
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.EPS)
    np.testing.assert_allclose(frozen, expected, atol=atol)


def test_batchnorm_train_normalizes_and_writes_its_batch_stats_in_float32():
    test_batchnorm_train_normalizes_and_writes_its_batch_stats(np.float32)


def test_batchnorm_train_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    bn = BatchNorm(4)
    bn.gamma = rng.random(4) + 0.5
    bn.beta = rng.random(4)
    x = rng.random((6, 4))
    target = rng.random((6, 4))

    def loss(inputs):
        out, _ = bn.forward(inputs, TRAIN)
        return 0.5 * np.sum((out - target) ** 2)

    out, cache = bn.forward(x, TRAIN)
    dx = bn.backward(out - target, cache)
    grads = {"gamma": bn.gamma_grad, "beta": bn.beta_grad}
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


def parent_batchnorm_backward(bn, dy, cache):
    """BatchNorm.backward as it was before it reused its parameter gradients:
    it forms dy * gamma and sums it, and its product with x_hat, over the batch.
    The parameter gradients are summed as the layer sums them, by
    ``column_sums``, gamma's over dy * centred and then scaled by inv_std: this
    is a reference for the formula, not for the order of a sum's additions."""
    centred, inv_std = cache
    x_hat = centred * inv_std
    grads = {"gamma": column_sums(dy * centred) * inv_std, "beta": column_sums(dy)}
    dx_hat = dy * bn.gamma
    n = x_hat.shape[0]
    dx = inv_std / n * (n * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
    return dx, grads


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(dtype=st.sampled_from(DTYPES), n=st.integers(2, 64), d=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1),
       x_scale=st.sampled_from([1e-3, 1.0, 1e3]), dy_scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_batchnorm_backward_matches_parent_formula(dtype, n, d, seed, x_scale, dy_scale):
    rng = np.random.default_rng(seed)
    bn = BatchNorm(d)
    cast_params(dtype, bn)
    bn.gamma[...] = rng.normal(size=d)
    bn.beta[...] = rng.normal(size=d)
    x = rng.normal(x_scale * rng.normal(size=d), x_scale, size=(n, d)).astype(dtype)
    dy = (dy_scale * rng.normal(size=(n, d))).astype(dtype)
    y, cache = bn.forward(x, TRAIN)
    dx = bn.backward(dy, cache)
    grads = {"gamma": bn.gamma_grad, "beta": bn.beta_grad}
    assert y.dtype == dx.dtype == dtype
    want_dx, want_grads = parent_batchnorm_backward(bn, dy, cache)
    for name, want in want_grads.items():
        assert grads[name].dtype == dtype
        assert np.array_equal(grads[name], want)
    # both forms sum n rows, whose rounding error grows with n, scaled by the
    # largest term of gamma * inv_std * (dy - mean(dy) - x_hat * mean(dy * x_hat))
    centred, inv_std = cache
    x_hat = centred * inv_std
    scale = np.abs(bn.gamma * inv_std).max() * np.abs(dy).max() * (1.0 + np.abs(x_hat).max() ** 2)
    assert np.abs(dx - want_dx).max() <= 4 * n * np.finfo(dtype).eps * scale


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
       activation=st.sampled_from(["selu", "leaky_relu"]))
def test_block_activation_derivative_matches_input_form(n, seed, activation):
    """What a block passes back into its BatchNorm, from the cached output,
    against the reference derivative at the normalized input."""
    rng = np.random.default_rng(seed)
    block = DenseBlock(5, 12, activation, 0.3, rng)
    block.norm.gamma[...] = rng.normal(size=12)
    block.norm.beta[...] = rng.normal(size=12)
    x = 3.0 * rng.normal(size=(n, 5))
    dy = rng.normal(size=(n, 12))
    _, cache = block.forward(x, TRAIN, rng)
    seen = []
    norm_backward = block.norm.backward

    def recording_backward(g, *args, **kwargs):
        seen.append(g.copy())  # the input's gradient overwrites g
        return norm_backward(g, *args, **kwargs)

    block.norm.backward = recording_backward
    block.backward(dy, cache)

    centred, inv_std = cache[1]
    normed = centred * (inv_std * block.norm.gamma) + block.norm.beta
    scale = 1.0 / (1.0 - 0.3)
    upstream = dropout_backward(dy, cache[3])
    if activation == "leaky_relu":
        want = upstream * where_leaky_relu_grad(normed) * scale
        # scale * (1 - slope) + scale * slope, and the product: three roundings
        assert np.all(np.abs(seen[0] - want) <= 3 * EPS * np.abs(want))
    else:
        want = upstream * where_selu_grad(normed) * scale
        # the derivative's difference, plus one rounding of each product and
        # of each scaled constant, all relative to the scale
        tol = scale * np.abs(upstream) * (SELU_GRAD_ATOL + 2 * EPS * SELU_SCALE * SELU_ALPHA)
        assert np.all(np.abs(seen[0] - want) <= tol)


@pytest.mark.parametrize("mode", [TRAIN, INFER])
def test_stack_leaves_its_inputs_unchanged(mode, dtype=np.float64):
    """Forward in either mode, and backward after a TRAIN forward, the only
    pass it follows."""
    rng = np.random.default_rng(8)
    for activation in ("selu", "leaky_relu"):
        stack = MLPStack(5, (16, 8), 3, activation, 0.2, rng)
        cast_params(dtype, *{owner for _, owner, _ in stack.named_params()})
        x = rng.normal(size=(32, 5)).astype(dtype)
        dy = rng.normal(size=(32, 3)).astype(dtype)
        x_before, dy_before = x.tobytes(), dy.tobytes()
        y, caches = stack.forward(x, mode, rng)
        assert x.tobytes() == x_before
        assert y.dtype == dtype
        if mode == TRAIN:
            dx = stack.backward(dy, caches)
            assert dy.tobytes() == dy_before
            assert dx.dtype == dtype
            grads = [getattr(owner, owner.RESULTS[leaf]) for _, owner, leaf in stack.named_params()]
            assert {g.dtype for g in grads} == {np.dtype(dtype)}, activation


@pytest.mark.parametrize("mode", [TRAIN, INFER])
def test_stack_leaves_its_inputs_unchanged_in_float32(mode):
    test_stack_leaves_its_inputs_unchanged(mode, np.float32)


def test_dense_block_and_stack_shapes():
    rng = np.random.default_rng(6)
    stack = MLPStack(5, (16, 8), 3, "selu", 0.2, rng)
    x = rng.random((10, 5))
    y, caches = stack.forward(x, TRAIN, rng)
    assert y.shape == (10, 3)
    dy = rng.random((10, 3))
    dx = stack.backward(dy, caches)
    assert dx.shape == x.shape
    assert caches == []  # each layer's cache is released as backward consumes it
    grads = {name: getattr(owner, owner.RESULTS[leaf]) for name, owner, leaf in stack.named_params()
             if not leaf.startswith("running_")}
    assert {"out.W", "out.b", "hidden0.dense.W", "hidden1.norm.gamma"} <= set(grads)
    for name, owner, leaf in stack.named_params():
        result = getattr(owner, owner.RESULTS[leaf])
        assert result.shape == getattr(owner, owner.LEAVES[leaf]).shape, name


def test_block_infer_mode_is_deterministic():
    rng = np.random.default_rng(7)
    block = DenseBlock(4, 6, "leaky_relu", 0.5, rng)
    x = rng.random((3, 4))
    a, _ = block.forward(x, INFER, rng)
    b, _ = block.forward(x, INFER, rng)
    np.testing.assert_array_equal(a, b)


def _arrays_of(result) -> list:
    """The arrays in a layer's result or arguments, nested tuples walked in order."""
    if isinstance(result, tuple):
        return [a for part in result for a in _arrays_of(part)]
    return [result] if isinstance(result, np.ndarray) else []


def with_and_without_out(f, arg, rest, alias, held=()):
    """Call ``f(arg, *rest)``, then with ``out``: ``arg`` itself (on a copy), as
    a block passes it, or a new array.  Both give the same bytes, in the result
    and in the layer's ``held`` arrays, and the first writes no argument.
    Returns the second call's result and its ``out``."""
    args = _arrays_of((arg, *rest))
    before = [a.tobytes() for a in args]
    want = [a.tobytes() for a in _arrays_of(f(arg, *rest)) + list(held)]
    assert [a.tobytes() for a in args] == before
    out = arg.copy() if alias else np.empty_like(arg)
    given = f(out if alias else arg, *rest, out=out)
    assert [a.tobytes() for a in _arrays_of(given) + list(held)] == want
    return given, out


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("alias", [True, False], ids=["out_is_the_input", "out_is_new"])
def test_an_out_destination_changes_no_byte_and_no_draw(dtype, alias):
    rng = np.random.default_rng(12)
    x = rng.normal(2.0, 3.0, size=(64, 7)).astype(dtype)
    dy = rng.normal(size=(64, 7)).astype(dtype)
    bn = BatchNorm(7)
    cast_params(dtype, bn)
    for leaf in ("gamma", "beta", "running_mean"):
        getattr(bn, leaf)[...] = rng.normal(size=7)
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=7)

    for mode, held in ((TRAIN, (bn.batch_mean, bn.batch_var)), (INFER, ())):
        (_, (centred, _)), out = with_and_without_out(bn.forward, x, (mode,), alias, held)
        assert centred is out  # the centred input, which the output is not
    _, cache = bn.forward(x, TRAIN)
    dx, out = with_and_without_out(bn.backward, dy, (cache,), alias, (bn.gamma_grad, bn.beta_grad))
    assert dx is out

    for mode, rate in ((TRAIN, 0.3), (TRAIN, 0.0), (INFER, 0.3)):
        twins = [np.random.default_rng(5), np.random.default_rng(5)]
        draws = iter(twins)

        def dropped(a, **kw):
            return dropout_forward(a, rate, mode, next(draws), **kw)

        (y, keep), out = with_and_without_out(dropped, x, (), alias)
        assert y is out and (keep is None) == (mode == INFER or rate == 0.0)
        assert twins[0].bit_generator.state == twins[1].bit_generator.state
        grad, out = with_and_without_out(dropout_backward, dy, (keep,), alias)
        assert grad is out


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


def parent_adam_step(state, grad, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Adam.step as it was before it updated its moments in place: it built
    new moments, both bias-corrected moments and the update on every step."""
    state["t"] += 1
    state["m"] = b1 * state["m"] + (1.0 - b1) * grad
    state["v"] = b2 * state["v"] + (1.0 - b2) * grad * grad
    m_hat = state["m"] / (1.0 - b1 ** state["t"])
    v_hat = state["v"] / (1.0 - b2 ** state["t"])
    return lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("dtype", DTYPES)
def test_adam_updates_its_moments_in_place_in_the_parameter_dtype(dtype):
    rng = np.random.default_rng(9)
    params = NamedVector.pack({"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}, dtype)
    want = params.vector.copy()
    reference = {"t": 0, "m": 0.0, "v": 0.0}
    adam = Adam()
    for step in range(5):
        grads = NamedVector.pack({"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}, dtype)
        adam.step(params, grads)
        want -= parent_adam_step(reference, grads.vector)
        if step == 0:
            m, v = adam.m, adam.v
        assert adam.m is m and adam.v is v  # allocated once
        assert m.dtype == v.dtype == params.vector.dtype == dtype
        # the same operations in the same order: the same bits
        assert np.array_equal(m, reference["m"]) and np.array_equal(v, reference["v"])
        assert np.array_equal(params.vector, want)
