import ctypes
import hashlib
import json
import math
import re
import struct
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from blas_platform import blas_platform
from fd_utils import REL_FLOOR, FixedNoise, make_case, max_relative_error, without_dropout
from photonvae import vae
from photonvae.nn import INFER, TRAIN, Adam, BatchNorm, GradientError
from photonvae.vae import (
    CheckpointError,
    DataMismatchError,
    NetworkSpec,
    VAEClassifier,
    evaluate_model,
    load_checkpoint,
    loss_kl,
    loss_recon,
    save_checkpoint,
    train_model,
)


def binary_model(seed=0, input_dim=5):
    return VAEClassifier(NetworkSpec(input_dim=input_dim, num_classes=2), seed=seed)


# --- architecture invariants -----------------------------------------------------


def test_network_widths_follow_spec():
    model = binary_model()
    assert [b.dense.weight.shape[1] for b in model.encoder.blocks] == [16, 32, 64, 32, 16]
    assert model.encoder.out.weight.shape == (16, 6)  # mean and log-variance
    assert [b.dense.weight.shape[1] for b in model.decoder.blocks] == [8, 16, 32, 16]
    assert model.decoder.out.weight.shape == (16, 5)
    assert [b.dense.weight.shape[1] for b in model.classifier.blocks] == [16, 8]
    assert model.classifier.out.weight.shape == (8, 2)
    four = VAEClassifier(NetworkSpec(input_dim=6, num_classes=4), seed=0)
    assert four.classifier.out.weight.shape == (8, 4)
    # only each stack's output layer has a bias; batch normalization cancels
    # the bias of a linear map that feeds it
    for net in (model, four):
        names = net.param_names()
        assert not [name for name in names if "dense.b" in name]
        assert [name for name in names if name.endswith(".b")] == [
            "encoder.out.b", "decoder.out.b", "classifier.out.b",
        ]
    assert model.trainable_refs().vector.size == 7269
    assert four.trainable_refs().vector.size == 7320


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(num_classes=1)
    # model_inputs builds 5 click fractions, or 6 with nbar_obs
    for input_dim in (0, 4, 7):
        with pytest.raises(ValueError, match=f"input_dim must be 5 or 6, got {input_dim}"):
            NetworkSpec(input_dim=input_dim)


def test_spec_dict_round_trip():
    spec = NetworkSpec(input_dim=6, num_classes=4)
    assert NetworkSpec.from_dict(spec.to_dict()) == spec


# --- forward components -----------------------------------------------------------


def test_encode_zero_final_layer_gives_zero_latent():
    model = binary_model()
    model.encoder.out.weight[:] = 0.0
    model.encoder.out_bias[:] = 0.0
    fwd = model.forward(np.random.default_rng(0).random((4, 5)))
    assert np.all(fwd.mu == 0.0)
    assert np.all(fwd.logvar == 0.0)


def test_inference_forward_deterministic():
    model = binary_model(seed=3)
    x = np.random.default_rng(1).random((6, 5))
    a = model.forward(x, mode=INFER)
    b = model.forward(x, mode=INFER)
    np.testing.assert_array_equal(a.probs, b.probs)
    np.testing.assert_array_equal(a.x_hat, b.x_hat)


def test_training_forward_is_stochastic():
    model = binary_model(seed=3)
    x = np.random.default_rng(1).random((64, 5))
    a = model.forward(x, mode=TRAIN)
    b = model.forward(x, mode=TRAIN)
    assert not np.array_equal(a.z, b.z)


def test_inference_draws_nothing_and_writes_nothing():
    """The validation pass between epochs relies on this: an INFER pass leaves
    the noise stream and every parameter, running statistics included, as it
    found them, while a TRAIN pass moves the running statistics."""
    model = binary_model(seed=3)
    x = np.random.default_rng(1).random((64, 5))
    rng_state = model.rng.bit_generator.state
    state = model.get_state()
    model.forward(x, mode=INFER)
    assert model.rng.bit_generator.state == rng_state
    after = model.get_state()
    assert all(np.array_equal(after[name], state[name]) for name in state)
    model.forward(x, mode=TRAIN)
    after = model.get_state()
    running = [name for name in state if ".running_" in name]
    assert len(running) == 2 * (5 + 4 + 2)  # mean and variance of every block
    assert all(not np.array_equal(after[name], state[name]) for name in running)


def test_a_train_pass_moves_every_running_statistic_toward_its_batch_statistic(monkeypatch):
    """After one TRAIN pass, each running statistic is 0.9 * its old value plus
    0.1 * the mean, or the biased variance, of what its BatchNorm saw."""
    model = VAEClassifier(NetworkSpec(num_classes=4), seed=21, dtype=np.float64)
    rng = np.random.default_rng(21)
    running = [(name, owner, leaf) for name, owner, leaf in model.named_params()
               if leaf.startswith("running_")]
    old = model.get_state()
    for name, _, _ in running:
        old[name] = rng.uniform(0.5, 2.0, size=old[name].shape)
    model.set_state(old)
    seen = {}
    real_forward = BatchNorm.forward

    def recording_forward(self, x, mode, **kwargs):
        seen[id(self)] = x.copy()
        return real_forward(self, x, mode, **kwargs)

    monkeypatch.setattr(BatchNorm, "forward", recording_forward)
    model.forward(rng.random((64, 5)), mode=TRAIN)
    new = model.get_state()
    assert len(running) == 2 * len(seen) == 2 * (5 + 4 + 2)
    for name, owner, leaf in running:
        x = seen[id(owner)]
        batch = x.mean(axis=0) if leaf == "running_mean" else x.var(axis=0)
        np.testing.assert_allclose(new[name], 0.9 * old[name] + 0.1 * batch,
                                   rtol=1e-12, atol=1e-12, err_msg=name)


def test_a_train_pass_samples_z_as_mu_plus_std_times_eps():
    fwd = binary_model(seed=6).forward(np.random.default_rng(6).random((32, 5)), mode=TRAIN)
    assert np.array_equal(fwd.std, np.exp(0.5 * fwd.logvar))
    assert np.array_equal(fwd.z, fwd.mu + fwd.std * fwd.eps)


def test_classify_zero_head_is_uninformative():
    model = binary_model()
    model.classifier.out.weight[:] = 0.0
    model.classifier.out_bias[:] = 0.0
    probs = model.predict_proba(np.random.default_rng(2).random((4, 5)))
    np.testing.assert_allclose(probs, 0.5)
    four = VAEClassifier(NetworkSpec(input_dim=5, num_classes=4), seed=0)
    four.classifier.out.weight[:] = 0.0
    four.classifier.out_bias[:] = 0.0
    probs = four.predict_proba(np.random.default_rng(2).random((4, 5)))
    np.testing.assert_allclose(probs, 0.25)


def test_forward_rejects_wrong_width():
    with pytest.raises(DataMismatchError):
        binary_model().forward(np.zeros((2, 6)))


# --- loss functions -----------------------------------------------------------------


def test_loss_recon_zero_at_perfect_reconstruction():
    x = np.random.default_rng(0).random((8, 5))
    assert loss_recon(x, x.copy()) == 0.0
    assert loss_recon(x, x + 1.0) == pytest.approx(1.0)


def test_losses_reduce_float32_terms_in_float64():
    rng = np.random.default_rng(17)
    x, x_hat, mu, logvar = (rng.normal(size=(512, 5)).astype(np.float32) for _ in range(4))
    wide = [a.astype(np.float64) for a in (x, x_hat, mu, logvar)]
    assert loss_recon(x, x_hat) == loss_recon(*wide[:2])
    assert loss_kl(mu, logvar) == loss_kl(*wide[2:])


def test_loss_kl_zero_at_standard_normal():
    assert loss_kl(np.zeros((4, 3)), np.zeros((4, 3))) == 0.0


def test_loss_kl_positive_elsewhere():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = rng.normal(size=(6, 3))
        logvar = rng.normal(size=(6, 3))
        assert loss_kl(mu, logvar) > 0.0


def test_loss_kl_formula():
    mu = np.array([[1.0, 0.0]])
    logvar = np.array([[0.0, math.log(2.0)]])
    expected = -0.5 * ((1 + 0 - 1 - 1) + (1 + math.log(2) - 0 - 2))
    assert loss_kl(mu, logvar) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("num_classes", [2, 4])
def test_cross_entropy_clamps_the_true_class_probability(num_classes, dtype=np.float64):
    model = VAEClassifier(NetworkSpec(num_classes=num_classes), seed=0, dtype=dtype)
    model.classifier.out.weight[:] = 0.0
    model.classifier.out_bias[:] = 0.0
    model.classifier.out_bias[-1] = -40.0  # the last class gets probability ~4e-18
    x = np.random.default_rng(5).random((3, 5))
    y = np.array([num_classes - 1, 0, -1])
    fwd = model.forward(x, mode=INFER)
    assert fwd.probs.dtype == dtype
    assert fwd.probs[0, -1] < vae.PROB_CLIP
    # the clamp holds PROB_CLIP as the model's dtype represents it
    expected = -0.5 * (math.log(dtype(vae.PROB_CLIP)) + math.log(fwd.probs[1, 0]))
    bce = model.losses(x, y, fwd).bce
    assert np.isfinite(bce)
    assert bce == pytest.approx(vae.CLASSIFICATION_WEIGHT * expected, rel=1e-12)
    dlogits = vae._dlogits(vae._labelled(y, fwd.probs), fwd.probs)
    assert np.all(dlogits[0] == 0.0)  # clamped
    assert np.any(dlogits[1] != 0.0)
    assert np.all(dlogits[2] == 0.0)  # unlabeled


@pytest.mark.parametrize("num_classes", [2, 4])
def test_cross_entropy_clamps_the_true_class_probability_in_float32(num_classes):
    test_cross_entropy_clamps_the_true_class_probability(num_classes, np.float32)


def test_loss_total_is_component_sum():
    model = binary_model(seed=4)
    x = np.random.default_rng(3).random((16, 5))
    y = np.random.default_rng(4).integers(0, 2, 16)
    fwd = model.forward(x, mode=INFER)
    values = model.losses(x, y, fwd)
    assert values.total == pytest.approx(values.recon + values.kl + values.bce, abs=1e-12)


def test_unlabeled_rows_excluded_from_bce():
    model = binary_model(seed=4)
    x = np.random.default_rng(3).random((8, 5))
    fwd = model.forward(x, mode=INFER)
    all_unlabeled = model.losses(x, np.full(8, -1), fwd)
    assert all_unlabeled.bce == 0.0


# --- gradients ------------------------------------------------------------------------


def test_gradients_match_finite_differences_quick():
    model, x, y = make_case(NetworkSpec(input_dim=5, num_classes=2), seed=0)
    rng = np.random.default_rng(0)
    worst, at = max_relative_error(model, x, y, sample_per_tensor=8, rng=rng)
    assert worst < 1e-4, at


def test_gradients_match_in_training_mode_batch_statistics():
    model, x, y = make_case(NetworkSpec(input_dim=5, num_classes=2), seed=1)
    without_dropout(model)
    rng = np.random.default_rng(1)
    worst, at = max_relative_error(model, x, y, sample_per_tensor=6, rng=rng)
    assert worst < 1e-4, at


def _arrays(tree):
    """Every array in a nest of tuples and lists."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, (tuple, list)):
        return [a for item in tree for a in _arrays(item)]
    return []


def record_caches(monkeypatch):
    """Wrap ``VAEClassifier._forward`` to keep, for each pass, its stacks'
    cache lists as the forward pass built them: the backward pass empties
    ``Forward.caches``, so they are copied before it runs."""
    recorded = []
    real_forward = VAEClassifier._forward

    def recording_forward(model, x, mode):
        fwd = real_forward(model, x, mode)
        recorded.append(tuple(list(caches) for caches in fwd.caches))
        return fwd

    monkeypatch.setattr(VAEClassifier, "_forward", recording_forward)
    return recorded


def test_a_float32_training_step_stays_in_float32(monkeypatch):
    recorded = record_caches(monkeypatch)
    model = binary_model(seed=0)
    rng = np.random.default_rng(16)
    x = rng.random((64, 5))  # float64 rows, cast by the model
    y = rng.integers(0, 2, 64)
    _, grads, fwd = model.loss_and_grads(x, y)
    assert fwd.caches == ([], [], [])  # released by the backward pass
    cached = _arrays(recorded)
    assert len(cached) > 50  # every block's input, norm, output and mask caches
    masks = [a for a in cached if a.dtype == bool]
    assert len(masks) == 11  # one keep mask per hidden block
    arrays = [fwd.mu, fwd.logvar, fwd.z, fwd.x_hat, fwd.logits, fwd.probs, fwd.eps]
    arrays += [a for a in cached if a.dtype != bool]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert grads.vector.dtype == np.float32
    adam = Adam()
    adam.step(model.trainable_refs(), grads)
    assert adam.m.dtype == adam.v.dtype == model.trainable_refs().vector.dtype == np.float32


# A gradient entry is a sum over the batch and over up to 64 units, and in
# TRAIN mode BatchNorm's backward cancels two batch terms, so float32 leaves an
# absolute error of some tens of units in the last place at unit gradient
# scale.  Below REL_FLOOR the error is measured at that fixed scale (a small
# gradient can be the difference of large terms), so the tolerance is 64
# float32 eps over REL_FLOOR.
F32_GRAD_TOL = 64 * np.finfo(np.float32).eps / REL_FLOOR


@pytest.mark.parametrize("num_classes", [2, 4])
def test_float32_gradients_match_the_float64_reference(num_classes):
    spec = NetworkSpec(num_classes=num_classes)
    reference, x, y = make_case(spec, seed=5, batch=64)
    without_dropout(reference)
    model = without_dropout(VAEClassifier(spec, seed=5))
    assert model.dtype == np.float32 and reference.dtype == np.float64
    # the same float32 weights, inputs and noise, so only the arithmetic differs
    state = {name: value.astype(np.float32) for name, value in reference.get_state().items()}
    reference.set_state(state)
    model.set_state(state)
    x = x.astype(np.float32)
    eps = np.random.default_rng(5).standard_normal((64, vae.SHAPE["latent_dim"])).astype(np.float32)
    reference.rng = model.rng = FixedNoise(eps)
    want_values, want, _ = reference.loss_and_grads(x, y)
    values, got, _ = model.loss_and_grads(x, y)
    assert got.vector.dtype == np.float32 and want.vector.dtype == np.float64
    scale = np.maximum(np.maximum(np.abs(got.vector), np.abs(want.vector)), REL_FLOOR)
    err = np.abs(got.vector - want.vector) / scale
    worst = int(np.argmax(err))
    assert err[worst] <= F32_GRAD_TOL, (worst, got.vector[worst], want.vector[worst])
    # the losses are reduced in float64 from float32 terms
    assert values.total == pytest.approx(want_values.total, rel=8 * np.finfo(np.float32).eps)


def test_loss_and_grads_leaves_inputs_unchanged_and_reuses_its_gradient_vector(monkeypatch):
    """The gradients are the model's own vector, which the next call
    overwrites; the inputs, and every array the first pass returned or
    cached, stay as they were."""
    recorded = record_caches(monkeypatch)
    model, x, y = make_case(NetworkSpec(), seed=3, batch=16)
    x_before, y_before = x.tobytes(), y.tobytes()
    _, first, fwd = model.loss_and_grads(x, y)
    first_copy = first.vector.copy()
    held = [fwd.mu, fwd.logvar, fwd.z, fwd.x_hat, fwd.logits, fwd.probs, fwd.eps]
    held += _arrays(recorded)
    assert len(held) > 50 and any(a.dtype == bool for a in held)
    held_before = [a.tobytes() for a in held]
    model.reseed(model.seed)  # the same masks and noise again
    _, second, _ = model.loss_and_grads(x, y)
    assert x.tobytes() == x_before and y.tobytes() == y_before
    assert [a.tobytes() for a in held] == held_before
    assert second is first and second.vector is first.vector
    assert np.array_equal(second.vector, first_copy)


# tracemalloc peak of one TRAIN pass at batch 512 of a 6-input, 4-class model,
# above the memory traced before it: 1,410 KiB measured (numpy 2.4), with
# about 24% headroom.  Allocating each block's centred input, output and
# dropped output apart, and the product dy * keep and the input's gradient
# apart, peaked at 1,458 KiB.  Caching each block's unscaled activation, a
# float dropout mask and the dropped output, all held until the backward pass
# ended, peaked at 2,709 KiB.
TRAIN_PASS_PEAK_KIB = 1750


def test_a_training_pass_caches_one_activation_per_block_and_releases_it(monkeypatch):
    model = VAEClassifier(NetworkSpec(input_dim=6, num_classes=4), seed=0)
    rng = np.random.default_rng(17)
    n = 512
    x = rng.random((n, 6)).astype(np.float32)
    y = rng.integers(0, 4, n)
    model.loss_and_grads(x, y)  # the first pass allocates the batch sums' ones vectors
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, _, fwd = model.loss_and_grads(x, y)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= TRAIN_PASS_PEAK_KIB * 1024, peak // 1024
    # the returned Forward keeps the latent values and outputs, no layer cache
    assert held < 200 * 1024, held // 1024
    assert fwd.caches == ([], [], [])
    # the caches of a pass whose arrays a recording keeps alive
    recorded = record_caches(monkeypatch)
    model.loss_and_grads(x, y)
    [caches] = recorded
    for stack, stack_caches in zip((model.encoder, model.decoder, model.classifier), caches):
        inputs = stack_caches[0][0]
        for block, cache, after in zip(stack.blocks, stack_caches, stack_caches[1:]):
            x_in, (centred, inv_std), out, keep = cache
            width = block.dense.weight.shape[1]
            assert x_in is inputs  # the previous block's output, or the stack's input
            # the output is the one activation array, and the next layer's input
            assert out is (after[0] if isinstance(after, tuple) else after)
            assert out.shape == centred.shape == keep.shape == (n, width)
            assert out.dtype == centred.dtype == inv_std.dtype == np.float32
            assert keep.dtype == bool and inv_std.shape == (width,)
            inputs = out


def test_zero_input_zero_weights_give_zero_weight_gradients():
    model = binary_model(seed=0)
    for name, owner, leaf in model.named_params():
        if leaf == "W":
            owner.weight = np.zeros_like(owner.weight)
    x = np.zeros((4, 5))
    y = np.array([0, 0, 0, 1])  # unbalanced so the head bias gradient is nonzero
    _, grads, _ = model.loss_and_grads(x, y)
    for name, g in grads.items():
        if name.endswith(".W"):
            assert np.all(g == 0.0), name
    assert np.any(grads["classifier.out.b"] != 0.0)


def test_doubling_bce_weight_doubles_classifier_gradients(monkeypatch):
    model = binary_model(seed=2)
    x = np.random.default_rng(6).random((16, 5))
    y = np.random.default_rng(7).integers(0, 2, 16)
    _, grads, _ = model.loss_and_grads(x, y)
    base = {name: g.copy() for name, g in grads.items()}  # the next call overwrites grads
    monkeypatch.setattr(vae, "CLASSIFICATION_WEIGHT", 2.0 * vae.CLASSIFICATION_WEIGHT)
    model.reseed(model.seed)  # the same masks and noise again
    _, doubled, _ = model.loss_and_grads(x, y)
    for name in base:
        if name.startswith("classifier."):
            np.testing.assert_allclose(doubled[name], 2.0 * base[name], rtol=0, atol=0)


def test_non_finite_parameters_raise_gradient_error():
    model = binary_model(seed=0)
    model.encoder.out.weight[:] = np.inf
    with np.errstate(invalid="ignore"):
        _, grads, _ = model.loss_and_grads(
            np.random.default_rng(0).random((4, 5)),
            np.array([0, 1, 0, 1]),
        )
    with pytest.raises(GradientError):
        Adam().step(model.trainable_refs(), grads)


def test_non_finite_gradient_names_its_parameter(monkeypatch):
    model = binary_model(seed=0)
    stack = model.classifier
    real_backward = stack.backward

    def nan_bias_gradient(dy, caches):
        dx = real_backward(dy, caches)
        stack.out_bias_grad[...] = np.nan
        return dx

    monkeypatch.setattr(stack, "backward", nan_bias_gradient)
    x, y = np.random.default_rng(0).random((4, 5)), np.array([0, 1, 0, 1])
    _, grads, _ = model.loss_and_grads(x, y)
    with pytest.raises(GradientError, match="gradient for parameter 'classifier.out.b'"):
        Adam().step(model.trainable_refs(), grads)
    # training refuses the first such gradient before any parameter moves
    before = model.trainable_refs().vector.copy()
    with pytest.raises(GradientError, match="gradient for parameter 'classifier.out.b'"):
        train_model(model, x, y, epochs=1)
    np.testing.assert_array_equal(model.trainable_refs().vector, before)


@pytest.mark.parametrize(
    "name", ["decoder.hidden1.norm.running_var", "classifier.out.W", "encoder.out.b"]
)
def test_assert_finite_names_the_non_finite_parameter(name):
    model = binary_model(seed=0)
    model.assert_finite()
    owner, leaf = next((o, leaf) for n, o, leaf in model.named_params() if n == name)
    getattr(owner, owner.LEAVES[leaf]).reshape(-1)[-1] = np.nan
    with pytest.raises(GradientError, match=f"values in parameter '{name}'"):
        model.assert_finite()


# --- training behavior -------------------------------------------------------------------


def test_fixed_batch_loss_mostly_nonincreasing():
    # each optimizer step should lower the loss it optimized (same batch and
    # dropout masks, replayed via the rng state); tolerance for Adam overshoot
    import copy

    from photonvae.nn import Adam

    rng = np.random.default_rng(9)
    x = np.clip(rng.normal(0.3, 0.1, size=(512, 5)), 0, 1)
    y = rng.integers(0, 2, 512)
    x[y == 1, 1] += 0.3  # separable signal
    model = binary_model(seed=1)
    params = model.trainable_refs()
    adam = Adam()
    wins = 0
    for _ in range(50):
        state = copy.deepcopy(model.rng.bit_generator.state)
        before, grads, _ = model.loss_and_grads(x, y)
        adam.step(params, grads)
        model.rng.bit_generator.state = state
        after = model.losses(x, y, model.forward(x, mode=TRAIN)).total
        if after <= before.total + 1e-9:
            wins += 1
    assert wins >= 45


def test_classifier_prediction_ignores_decoder_at_inference():
    model = binary_model(seed=5)
    x = np.random.default_rng(10).random((12, 5))
    before = model.predict_proba(x)
    model.decoder.out.weight[:] = np.random.default_rng(11).normal(size=model.decoder.out.weight.shape)
    for block in model.decoder.blocks:
        block.dense.weight[:] = 0.123
    after = model.predict_proba(x)
    np.testing.assert_array_equal(before, after)


def _moved_model(input_dim, num_classes, seed):
    """A float32 model whose weights and running statistics a few training
    steps moved off their initial draw."""
    model = VAEClassifier(NetworkSpec(input_dim=input_dim, num_classes=num_classes), seed=seed)
    rng = np.random.default_rng(seed)
    train_model(model, rng.random((256, input_dim)), rng.integers(0, num_classes, 256),
                epochs=2, batch_size=64, learning_rate=1e-2)
    return model


def _assert_same_bytes(got, want, what):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), f"{what}, on {blas_platform()}"


@pytest.mark.parametrize("input_dim, num_classes", [(5, 2), (6, 2), (5, 4), (6, 4)])
def test_blocked_predictions_have_the_bytes_of_one_pass(input_dim, num_classes):
    model = _moved_model(input_dim, num_classes, seed=10 * input_dim + num_classes)
    rng = np.random.default_rng(num_classes)
    for n in (0, 1, 511, 512, 513, 1023, 1024, 1025, 1537, 3001):
        x = rng.random((n, input_dim)).astype(np.float32)
        fwd = model.forward(x, mode=INFER)
        _assert_same_bytes(model.predict_proba(x), fwd.probs, f"probs of {n} rows")
        _assert_same_bytes(model.latent_means(x), fwd.mu, f"latent means of {n} rows")


@pytest.mark.parametrize("n", [0, 1, 511, 512, 1023, 1024, 1025, 1535, 1536, 3001])
def test_prediction_blocks_fold_the_remainder_into_the_last(n):
    block = vae.INFER_BLOCK
    blocks = vae._blocks(n)
    assert [b.start for b in blocks] == [k * block for k in range(len(blocks))]
    assert blocks[-1].stop == n
    sizes = [b.stop - b.start for b in blocks]
    assert sizes[:-1] == [block] * (len(sizes) - 1)
    if n < 2 * block:
        assert sizes == [n]
    else:
        assert block <= sizes[-1] < 2 * block


def test_prediction_memory_does_not_grow_with_the_row_count():
    """tracemalloc sees numpy's array buffers.  The input is already float32,
    so the only array that scales with the rows is the output; the blocks'
    activations are freed block by block.  The largest block is 976 rows at
    2,000 rows and 544 at 20,000, so the larger input peaks no higher."""
    model = VAEClassifier(NetworkSpec(input_dim=6, num_classes=4), seed=0)
    model.predict_proba(np.zeros((8, 6), dtype=np.float32))  # first-call allocations
    excess = {}
    for n in (2000, 20000):
        x = np.random.default_rng(n).random((n, 6)).astype(np.float32)
        tracemalloc.start()
        try:
            probs = model.predict_proba(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess[n] = peak - probs.nbytes
    assert excess[20000] <= excess[2000]
    # one pass over 2,000 rows holds about 4 MB of activations
    assert excess[2000] < 2 << 20


def test_train_model_runs_and_early_stops(monkeypatch):
    monkeypatch.setattr(vae, "PATIENCE", 5)
    rng = np.random.default_rng(12)
    x = rng.random((300, 5))
    y = (x[:, 0] > 0.5).astype(int)
    model = binary_model(seed=6)
    history = train_model(model, x, y, x[:50], y[:50], epochs=400, batch_size=64)
    assert history.epochs_run < 400
    assert history.best_epoch >= 0
    model.assert_finite()


class _MallocInfo(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def _glibc_mallinfo2():
    """glibc's ``mallinfo2``, or None on another C library (or glibc < 2.33)."""
    if sys.platform != "linux":
        return None
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is not None:
        mallinfo2.restype = _MallocInfo
    return mallinfo2


@pytest.mark.skipif(_glibc_mallinfo2() is None, reason="needs glibc's mallinfo2")
def test_training_steps_do_not_return_the_heap_between_steps(monkeypatch):
    """Each step frees a few MB of temporaries; a heap that shrank after a step
    would fault those pages in again at the next one."""
    mallinfo2 = _glibc_mallinfo2()
    heap_sizes = []
    real_step = Adam.step

    def recording_step(self, params, grads):
        heap_sizes.append(mallinfo2().arena)
        return real_step(self, params, grads)

    monkeypatch.setattr(Adam, "step", recording_step)
    rng = np.random.default_rng(18)
    x, y = rng.random((3072, 5)), rng.integers(0, 2, 3072)
    train_model(binary_model(seed=18), x, y, epochs=2, batch_size=512)
    after_first = heap_sizes[1:]
    assert len(after_first) == 11
    assert all(later >= earlier for earlier, later in zip(after_first, after_first[1:])), heap_sizes


def test_train_model_runs_one_validation_pass_per_epoch(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.random((300, 5))
    y = (x[:, 0] > 0.5).astype(int)
    modes = []
    real_forward = VAEClassifier.forward

    def counting_forward(self, x, **kwargs):
        modes.append(kwargs.get("mode", INFER))
        return real_forward(self, x, **kwargs)

    monkeypatch.setattr(VAEClassifier, "forward", counting_forward)
    history = train_model(binary_model(seed=6), x, y, x[:50], y[:50], epochs=3, batch_size=64)
    assert len(history.val_accuracy) == 3
    assert sum(mode != TRAIN for mode in modes) == 3


def test_train_model_keeps_the_best_epoch_without_get_state(monkeypatch):
    """The best epoch is one copy of the parameter vector, not a dict of arrays."""
    rng = np.random.default_rng(12)
    x = rng.random((300, 5))
    y = (x[:, 0] > 0.5).astype(int)

    def refuse(self):
        raise AssertionError("get_state called")

    monkeypatch.setattr(VAEClassifier, "get_state", refuse)
    history = train_model(binary_model(seed=6), x, y, x[:50], y[:50], epochs=4, batch_size=64)
    assert history.best_epoch >= 0


def test_train_model_frees_each_steps_forward_before_the_next_step(monkeypatch):
    """No Forward outlives its step: when a step starts, the reconstruction
    the step before returned is already freed."""
    real_loss_and_grads = VAEClassifier.loss_and_grads
    last_x_hat = []
    held_at_start = []

    def watched(self, x, y):
        held_at_start.append(bool(last_x_hat) and last_x_hat[-1]() is not None)
        result = real_loss_and_grads(self, x, y)
        last_x_hat.append(weakref.ref(result[2].x_hat))
        return result

    monkeypatch.setattr(VAEClassifier, "loss_and_grads", watched)
    rng = np.random.default_rng(17)
    x = rng.random((200, 5))
    y = rng.integers(0, 2, 200)
    train_model(binary_model(seed=3), x, y, x[:40], y[:40], epochs=2, batch_size=64)
    assert len(held_at_start) == 8
    assert not any(held_at_start)
    assert last_x_hat[-1]() is None


# SHA-256 of a short run's final parameters and loss history: any change to the
# arithmetic or the order of a training step changes it.  Taken with numpy 2.4.6
# and its bundled OpenBLAS 0.3.31 on the SkylakeX kernel; another BLAS kernel
# rounds the matmuls differently.
PINNED_TRAINING_SHA256 = {
    2: "f39148065db712cc68a6d2840a2ed2f3f5c73a69040c15d5c1d76228be4197de",
    4: "318c99f59f9803c3362dce172eb4a5eee6291b81945c3daf98e862462e5e99d5",
}


@pytest.mark.parametrize("num_classes", [2, 4])
def test_training_bytes_are_pinned(num_classes, monkeypatch):
    monkeypatch.setattr(vae, "PATIENCE", 2)
    rng = np.random.default_rng(40 + num_classes)
    x = rng.random((300, 5))
    y = rng.integers(0, num_classes, 300)
    x[:, 1] += 0.5 * y
    model = VAEClassifier(NetworkSpec(num_classes=num_classes), seed=num_classes)
    # the high rate makes validation loss turn up, so the best epoch is restored
    history = train_model(
        model, x[:240], y[:240], x[240:], y[240:], epochs=24, batch_size=64, learning_rate=0.1,
    )
    assert history.best_epoch < history.epochs_run - 1 < 23
    digest = hashlib.sha256()
    state = model.get_state()
    for name in model.param_names():
        digest.update(np.ascontiguousarray(state[name], dtype="<f8").tobytes())
    for series in (history.train_loss, history.val_loss, history.val_accuracy):
        digest.update(np.asarray(series, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_TRAINING_SHA256[num_classes], blas_platform()


# SHA-256 of the gradient vector and of the running statistics after one TRAIN
# pass of a fresh float32 model: any change to the arithmetic, order or layout
# of a step's gradients or of the running-statistics update changes it.
# Taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on the SkylakeX
# kernel, as above.
PINNED_GRADIENT_SHA256 = {
    2: "6533734b36de1bd67190340dc7bf3509d31872638587928a54d262fdf9111389",
    4: "c1babfe6923edfb19776e8fb0c861d35ea6d072085a823ed271e1fb06375fe3d",
}


@pytest.mark.parametrize("num_classes", [2, 4])
def test_gradient_bytes_are_pinned(num_classes):
    rng = np.random.default_rng(60 + num_classes)
    x = rng.random((64, 5))
    y = rng.integers(-1, num_classes, 64)  # some rows unlabeled
    model = VAEClassifier(NetworkSpec(num_classes=num_classes), seed=10 + num_classes)
    _, grads, _ = model.loss_and_grads(x, y)
    assert grads.vector.dtype == np.float32
    digest = hashlib.sha256(grads.vector.astype("<f4").tobytes())
    state = model.get_state()
    for name in model.param_names():
        if ".running_" in name:
            digest.update(state[name].astype("<f4").tobytes())
    assert digest.hexdigest() == PINNED_GRADIENT_SHA256[num_classes], blas_platform()


def test_evaluate_model_confusion_shape():
    model = binary_model(seed=7)
    x = np.random.default_rng(13).random((20, 5))
    y = np.random.default_rng(14).integers(0, 2, 20)
    acc, confusion = evaluate_model(model, x, y)
    assert confusion.shape == (2, 2)
    assert confusion.sum() == 20
    assert acc == pytest.approx(np.trace(confusion) / 20)


def test_unlabeled_rows_are_scored_alike_by_evaluation_and_training():
    y = np.array([0, 1, -1, 1, 0, -1])
    x = np.random.default_rng(0).random((6, 5))
    model = binary_model(seed=0)
    model.classifier.out_bias[:] = [0.0, 10.0]  # every row is predicted as class 1
    history = train_model(model, x, [0, 1, 0, 1, 0, 1], x, y, epochs=1, batch_size=6)
    pred = model.predict_class(x)
    assert np.all(pred[y == -1] == 1)  # where a -1 read as the last class would score
    acc, confusion = evaluate_model(model, x, y)
    labeled = y >= 0
    assert acc == history.val_accuracy[0] == np.mean(pred[labeled] == y[labeled])
    assert confusion.sum() == 4


@pytest.mark.parametrize("num_classes, bad", [(2, -2), (2, 2), (4, 4), (2, 0.5)])
def test_labels_outside_the_classes_are_refused(num_classes, bad):
    model = VAEClassifier(NetworkSpec(num_classes=num_classes), seed=0)
    x = np.random.default_rng(1).random((4, 5))
    y = np.array([0, 1, bad, -1])
    with pytest.raises(DataMismatchError, match=f"label {bad} outside -1..{num_classes - 1}"):
        evaluate_model(model, x, y)
    with pytest.raises(DataMismatchError):
        train_model(model, x, y, epochs=1)
    with pytest.raises(DataMismatchError):
        train_model(model, x, [0, 1, 0, 1], x, y, epochs=1)


def _mismatch_cases():
    rng = np.random.default_rng(2)
    x, y = rng.random((100, 5)), rng.integers(0, 2, 100)
    both = "a validation set needs both x_val and y_val"
    return [
        ("x_val_without_y_val", lambda m: train_model(m, x, y, x[:10], None, epochs=1), both),
        ("y_val_without_x_val", lambda m: train_model(m, x, y, None, y[:10], epochs=1), both),
        ("fewer_training_rows", lambda m: train_model(m, x[:90], y, epochs=1),
         "the training set has 90 rows of features but 100 labels"),
        ("fewer_training_labels", lambda m: train_model(m, x, y[:90], epochs=1),
         "the training set has 100 rows of features but 90 labels"),
        ("validation_rows", lambda m: train_model(m, x, y, x[:10], y[:8], epochs=1),
         "the validation set has 10 rows of features but 8 labels"),
        ("evaluation_rows", lambda m: evaluate_model(m, x[:10], y[:8]),
         "the evaluation set has 10 rows of features but 8 labels"),
        ("one_training_row", lambda m: train_model(m, x[:1], y[:1], epochs=1),
         "training needs at least 2 rows, the training set has 1"),
        ("no_training_rows", lambda m: train_model(m, x[:0], y[:0], epochs=1),
         "training needs at least 2 rows, the training set has 0"),
    ]


@pytest.mark.parametrize("call, message", [pytest.param(*case[1:], id=case[0])
                                           for case in _mismatch_cases()])
def test_mismatched_inputs_are_refused_before_any_step(monkeypatch, call, message):
    passes = []
    real_forward = VAEClassifier.forward

    def counting_forward(self, x, **kwargs):
        passes.append(kwargs.get("mode", INFER))
        return real_forward(self, x, **kwargs)

    monkeypatch.setattr(VAEClassifier, "forward", counting_forward)
    with pytest.raises(DataMismatchError, match=message):
        call(binary_model(seed=0))
    assert passes == []


def test_one_row_batches_are_refused_before_any_step():
    """A one-row batch would normalize every hidden unit to its beta: the run
    would report a falling loss while the hidden weights never move."""
    model = binary_model(seed=0)
    rng = np.random.default_rng(3)
    x, y = rng.random((40, 5)), rng.integers(0, 2, 40)
    before, noise = model.get_state(), model.rng.bit_generator.state
    with pytest.raises(ValueError, match="batch_size must be at least 2, got 1"):
        train_model(model, x, y, x[:10], y[:10], epochs=3, batch_size=1)
    after = model.get_state()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    assert model.rng.bit_generator.state == noise


@pytest.mark.parametrize("learning_rate", [-1e-3, 0.0, math.nan, math.inf])
def test_learning_rates_that_are_not_finite_and_positive_are_refused(learning_rate):
    model = binary_model(seed=0)
    rng = np.random.default_rng(3)
    x, y = rng.random((40, 5)), rng.integers(0, 2, 40)
    before = model.get_state()
    with pytest.raises(ValueError, match="learning_rate must be a finite number > 0"):
        train_model(model, x, y, epochs=3, learning_rate=learning_rate)
    after = model.get_state()
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_accuracy_invariant_under_row_permutation():
    model = binary_model(seed=8)
    rng = np.random.default_rng(15)
    x = rng.random((40, 5))
    y = rng.integers(0, 2, 40)
    acc, _ = evaluate_model(model, x, y)
    perm = rng.permutation(40)
    acc_perm, _ = evaluate_model(model, x[perm], y[perm])
    assert acc == acc_perm


# --- checkpoints ------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = VAEClassifier(NetworkSpec(input_dim=6, num_classes=4), seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(
        path, model, seed=9, epochs_trained=17,
        class_labels=["a", "b", "c", "d"], hyperparameters={"learning_rate": 1e-3},
    )
    loaded, header = load_checkpoint(path)
    assert header["epochs_trained"] == 17
    assert header["class_labels"] == ["a", "b", "c", "d"]
    assert loaded.spec == model.spec
    original = model.get_state()
    for name, value in loaded.get_state().items():
        np.testing.assert_array_equal(value, original[name])


@pytest.mark.parametrize("input_dim, num_classes", [(5, 2), (6, 4)])
def test_checkpoint_header_records_the_whole_network(tmp_path, input_dim, num_classes):
    path = tmp_path / "model.ckpt"
    model = VAEClassifier(NetworkSpec(input_dim=input_dim, num_classes=num_classes), seed=0)
    save_checkpoint(path, model, seed=0, epochs_trained=1, class_labels=list("wxyz"[:num_classes]))
    _, header = load_checkpoint(path)
    assert header["network"] == {
        "input_dim": input_dim,
        "latent_dim": 3,
        "encoder_widths": [16, 32, 64, 32, 16],
        "decoder_widths": [8, 16, 32, 16],
        "classifier_widths": [16, 8],
        "dropout_rate": 0.2,
        "num_classes": num_classes,
    }


def test_float32_checkpoint_saves_loads_and_saves_the_same_bytes(tmp_path):
    assert vae.CHECKPOINT_VERSION == 4
    model = VAEClassifier(NetworkSpec(num_classes=4), seed=14)
    rng = np.random.default_rng(14)
    model.set_state({name: rng.normal(size=v.shape) for name, v in model.get_state().items()})
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(first, model, seed=14, epochs_trained=3, class_labels=list("abcd"))
    loaded, _ = load_checkpoint(first)
    assert loaded.dtype == np.float32
    save_checkpoint(second, loaded, seed=14, epochs_trained=3, class_labels=list("abcd"))
    assert first.read_bytes() == second.read_bytes()
    assert struct.unpack("<I", first.read_bytes()[4:8]) == (4,)


def test_float64_parameters_load_rounded_to_nearest(tmp_path):
    wide = VAEClassifier(NetworkSpec(), seed=15, dtype=np.float64)
    # just above and just below half a float32 unit above 1
    wide.classifier.out_bias[:] = [1 + 2**-24 + 2**-40, 1 + 2**-24 - 2**-40]
    path = tmp_path / "wide.ckpt"
    save_checkpoint(path, wide, seed=15, epochs_trained=1, class_labels=["x", "y"])
    loaded, _ = load_checkpoint(path)
    assert loaded.dtype == np.float32
    assert loaded.classifier.out_bias.tolist() == [1 + 2**-23, 1.0]
    state = loaded.get_state()
    for name, value in wide.get_state().items():
        assert np.array_equal(state[name], value.astype(np.float32)), name


def test_checkpoint_bytes_stable(tmp_path):
    model = binary_model(seed=10)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for path in (a, b):
        save_checkpoint(path, model, seed=10, epochs_trained=1, class_labels=["x", "y"])
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3, 99])
def test_checkpoint_rejects_future_version(tmp_path, version):
    model = binary_model(seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=11, epochs_trained=1, class_labels=["x", "y"])
    raw = bytearray(path.read_bytes())
    raw[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"format version {version} unsupported"):
        load_checkpoint(path)


def _renamed_parameter(header):
    header["param_order"][header["param_order"].index("classifier.out.W")] = "classifier.head.W"


def _dropped_last_parameter(header):
    name = header["param_order"].pop()
    network = VAEClassifier(NetworkSpec.from_dict(header["network"]))
    return 8 * network._params[name].size  # bytes to cut from the block


def _network(field, value):
    def edit(header):
        header["network"][field] = value
    return edit


def _no_network(header):
    del header["network"]


def _no_class_labels(header):
    del header["class_labels"]


def _class_labels_not_strings(header):
    header["class_labels"] = [0, 1, 2, 3]


def _more_class_labels_than_classes(header):
    header["class_labels"] = list("abcde")


def _two_classes_over_a_four_class_block(header):
    header["network"]["num_classes"] = 2
    header["class_labels"] = ["a", "b"]


def _seed(value):
    def edit(header):
        header["seed"] = value
    return edit


def _no_seed(header):
    del header["seed"]


def _rewrite_header(path, edit):
    """Apply ``edit`` to the checkpoint's JSON header; ``edit`` may return a
    number of bytes to cut from the end of the parameter block."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + length])
    cut = edit(header) or 0
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + length : len(raw) - cut])


@pytest.mark.parametrize("edit, message", [
    # the two networks have the same parameter names; a 4-class head has 51 more values
    (_two_classes_over_a_four_class_block,
     "parameter block holds 62392 bytes, the network needs 62248"),
    (_renamed_parameter, "header field 'param_order' differs from the network at entry 37: "
                         "['classifier.head.W'], the network has ['classifier.out.W']"),
    (_dropped_last_parameter, "header field 'param_order' differs from the network at entry 60: "
                              "[], the network has ['classifier.hidden1.norm.running_var']"),
    (_network("dropout_rate", 0.5), "header does not describe a network (it records dropout_rate 0.5"),
    (_network("latent_dim", 4), "header does not describe a network (it records latent_dim 4"),
    (_no_network, "header field 'network' missing"),
    (_no_class_labels, "header field 'class_labels' missing"),
    (_class_labels_not_strings, "header field 'class_labels' is not a list of strings"),
    (_more_class_labels_than_classes,
     "header field 'class_labels' lists 5 labels, the network has 4 classes"),
    (_seed("abc"), "header field 'seed' is not a non-negative integer"),
    (_seed(1.5), "header field 'seed' is not a non-negative integer"),
    (_seed(-1), "header field 'seed' is not a non-negative integer"),
    (_seed(True), "header field 'seed' is not a non-negative integer"),
    (_network("input_dim", 5.9), "header does not describe a network (input_dim must be an integer, got 5.9)"),
    (_network("input_dim", "5"), "header does not describe a network (input_dim must be an integer, got '5')"),
    (_network("input_dim", True), "header does not describe a network (input_dim must be an integer, got True)"),
    (_network("num_classes", 2.7), "header does not describe a network (num_classes must be an integer, got 2.7)"),
], ids=["shape", "unknown_name", "missing_name", "dropout_rate", "latent_dim", "no_network", "no_class_labels",
        "class_labels_not_strings", "more_class_labels_than_classes", "seed_text",
        "seed_fraction", "seed_negative", "seed_bool", "input_dim_fraction", "input_dim_text",
        "input_dim_bool", "num_classes_fraction"])
def test_checkpoint_refuses_a_header_that_does_not_fit_its_network(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    model = VAEClassifier(NetworkSpec(num_classes=4), seed=13)
    save_checkpoint(path, model, seed=13, epochs_trained=1, class_labels=list("abcd"))
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(path)


@pytest.mark.parametrize("seed", ["abc", -1, 1.5, True], ids=["text", "negative", "fraction", "bool"])
def test_checkpoint_writer_refuses_a_seed_the_reader_refuses(tmp_path, seed):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="checkpoint seed must be a non-negative integer"):
        save_checkpoint(path, binary_model(), seed=seed, epochs_trained=1, class_labels=["x", "y"])
    assert not path.exists()


@pytest.mark.parametrize("labels, message", [
    (["x", "x"], "class label 'x' repeats"),
    (["x", "a,b"], "class label 'a,b' holds a comma or a line break"),
    (["x\n", "y"], "class label 'x\\n' holds a comma or a line break"),
], ids=["repeat", "comma", "newline"])
def test_checkpoint_writer_refuses_labels_the_reader_refuses(tmp_path, labels, message):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_checkpoint(path, binary_model(), seed=0, epochs_trained=1, class_labels=labels)
    assert not path.exists()


def test_checkpoint_without_a_seed_loads_with_seed_0(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, binary_model(seed=12), seed=12, epochs_trained=1, class_labels=["x", "y"])
    _rewrite_header(path, _no_seed)
    loaded, header = load_checkpoint(path)
    assert "seed" not in header and loaded.seed == 0


def test_checkpoint_with_fewer_labels_than_classes_is_refused(tmp_path):
    """A confusion CSV names one column per logit, so each class needs a label."""
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="class_labels lists 1 labels, the network has 2 classes"):
        save_checkpoint(path, binary_model(seed=14), seed=14, epochs_trained=1, class_labels=["x"])
    assert not path.exists()
    save_checkpoint(path, binary_model(seed=14), seed=14, epochs_trained=1, class_labels=["x", "y"])
    _rewrite_header(path, lambda header: header.update(class_labels=["x"]))
    with pytest.raises(CheckpointError, match="header field 'class_labels' lists 1 labels, "
                                              "the network has 2 classes"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model = binary_model(seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=12, epochs_trained=1, class_labels=["x", "y"])
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 64])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_a_block_longer_than_the_network(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, binary_model(seed=12), seed=12, epochs_trained=1, class_labels=["x", "y"])
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="parameter block holds 62256 bytes, the network needs 62248"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (_network("num_classes", 10**6), "header field 'class_labels' lists 4 labels, the network has 1000000 classes"),
    (_network("input_dim", 10**6), "input_dim must be 5 or 6, got 1000000"),
], ids=["num_classes", "input_dim"])
def test_checkpoint_header_cannot_ask_for_a_huge_network(tmp_path, edit, message):
    """The whole header is checked before the network is built, so a small file
    cannot make the reader allocate a network of a million classes or inputs."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, VAEClassifier(NetworkSpec(num_classes=4)), seed=0, epochs_trained=1,
                    class_labels=list("abcd"))
    _rewrite_header(path, edit)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
