import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

from fd_utils import REL_FLOOR, FixedNoise, make_case, max_relative_error
from photonvae import vae
from photonvae.nn import INFER, TRAIN, Adam, GradientError
from photonvae.vae import (
    CheckpointError,
    DataMismatchError,
    NetworkSpec,
    VAEClassifier,
    evaluate_model,
    load_checkpoint,
    loss_kl,
    loss_recon,
    reparameterize,
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
        NetworkSpec(dropout_rate=1.0)
    with pytest.raises(ValueError):
        NetworkSpec(num_classes=1)
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=0)


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


def test_reparameterize_values():
    mu = np.array([[1.5, -2.0]])
    logvar = np.zeros((1, 2))
    np.testing.assert_array_equal(reparameterize(mu, logvar, np.zeros((1, 2))), mu)
    assert reparameterize(np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))[0, 0] == 1.0


def test_reparameterize_moments():
    rng = np.random.default_rng(5)
    eps = rng.standard_normal((10**5, 1))
    z = reparameterize(np.zeros((10**5, 1)), np.zeros((10**5, 1)), eps)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03


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
    dlogits = model._head_grad(y, fwd)
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
    spec = NetworkSpec(input_dim=5, num_classes=2, dropout_rate=0.0)
    model, x, y = make_case(spec, seed=1)
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


def test_a_float32_training_step_stays_in_float32():
    model = binary_model(seed=0)
    rng = np.random.default_rng(16)
    x = rng.random((64, 5))  # float64 rows, cast by the model
    y = rng.integers(0, 2, 64)
    _, grads, fwd = model.loss_and_grads(x, y)
    arrays = [fwd.mu, fwd.logvar, fwd.z, fwd.x_hat, fwd.logits, fwd.probs, fwd.eps]
    arrays += _arrays(fwd.caches)
    assert len(arrays) > 50  # every block's input, norm, activation and mask caches
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
    spec = NetworkSpec(num_classes=num_classes, dropout_rate=0.0)
    reference, x, y = make_case(spec, seed=5, batch=64)
    model = VAEClassifier(spec, seed=5)
    assert model.dtype == np.float32 and reference.dtype == np.float64
    # the same float32 weights, inputs and noise, so only the arithmetic differs
    state = {name: value.astype(np.float32) for name, value in reference.get_state().items()}
    reference.set_state(state)
    model.set_state(state)
    x = x.astype(np.float32)
    eps = np.random.default_rng(5).standard_normal((64, spec.latent_dim)).astype(np.float32)
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


def test_loss_and_grads_leaves_inputs_unchanged_and_returns_fresh_gradients():
    model, x, y = make_case(NetworkSpec(), seed=3, batch=16)
    x_before, y_before = x.tobytes(), y.tobytes()
    _, first, _ = model.loss_and_grads(x, y)
    first_before = first.vector.tobytes()
    _, second, _ = model.loss_and_grads(x, y)
    assert x.tobytes() == x_before and y.tobytes() == y_before
    assert not np.shares_memory(first.vector, second.vector)
    assert first.vector.tobytes() == first_before


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
    _, base, _ = model.loss_and_grads(x, y)
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
        dx, grads = real_backward(dy, caches)
        return dx, {**grads, "out.b": np.full_like(grads["out.b"], np.nan)}

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


def test_train_model_runs_and_early_stops():
    rng = np.random.default_rng(12)
    x = rng.random((300, 5))
    y = (x[:, 0] > 0.5).astype(int)
    model = binary_model(seed=6)
    history = train_model(model, x, y, x[:50], y[:50], epochs=400, batch_size=64, patience=5)
    assert history.epochs_run < 400
    assert history.best_epoch >= 0
    model.assert_finite()


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


# SHA-256 of a short run's final parameters and loss history: any change to the
# arithmetic or the order of a training step changes it.  Recorded with numpy 2.4
# and OpenBLAS; another BLAS may round the matmuls differently.
PINNED_TRAINING_SHA256 = {
    2: "6b8c27067332424ea0bd5a2ebe90d048b87a5880bee666a56cf5746ff44ad714",
    4: "8c2289df6f2f61b65727f6c52c5d7de1adb5a0322e614c8294f0957db0eecfb3",
}


@pytest.mark.parametrize("num_classes", [2, 4])
def test_training_bytes_are_pinned(num_classes):
    rng = np.random.default_rng(40 + num_classes)
    x = rng.random((300, 5))
    y = rng.integers(0, num_classes, 300)
    x[:, 1] += 0.5 * y
    model = VAEClassifier(NetworkSpec(num_classes=num_classes), seed=num_classes)
    # the high rate makes validation loss turn up, so the best epoch is restored
    history = train_model(
        model, x[:240], y[:240], x[240:], y[240:], epochs=24, batch_size=64,
        patience=2, learning_rate=0.1,
    )
    assert history.best_epoch < history.epochs_run - 1 < 23
    digest = hashlib.sha256()
    state = model.get_state()
    for name in model.param_names():
        digest.update(np.ascontiguousarray(state[name], dtype="<f8").tobytes())
    for series in (history.train_loss, history.val_loss, history.val_accuracy):
        digest.update(np.asarray(series, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_TRAINING_SHA256[num_classes]


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


def test_float32_checkpoint_saves_loads_and_saves_the_same_bytes(tmp_path):
    assert vae.CHECKPOINT_VERSION == 3
    model = VAEClassifier(NetworkSpec(num_classes=4), seed=14)
    rng = np.random.default_rng(14)
    model.set_state({name: rng.normal(size=v.shape) for name, v in model.get_state().items()})
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(first, model, seed=14, epochs_trained=3, class_labels=list("abcd"))
    loaded, _ = load_checkpoint(first)
    assert loaded.dtype == np.float32
    save_checkpoint(second, loaded, seed=14, epochs_trained=3, class_labels=list("abcd"))
    assert first.read_bytes() == second.read_bytes()
    assert struct.unpack("<I", first.read_bytes()[4:8]) == (3,)


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


@pytest.mark.parametrize("version", [1, 2, 99])
def test_checkpoint_rejects_future_version(tmp_path, version):
    model = binary_model(seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=11, epochs_trained=1, class_labels=["x", "y"])
    raw = bytearray(path.read_bytes())
    raw[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"format version {version} unsupported"):
        load_checkpoint(path)


def _four_class_weights_under_two_class_network(header):
    header["network"]["num_classes"] = 2


def _renamed_parameter(header):
    header["param_order"][header["param_order"].index("classifier.out.W")] = "classifier.head.W"


def _dropped_last_parameter(header):
    header["param_order"].pop()
    return 8 * math.prod(header["param_shapes"].pop())  # bytes to cut from the block


def _no_network(header):
    del header["network"]


def _no_class_labels(header):
    del header["class_labels"]


def _class_labels_not_strings(header):
    header["class_labels"] = [0, 1, 2, 3]


def _more_class_labels_than_classes(header):
    header["class_labels"] = list("abcde")


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
    (_four_class_weights_under_two_class_network,
     "parameter 'classifier.out.W' has shape [8, 4], the network needs [8, 2]"),
    (_renamed_parameter, "parameter 'classifier.head.W' is not in the network"),
    (_dropped_last_parameter, "parameter 'classifier.out.b' missing"),
    (_no_network, "header field 'network' missing"),
    (_no_class_labels, "header field 'class_labels' missing"),
    (_class_labels_not_strings, "header field 'class_labels' is not a list of strings"),
    (_more_class_labels_than_classes,
     "header field 'class_labels' lists 5 labels, the network has 4 classes"),
    (_seed("abc"), "header field 'seed' is not a non-negative integer"),
    (_seed(1.5), "header field 'seed' is not a non-negative integer"),
    (_seed(-1), "header field 'seed' is not a non-negative integer"),
    (_seed(True), "header field 'seed' is not a non-negative integer"),
], ids=["shape", "unknown_name", "missing_name", "no_network", "no_class_labels",
        "class_labels_not_strings", "more_class_labels_than_classes", "seed_text",
        "seed_fraction", "seed_negative", "seed_bool"])
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


def test_checkpoint_without_a_seed_loads_with_seed_0(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, binary_model(seed=12), seed=12, epochs_trained=1, class_labels=["x", "y"])
    _rewrite_header(path, _no_seed)
    loaded, header = load_checkpoint(path)
    assert "seed" not in header and loaded.seed == 0


def test_checkpoint_with_fewer_labels_than_classes_loads(tmp_path):
    """A one-class dataset trains a 2-class head, whose checkpoint lists one label."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, binary_model(seed=14), seed=14, epochs_trained=1, class_labels=["x"])
    _, header = load_checkpoint(path)
    assert header["class_labels"] == ["x"]


def test_checkpoint_rejects_truncation(tmp_path):
    model = binary_model(seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=12, epochs_trained=1, class_labels=["x", "y"])
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 64])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
