"""Variational autoencoder with a classifier attached to the bottleneck.

Encoder and decoder are SELU dense stacks, the classifier a LeakyReLU stack
reading the latent code.  Its head is one softmax over ``num_classes`` logits,
for two classes as for more.  Training minimizes the sum of mean-squared
reconstruction error, KL divergence against a standard normal, and
CLASSIFICATION_WEIGHT times the cross-entropy on the labeled samples (rows
labeled -1 are unlabeled).  The weight holds for every epoch of every run: on
the plain sum, reconstruction and KL fall faster than the classifier learns,
and the latent code collapses to chance.  All gradients are analytic,
including the path through the latent sampling (gradients flow through the
mean and log-variance, never through the noise draw).  Checkpoints are
written in format version 3; version 2 also held the biases of the linear
maps that feed a batch normalization, which cancels them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .nn import (
    INFER,
    TRAIN,
    Adam,
    MLPStack,
    NamedVector,
)

PROB_CLIP = 1e-7  # a true-class probability below this is clamped, and its row gets no gradient

CLASSIFICATION_WEIGHT = 20.0  # cross-entropy weight in every training objective

CHECKPOINT_MAGIC = b"PVAE"
# 2 also held the cancelled biases of the linear maps feeding a batch
# normalization; 1 held a single-logit head for two classes
CHECKPOINT_VERSION = 3


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed or from an incompatible format version."""


class DataMismatchError(ValueError):
    """Dataset features or labels do not fit the network specification."""


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture hyperparameters. Widths list hidden layers only; the
    encoder output is 2*latent_dim, the decoder output is input_dim and the
    classifier output is num_classes softmax logits."""

    input_dim: int = 5
    latent_dim: int = 3
    encoder_widths: tuple[int, ...] = (16, 32, 64, 32, 16)
    decoder_widths: tuple[int, ...] = (8, 16, 32, 16)
    classifier_widths: tuple[int, ...] = (16, 8)
    dropout_rate: float = 0.2
    num_classes: int = 2

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1:
            raise ValueError("input_dim and latent_dim must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        for name in ("encoder_widths", "decoder_widths", "classifier_widths"):
            object.__setattr__(self, name, tuple(int(w) for w in getattr(self, name)))

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(payload: dict) -> "NetworkSpec":
        return NetworkSpec(
            input_dim=int(payload["input_dim"]),
            latent_dim=int(payload["latent_dim"]),
            encoder_widths=tuple(payload["encoder_widths"]),
            decoder_widths=tuple(payload["decoder_widths"]),
            classifier_widths=tuple(payload["classifier_widths"]),
            dropout_rate=float(payload["dropout_rate"]),
            num_classes=int(payload["num_classes"]),
        )


def reparameterize(mu: np.ndarray, logvar: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Latent sample mu + exp(logvar/2) * eps."""
    return mu + np.exp(0.5 * logvar) * eps


# The losses are reduced in float64 whatever the network's dtype, so that the
# choice of the best epoch keeps its resolution.


def loss_recon(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared reconstruction error over samples and components."""
    return float(np.mean(np.subtract(x, x_hat, dtype=np.float64) ** 2))


def loss_kl(mu: np.ndarray, logvar: np.ndarray) -> float:
    """KL divergence of the diagonal-Gaussian posterior from a standard normal,
    summed over latent components and averaged over samples."""
    mu, logvar = np.asarray(mu, dtype=np.float64), np.asarray(logvar, dtype=np.float64)
    n = mu.shape[0]
    return float(-0.5 / n * np.sum(1.0 + logvar - mu**2 - np.exp(logvar)))


@dataclass(frozen=True)
class LossValues:
    """Loss components; ``bce`` already carries CLASSIFICATION_WEIGHT."""

    recon: float
    kl: float
    bce: float

    @property
    def total(self) -> float:
        return self.recon + self.kl + self.bce


@dataclass
class Forward:
    mu: np.ndarray
    logvar: np.ndarray
    z: np.ndarray
    x_hat: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    eps: np.ndarray | None
    caches: tuple


def _softmax(t: np.ndarray) -> np.ndarray:
    shifted = t - t.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class VAEClassifier:
    """Encoder/decoder/classifier ensemble with shared bottleneck.

    A single seed controls weight initialization and the training-time noise
    streams (dropout masks, latent draws, shuffling).  All of that noise comes
    from ``self.rng``, and only a TRAIN pass draws from it; tests replace or
    reseed it to fix the noise.

    Every named parameter is a view into one vector of ``dtype``, trainable
    ones first, then the running statistics.  The network trains and infers
    in float32; float64 models serve as the gradient checks' reference.
    Initial weights are drawn in float64 and rounded into the vector.
    Training, the finiteness checks and saved state all use that vector, so a
    layer attribute rebound to a new array (rather than written in place)
    drops out of all three.  Copy a model with get_state/set_state:
    copy.deepcopy would copy each view on its own.
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0, *, dtype=np.float32):
        self.spec = spec
        self.seed = seed
        self.dtype = np.dtype(dtype)
        init_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        self.encoder = MLPStack(
            spec.input_dim, spec.encoder_widths, 2 * spec.latent_dim,
            "selu", spec.dropout_rate, init_rng,
        )
        self.decoder = MLPStack(
            spec.latent_dim, spec.decoder_widths, spec.input_dim,
            "selu", spec.dropout_rate, init_rng,
        )
        self.classifier = MLPStack(
            spec.latent_dim, spec.classifier_widths, spec.num_classes,
            "leaky_relu", spec.dropout_rate, init_rng,
        )
        self.rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        layout = sorted(self.named_params(), key=lambda p: p[2].startswith("running_"))
        self._params = NamedVector.pack(
            {n: getattr(o, o.LEAVES[leaf]) for n, o, leaf in layout}, self.dtype
        )
        trainable = {}
        for name, owner, leaf in layout:
            setattr(owner, owner.LEAVES[leaf], self._params[name])
            if not leaf.startswith("running_"):
                trainable[name] = self._params[name].shape
        self._trainable = NamedVector(self._params.vector, trainable)

    def reseed(self, seed: int) -> None:
        """Restart the training noise stream (used when resuming from a checkpoint)."""
        self.rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))

    # --- parameter bookkeeping ---------------------------------------------

    def named_params(self):
        for stack_name, stack in (
            ("encoder", self.encoder),
            ("decoder", self.decoder),
            ("classifier", self.classifier),
        ):
            for name, owner, leaf in stack.named_params():
                yield f"{stack_name}.{name}", owner, leaf

    def param_names(self) -> list[str]:
        return [name for name, _, _ in self.named_params()]

    def trainable_refs(self) -> NamedVector:
        """The trainable parameters, as views into the model's parameter vector."""
        return self._trainable

    def get_state(self) -> dict[str, np.ndarray]:
        return {name: self._params[name].copy() for name in self.param_names()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        for name in self.param_names():
            if name not in state:
                raise KeyError(f"missing parameter {name!r}")
            view = self._params[name]
            # a float64 value (as a checkpoint stores) rounds to the nearest
            view[...] = np.asarray(state[name], dtype=self.dtype).reshape(view.shape)

    def assert_finite(self) -> None:
        self._params.require_finite("values in parameter")

    # --- forward passes ------------------------------------------------------

    def forward(self, x: np.ndarray, *, mode: str = INFER) -> Forward:
        """TRAIN draws its dropout masks and latent noise from ``self.rng`` and
        moves the running statistics; INFER reads z = mu and draws nothing."""
        x = self._rows(x, self.spec.input_dim, "input features")
        rng = self.rng
        enc_out, enc_caches = self.encoder.forward(x, mode, rng)
        latent = self.spec.latent_dim
        mu, logvar = enc_out[:, :latent], enc_out[:, latent:]
        if mode == TRAIN:
            eps = rng.standard_normal(mu.shape, dtype=self.dtype)
            z = reparameterize(mu, logvar, eps)
        else:
            eps, z = None, mu
        x_hat, dec_caches = self.decoder.forward(z, mode, rng)
        logits, clf_caches = self.classifier.forward(z, mode, rng)
        return Forward(
            mu=mu, logvar=logvar, z=z, x_hat=x_hat, logits=logits, probs=_softmax(logits),
            eps=eps, caches=(enc_caches, dec_caches, clf_caches),
        )

    def _rows(self, a, width: int, what: str) -> np.ndarray:
        """``a`` as a matrix of the model's dtype with ``width`` columns, or
        DataMismatchError."""
        a = np.atleast_2d(np.asarray(a, dtype=self.dtype))
        if a.shape[1] != width:
            raise DataMismatchError(f"expected {width} {what}, got {a.shape[1]}")
        return a

    def predict_proba(self, x) -> np.ndarray:
        return self.forward(x, mode=INFER).probs

    def predict_class(self, x) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    # --- losses and gradients -------------------------------------------------

    def losses(self, x, y, fwd: Forward) -> LossValues:
        x = self._rows(x, self.spec.input_dim, "input features")
        return LossValues(
            recon=loss_recon(x, fwd.x_hat),
            kl=loss_kl(fwd.mu, fwd.logvar),
            bce=CLASSIFICATION_WEIGHT * self._classification_loss(y, fwd),
        )

    def _classification_loss(self, y, fwd: Forward) -> float:
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        mask = y >= 0
        n_labeled = int(mask.sum())
        if n_labeled == 0:
            return 0.0
        # clamped in the model's dtype, as _head_grad compares, then reduced in float64
        p_true = np.clip(fwd.probs[mask, y[mask]], PROB_CLIP, 1.0)
        return float(-np.mean(np.log(p_true, dtype=np.float64)))

    def loss_and_grads(self, x, y):
        """Losses and gradients of one TRAIN pass, the only pass that backpropagates."""
        x = self._rows(x, self.spec.input_dim, "input features")
        fwd = self.forward(x, mode=TRAIN)
        values = self.losses(x, y, fwd)
        grads = self._backward(x, y, fwd)
        return values, grads, fwd

    def _head_grad(self, y, fwd: Forward) -> np.ndarray:
        """d(weighted cross-entropy)/d(logits); a row whose true-class
        probability is clamped gets none."""
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        mask = y >= 0
        n_labeled = int(mask.sum())
        dlogits = np.zeros_like(fwd.logits)
        if n_labeled == 0:
            return dlogits
        rows = np.flatnonzero(mask)
        live = rows[fwd.probs[rows, y[rows]] > PROB_CLIP]
        delta = fwd.probs[live].copy()
        delta[np.arange(live.size), y[live]] -= 1.0
        dlogits[live] = delta * (CLASSIFICATION_WEIGHT / n_labeled)
        return dlogits

    def _backward(self, x, y, fwd: Forward) -> NamedVector:
        n, d = x.shape
        enc_caches, dec_caches, clf_caches = fwd.caches

        dx_hat = (2.0 / (n * d)) * (fwd.x_hat - x)
        dz_dec, dec_grads = self.decoder.backward(dx_hat, dec_caches)
        dz_clf, clf_grads = self.classifier.backward(self._head_grad(y, fwd), clf_caches)
        dz = dz_dec + dz_clf

        dmu = dz.copy()
        dlogvar = dz * fwd.eps * 0.5 * np.exp(0.5 * fwd.logvar)
        dmu += (1.0 / n) * fwd.mu
        dlogvar += (0.5 / n) * (np.exp(fwd.logvar) - 1.0)

        _, enc_grads = self.encoder.backward(np.hstack([dmu, dlogvar]), enc_caches)

        grads = {}
        for stack_name, stack_grads in (
            ("encoder", enc_grads), ("decoder", dec_grads), ("classifier", clf_grads),
        ):
            for leaf, g in stack_grads.items():
                grads[f"{stack_name}.{leaf}"] = g
        # Adam.step refuses a non-finite entry before it writes a parameter
        return NamedVector.pack({name: grads[name] for name in self._trainable})


# --- training ---------------------------------------------------------------


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0


def _labels(y, num_classes: int) -> np.ndarray:
    """``y`` as an int64 vector, or DataMismatchError for a label that is not
    one of the integers -1..num_classes-1 (-1 marks an unlabeled row)."""
    given = np.asarray(y).reshape(-1)
    y = given.astype(np.int64)
    outside = (y != given) | (y < -1) | (y >= num_classes)
    if outside.any():
        bad = given[outside][0]
        raise DataMismatchError(
            f"label {bad} outside -1..{num_classes - 1} (-1 marks an unlabeled row)"
        )
    return y


def _examples(model: VAEClassifier, x, y, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as the model's input matrix and ``y`` as its labels, or
    DataMismatchError when they do not fit the model or each other."""
    x = model._rows(x, model.spec.input_dim, "input features")
    y = _labels(y, model.spec.num_classes)
    if len(x) != len(y):
        raise DataMismatchError(f"{what} has {len(x)} rows of features but {len(y)} labels")
    return x, y


def _score(pred: np.ndarray, y: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Accuracy and k x k confusion matrix (rows true class, columns predicted)
    over the rows labeled in ``y``, as ``_labels`` returns it; with none, the
    accuracy reads 0."""
    labeled = y >= 0
    confusion = np.bincount(k * y[labeled] + pred[labeled], minlength=k * k).reshape(k, k)
    return float(np.trace(confusion) / max(confusion.sum(), 1)), confusion


def evaluate_model(model: VAEClassifier, x, y) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix of ``model`` on the labeled rows of (x, y)."""
    x, y = _examples(model, x, y, "the evaluation set")
    return _score(model.predict_class(x), y, model.spec.num_classes)


def train_model(
    model: VAEClassifier,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
    *,
    epochs: int,
    batch_size: int = 512,
    learning_rate: float = 1e-3,
    patience: int = 20,
) -> TrainHistory:
    """Mini-batch Adam training with optional early stopping on validation loss.

    Uses the model's own noise stream, so a fresh model plus a fixed seed gives
    a bit-for-bit reproducible run.  When a validation set is supplied, the
    parameters giving the best validation loss are restored at the end.
    Training and the choice of that epoch use the one objective of
    ``VAEClassifier.losses``, from a cold start and when fine-tuning alike.
    Features and labels that do not fit the model or each other, and a
    training set of fewer than two rows, are refused with DataMismatchError
    before the first step; a ``batch_size`` below 2 with ValueError.
    """
    if batch_size < 2:
        # a one-row batch normalizes every hidden unit to its beta, so no
        # gradient reaches a hidden weight, a gamma or the encoder
        raise ValueError(f"batch_size must be at least 2, got {batch_size}")
    x_train, y_train = _examples(model, x_train, y_train, "the training set")
    if len(x_train) < 2:
        # batch statistics need two rows, so one row (or none) would give no step
        raise DataMismatchError(
            f"training needs at least 2 rows, the training set has {len(x_train)}"
        )
    if (x_val is None) != (y_val is None):
        raise DataMismatchError("a validation set needs both x_val and y_val")
    if x_val is not None:
        x_val, y_val = _examples(model, x_val, y_val, "the validation set")
    params = model.trainable_refs()
    optimizer = Adam(lr=learning_rate)
    history = TrainHistory()
    best_val = np.inf
    best_state = None
    stale = 0
    n = x_train.shape[0]
    for epoch in range(epochs):
        order = model.rng.permutation(n)
        # a singleton final batch would make batch statistics degenerate
        if n % batch_size == 1:
            order = order[:-1]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            values, grads, _ = model.loss_and_grads(x_train[idx], y_train[idx])
            optimizer.step(params, grads)
            model.assert_finite()
            epoch_loss += values.total
            n_batches += 1
        history.train_loss.append(epoch_loss / n_batches)
        history.epochs_run = epoch + 1
        if x_val is not None and len(x_val):
            fwd = model.forward(x_val, mode=INFER)
            values = model.losses(x_val, y_val, fwd)
            acc, _ = _score(np.argmax(fwd.probs, axis=1), y_val, model.spec.num_classes)
            history.val_loss.append(values.total)
            history.val_accuracy.append(acc)
            if values.total < best_val - 1e-12:
                best_val = values.total
                best_state = model.get_state()
                history.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale > patience:
                    break
    if best_state is not None:
        model.set_state(best_state)
    return history


# --- checkpoint format --------------------------------------------------------

# layout (format version 3): magic, uint32 LE format version, uint64 LE
# header length, UTF-8 JSON header, then all parameters as little-endian
# float64 in the order listed by the header's "param_order".  The classifier
# head holds num_classes softmax logits for every class count.  Only each
# stack's output layer has a bias; format 2 also held one for every linear
# map feeding a batch normalization, which cancels it.  A float32
# model's parameters widen to float64 exactly, so save -> load -> save gives
# the same bytes; float64 values (from an older float64 model) load rounded
# to the nearest float32.


def is_seed(value) -> bool:
    """Whether ``value`` is a usable seed: an int >= 0 that is not a bool.  The
    checkpoint writer and reader and the CLI refuse anything else."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def save_checkpoint(path, model: VAEClassifier, *, seed: int, epochs_trained: int,
                    class_labels: list[str], hyperparameters: dict | None = None) -> None:
    """Write ``model`` in format 3; a ``seed`` that ``is_seed`` refuses is a
    ValueError, raised before the file is opened."""
    if not is_seed(seed):
        raise ValueError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
    state = model.get_state()
    order = model.param_names()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "network": model.spec.to_dict(),
        "seed": seed,
        "epochs_trained": epochs_trained,
        "class_labels": list(class_labels),
        "hyperparameters": dict(hyperparameters or {}),
        "param_order": order,
        "param_shapes": [list(state[name].shape) for name in order],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    block = b"".join(
        np.ascontiguousarray(state[name], dtype="<f8").tobytes() for name in order
    )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(block)


def load_checkpoint(path) -> tuple[VAEClassifier, dict]:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    (header_len,) = struct.unpack("<Q", raw[8:16])
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    try:
        spec = NetworkSpec.from_dict(header["network"])
        listed = list(zip(header["param_order"], header["param_shapes"]))
        labels = header["class_labels"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: header field {exc} missing") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: header does not describe a network ({exc})") from exc
    seed = header.get("seed", 0)
    if not is_seed(seed):
        raise CheckpointError(f"{path}: header field 'seed' is not a non-negative integer")
    model = VAEClassifier(spec, seed=seed)
    expected = {name: view.shape for name, view in model._params.items()}
    offset = 16 + header_len
    state = {}
    for name, shape in listed:
        if name not in expected:
            raise CheckpointError(f"{path}: parameter {name!r} is not in the network")
        if tuple(shape) != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {list(shape)}, "
                f"the network needs {list(expected[name])}"
            )
        end = offset + 8 * math.prod(shape)
        if end > len(raw):
            raise CheckpointError(f"{path}: parameter block truncated at {name!r}")
        state[name] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape)
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after parameters")
    missing = [name for name in expected if name not in state]
    if missing:
        raise CheckpointError(f"{path}: parameter {missing[0]!r} missing")
    # fewer labels than logits is allowed: a one-class dataset trains a 2-class head
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise CheckpointError(f"{path}: header field 'class_labels' is not a list of strings")
    if len(labels) > spec.num_classes:
        raise CheckpointError(
            f"{path}: header field 'class_labels' lists {len(labels)} labels, "
            f"the network has {spec.num_classes} classes"
        )
    model.set_state(state)
    return model, header
