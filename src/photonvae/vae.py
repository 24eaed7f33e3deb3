"""Variational autoencoder with a classifier attached to the bottleneck.

Encoder and decoder are SELU dense stacks, the classifier a LeakyReLU stack
reading the latent code.  Their widths, the latent size and the dropout rate
are the one constant ``SHAPE``; ``NetworkSpec`` holds only what the data
decide, the input width and the number of classes.  The classifier's head is
one softmax over ``num_classes`` logits, for two classes as for more.
Training minimizes the sum of mean-squared reconstruction error, KL
divergence against a standard normal, and CLASSIFICATION_WEIGHT times the
cross-entropy on the labeled samples (rows labeled -1 are unlabeled).  The
weight holds for every epoch of every run: on the plain sum, reconstruction
and KL fall faster than the classifier learns, and the latent code collapses
to chance.  All gradients are analytic, including the path through the
latent sampling (gradients flow through the mean and log-variance, never
through the noise draw).  Checkpoints are written in format version 4: a JSON
header, whose ``param_order`` names the entries of the model's parameter
vector, then that vector as one block.

Predictions (``predict_proba``, ``predict_class``, ``latent_means`` and so
``evaluate_model``) run the encoder, and the classifier where probabilities
are read, over blocks of ``INFER_BLOCK`` rows; the last block takes the
remainder, so it holds up to 2 * ``INFER_BLOCK`` - 1 rows.  They build no
``Forward`` and never run the decoder, so their memory is one block's
activations whatever the row count.  Folding the remainder into the last
block is what keeps their bytes those of one ``forward`` pass over all rows:
a short tail block can change a row's last bits (see ``INFER_BLOCK``).
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn import (
    INFER,
    TRAIN,
    Adam,
    BatchNorm,
    MLPStack,
    NamedVector,
)
from .sampling import class_label_fault

PROB_CLIP = 1e-7  # a true-class probability below this is clamped, and its row gets no gradient

CLASSIFICATION_WEIGHT = 20.0  # cross-entropy weight in every training objective
PATIENCE = 20  # training stops after more than this many epochs without a better validation loss

CHECKPOINT_MAGIC = b"PVAE"
# 3 listed each parameter's shape, in another order; 2 also held the cancelled
# biases of maps feeding a batch normalization; 1 a single-logit 2-class head
CHECKPOINT_VERSION = 4


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed or from an incompatible format version."""


class DataMismatchError(ValueError):
    """Dataset features or labels do not fit the network specification."""


# The network's shape and dropout rate, under the keys of a checkpoint
# header's "network" field and with its lists, so that a parsed header compares
# equal.  Widths list hidden layers only: the encoder's output is the mean and
# log-variance (2 * latent_dim), the decoder's the input width, and the
# classifier's one softmax logit per class.
SHAPE = {
    "latent_dim": 3,
    "encoder_widths": [16, 32, 64, 32, 16],
    "decoder_widths": [8, 16, 32, 16],
    "classifier_widths": [16, 8],
    "dropout_rate": 0.2,
}


@dataclass(frozen=True)
class NetworkSpec:
    """What the data decide about the network: ``input_dim`` (5 click fractions,
    or 6 with ``nbar_obs``: the layouts ``model_inputs`` builds) and
    ``num_classes``.  Its widths, latent size and dropout rate are ``SHAPE``."""

    input_dim: int = 5
    num_classes: int = 2

    def __post_init__(self):
        for name in ("input_dim", "num_classes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.input_dim not in (5, 6):
            raise ValueError(f"input_dim must be 5 or 6, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")

    def to_dict(self) -> dict:
        """A checkpoint header's "network" field: both fields and ``SHAPE``."""
        return {"input_dim": self.input_dim, "num_classes": self.num_classes, **SHAPE}

    @staticmethod
    def from_dict(payload: dict) -> "NetworkSpec":
        """The spec of a "network" field; a field that records another shape
        or dropout rate than ``SHAPE`` is a ValueError."""
        for key, value in SHAPE.items():
            if payload[key] != value:
                raise ValueError(f"it records {key} {payload[key]!r}, this network has {value!r}")
        return NetworkSpec(input_dim=payload["input_dim"], num_classes=payload["num_classes"])


# The losses are reduced in float64 whatever the network's dtype, so that the
# choice of the best epoch keeps its resolution.  np.add.reduce is what np.sum,
# np.mean and ndarray.sum call, without their Python wrappers: the same bits.


def loss_recon(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared reconstruction error over samples and components."""
    diff = np.subtract(x, x_hat, dtype=np.float64)
    diff *= diff
    return float(np.add.reduce(diff, axis=None) / diff.size)


def loss_kl(mu: np.ndarray, logvar: np.ndarray) -> float:
    """KL divergence of the diagonal-Gaussian posterior from a standard normal,
    summed over latent components and averaged over samples."""
    mu, logvar = np.asarray(mu, dtype=np.float64), np.asarray(logvar, dtype=np.float64)
    n = mu.shape[0]
    return float(-0.5 / n * np.add.reduce(1.0 + logvar - mu**2 - np.exp(logvar), axis=None))


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
    """What one pass computed; ``eps`` and ``std`` (exp(logvar/2), kept for the
    backward pass) are None in INFER.  ``caches`` holds the three stacks'
    cache lists, which ``loss_and_grads``'s backward pass empties."""

    mu: np.ndarray
    logvar: np.ndarray
    z: np.ndarray
    x_hat: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    eps: np.ndarray | None
    std: np.ndarray | None
    caches: tuple


# Rows per block of a prediction.  With OpenBLAS a row's bits can depend on
# how many rows share its sgemm call: a row computed alone, or in a short tail
# block, can differ in its last bits from the same row in one pass over every
# row.  Blocks of INFER_BLOCK rows with the remainder folded into the last one
# gave the bits of one pass at every row count tried, from 0 to 5,003 rows.
INFER_BLOCK = 512


def _blocks(n: int):
    """Slices that cover rows 0..n-1 in blocks of INFER_BLOCK rows, the last
    one holding the remainder too; one (empty) slice when n is 0."""
    stops = [*range(INFER_BLOCK, n - INFER_BLOCK + 1, INFER_BLOCK), n]
    return [slice(start, stop) for start, stop in zip([0, *stops[:-1]], stops)]


def _softmax(t: np.ndarray) -> np.ndarray:
    # a maximum is exact in any order, so the row maxima are folded over the
    # few columns, several times faster than a reduction along each short row
    shifted = t - functools.reduce(np.maximum, t.T)[:, None]
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def _labelled(y, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pass over a batch's labels that the cross-entropy and its
    gradient share: the labelled rows of ``y`` (-1 marks an unlabeled row),
    their classes, and their true-class probabilities in ``probs``."""
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    rows = np.flatnonzero(y >= 0)
    classes = y[rows]
    return rows, classes, probs[rows, classes]


def _cross_entropy(labelled) -> float:
    """Mean cross-entropy over the labelled rows, 0 with none.  The true-class
    probability is clamped below at PROB_CLIP in the model's dtype, as
    ``_dlogits`` compares (a softmax output never exceeds 1), then the log and
    the mean are taken in float64."""
    p_true = labelled[2]
    if p_true.size == 0:
        return 0.0
    logs = np.log(np.maximum(p_true, PROB_CLIP), dtype=np.float64)
    return float(-(np.add.reduce(logs) / logs.size))


def _dlogits(labelled, probs: np.ndarray) -> np.ndarray:
    """d(weighted cross-entropy)/d(logits): (probs - one-hot) * weight / labelled
    rows; a row unlabelled, or whose true-class probability is clamped, gets none."""
    rows, classes, p_true = labelled
    if rows.size == 0:
        return np.zeros_like(probs)
    live = p_true > PROB_CLIP
    kept = rows[live]
    dlogits = probs.copy()
    dlogits[kept, classes[live]] -= 1.0
    dlogits *= CLASSIFICATION_WEIGHT / rows.size
    if kept.size < len(probs):
        dead = np.ones(len(probs), dtype=bool)
        dead[kept] = False
        dlogits[dead] = 0.0
    return dlogits


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

    What a TRAIN pass produces per parameter lives in a second vector, laid
    out like the first and allocated once: the gradient of each trainable
    parameter, then the batch statistic behind each running one.  Each
    layer's ``RESULTS`` arrays are views into it.  ``loss_and_grads`` returns
    its gradient section, which the next ``loss_and_grads`` overwrites.
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0, *, dtype=np.float32):
        self.spec = spec
        self.seed = seed
        self.dtype = np.dtype(dtype)
        init_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        latent, dropout = SHAPE["latent_dim"], SHAPE["dropout_rate"]
        self.encoder = MLPStack(
            spec.input_dim, SHAPE["encoder_widths"], 2 * latent, "selu", dropout, init_rng,
        )
        self.decoder = MLPStack(
            latent, SHAPE["decoder_widths"], spec.input_dim, "selu", dropout, init_rng,
        )
        self.classifier = MLPStack(
            latent, SHAPE["classifier_widths"], spec.num_classes, "leaky_relu", dropout, init_rng,
        )
        self.rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        layout = sorted(self.named_params(), key=lambda p: p[2].startswith("running_"))
        self._params = NamedVector.pack(
            {n: getattr(o, o.LEAVES[leaf]) for n, o, leaf in layout}, self.dtype
        )
        results = NamedVector(np.zeros_like(self._params.vector),
                              {name: view.shape for name, view in self._params.items()})
        trainable = {}
        for name, owner, leaf in layout:
            setattr(owner, owner.LEAVES[leaf], self._params[name])
            setattr(owner, owner.RESULTS[leaf], results[name])
            if not leaf.startswith("running_"):
                trainable[name] = self._params[name].shape
        self._trainable = NamedVector(self._params.vector, trainable)
        self._grads = NamedVector(results.vector, trainable)
        n_trainable = self._trainable.vector.size
        self._running = self._params.vector[n_trainable:]
        self._batch_stats = results.vector[n_trainable:]

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
        for name, view in self._params.items():  # a missing name is a KeyError
            # a float64 value rounds to the nearest value of the model's dtype
            view[...] = np.asarray(state[name], dtype=self.dtype).reshape(view.shape)

    def assert_finite(self) -> None:
        self._params.require_finite("values in parameter")

    # --- forward passes ------------------------------------------------------

    def forward(self, x: np.ndarray, *, mode: str = INFER) -> Forward:
        """TRAIN draws its dropout masks and latent noise from ``self.rng`` and
        moves the running statistics once, after every BatchNorm has written
        its batch statistics (no layer reads a running statistic in TRAIN);
        INFER reads z = mu and draws nothing."""
        return self._forward(self._rows(x), mode)

    def _forward(self, x: np.ndarray, mode: str) -> Forward:
        """``forward`` of an ``x`` that ``_rows`` has already converted."""
        rng = self.rng
        enc_out, enc_caches = self.encoder.forward(x, mode, rng)
        latent = SHAPE["latent_dim"]
        mu, logvar = enc_out[:, :latent], enc_out[:, latent:]
        if mode == TRAIN:
            eps = rng.standard_normal(mu.shape, dtype=self.dtype)
            std = np.exp(0.5 * logvar)
            z = mu + std * eps  # reparameterize, keeping std for the backward pass
        else:
            eps = std = None
            z = mu
        x_hat, dec_caches = self.decoder.forward(z, mode, rng)
        logits, clf_caches = self.classifier.forward(z, mode, rng)
        if mode == TRAIN:
            momentum = BatchNorm.MOMENTUM
            self._running *= momentum
            self._running += (1.0 - momentum) * self._batch_stats
        return Forward(
            mu=mu, logvar=logvar, z=z, x_hat=x_hat, logits=logits, probs=_softmax(logits),
            eps=eps, std=std, caches=(enc_caches, dec_caches, clf_caches),
        )

    def _rows(self, a) -> np.ndarray:
        """``a`` as a matrix of the model's dtype with one column per input
        feature, or DataMismatchError."""
        a = np.atleast_2d(np.asarray(a, dtype=self.dtype))
        width = self.spec.input_dim
        if a.shape[1] != width:
            raise DataMismatchError(f"expected {width} input features, got {a.shape[1]}")
        return a

    def latent_means(self, x) -> np.ndarray:
        """The encoder's mean of each row of ``x``: ``forward(x).mu``, byte for
        byte, computed in blocks (see ``_predict``)."""
        return self._predict(x, SHAPE["latent_dim"], lambda mu: mu)

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities of each row of ``x``: ``forward(x).probs``, byte
        for byte, computed in blocks (see ``_predict``)."""
        return self._predict(x, self.spec.num_classes,
                             lambda mu: _softmax(self.classifier.forward(mu, INFER, None)[0]))

    def predict_class(self, x) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    def _predict(self, x, width: int, head) -> np.ndarray:
        """``head`` of the latent means of ``x``, ``width`` columns per row,
        over the blocks of ``_blocks``; no block's activations outlive it."""
        x = self._rows(x)
        out = np.empty((len(x), width), dtype=self.dtype)
        latent = SHAPE["latent_dim"]
        for rows in _blocks(len(x)):
            out[rows] = head(self.encoder.forward(x[rows], INFER, None)[0][:, :latent])
        return out

    # --- losses and gradients -------------------------------------------------

    def losses(self, x, y, fwd: Forward) -> LossValues:
        x = self._rows(x)
        return self._losses(x, _labelled(y, fwd.probs), fwd)

    def _losses(self, x: np.ndarray, labelled, fwd: Forward) -> LossValues:
        return LossValues(
            recon=loss_recon(x, fwd.x_hat),
            kl=loss_kl(fwd.mu, fwd.logvar),
            bce=CLASSIFICATION_WEIGHT * _cross_entropy(labelled),
        )

    def loss_and_grads(self, x, y):
        """Losses, gradients and forward values of one TRAIN pass, the only
        pass that backpropagates.  The gradients are the model's own gradient
        vector, a ``NamedVector`` in the layout of ``trainable_refs``: the
        next ``loss_and_grads`` overwrites them, so copy what must outlive it.
        ``x`` and ``y`` are converted once, and the labels read once, for the
        forward pass, the losses and the backward pass together."""
        x = self._rows(x)
        fwd = self._forward(x, TRAIN)
        labelled = _labelled(y, fwd.probs)
        values = self._losses(x, labelled, fwd)
        grads = self._backward(x, labelled, fwd)
        return values, grads, fwd

    def _backward(self, x: np.ndarray, labelled, fwd: Forward) -> NamedVector:
        """Write every layer's gradients into the gradient vector and return it."""
        n, d = x.shape
        latent = SHAPE["latent_dim"]
        enc_caches, dec_caches, clf_caches = fwd.caches

        dx_hat = fwd.x_hat - x
        dx_hat *= 2.0 / (n * d)
        dz = self.decoder.backward(dx_hat, dec_caches)
        dz += self.classifier.backward(_dlogits(labelled, fwd.probs), clf_caches)

        # the encoder's output gradient, d/dmu beside d/dlogvar: through
        # z = mu + std * eps, plus the KL term's own
        dcode = np.empty((n, 2 * latent), dtype=dz.dtype)
        dmu, dlogvar = dcode[:, :latent], dcode[:, latent:]
        np.multiply(fwd.mu, 1.0 / n, out=dmu)
        dmu += dz
        np.multiply(dz, fwd.eps, out=dlogvar)
        dlogvar *= 0.5
        dlogvar *= fwd.std
        kl = np.exp(fwd.logvar)
        kl -= 1.0
        kl *= 0.5 / n
        dlogvar += kl

        self.encoder.backward(dcode, enc_caches)
        # Adam.step refuses a non-finite entry before it writes a parameter
        return self._grads


# --- training ---------------------------------------------------------------

# glibc's mallopt parameter for the free space at the top of the heap beyond
# which free() returns memory to the system, and the value training sets
_M_TRIM_THRESHOLD = -1
_HEAP_TRIM_BYTES = 64 << 20


def _keep_freed_heap() -> None:
    """Let glibc keep up to 64 MB of freed heap rather than return it.

    A training step allocates and frees a few MB of temporaries.  Under
    glibc's own threshold, a few hundred KB once numpy has freed its first
    large array, the heap shrinks and grows again at nearly every step, and
    every page it grows by faults in anew.  The setting holds for the whole
    process, as the environment variable MALLOC_TRIM_THRESHOLD_ would; other
    C libraries keep their own policy."""
    if sys.platform == "linux":
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES)


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
    x = model._rows(x)
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


def _validate(model: VAEClassifier, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Total loss and accuracy of one INFER pass over a validation set that
    ``_examples`` has converted; its Forward ends with the call.  It stays one
    pass, not blocks: the loss needs the decoder's reconstruction, and summing
    float64 losses block by block would change the bits of ``val_loss``, by
    which the best epoch is chosen."""
    fwd = model.forward(x, mode=INFER)
    acc, _ = _score(np.argmax(fwd.probs, axis=1), y, model.spec.num_classes)
    return model.losses(x, y, fwd).total, acc


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
) -> TrainHistory:
    """Mini-batch Adam training with optional early stopping on validation loss.

    Uses the model's own noise stream, so a fresh model plus a fixed seed gives
    a bit-for-bit reproducible run.  When a validation set is supplied, the
    parameters giving the best validation loss are restored at the end.
    Training and the choice of that epoch use the one objective of
    ``VAEClassifier.losses``, from a cold start and when fine-tuning alike.
    The best epoch is kept as one copy of the model's parameter vector,
    running statistics included, and restored with one write.
    Features and labels that do not fit the model or each other, and a
    training set of fewer than two rows, are refused with DataMismatchError
    before the first step; a ``batch_size`` below 2, or a ``learning_rate``
    that is not a finite number > 0, with ValueError.  On Linux, training
    first raises glibc's heap trim threshold for the process
    (``_keep_freed_heap``).  No Forward outlives its step: a step's Forward,
    whose layer caches were freed by the backward pass, is dropped before the
    optimizer runs, and a validation pass's before the next epoch trains.
    """
    if batch_size < 2:
        # a one-row batch normalizes every hidden unit to its beta, so no
        # gradient reaches a hidden weight, a gamma or the encoder
        raise ValueError(f"batch_size must be at least 2, got {batch_size}")
    if not 0.0 < learning_rate < math.inf:
        raise ValueError(f"learning_rate must be a finite number > 0, got {learning_rate}")
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
    _keep_freed_heap()
    params = model.trainable_refs()
    optimizer = Adam(lr=learning_rate)
    history = TrainHistory()
    best_val = np.inf
    best_params = None
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
            # the step's Forward is dropped here, before the optimizer runs
            values, grads = model.loss_and_grads(x_train[idx], y_train[idx])[:2]
            optimizer.step(params, grads)
            model.assert_finite()
            epoch_loss += values.total
            n_batches += 1
        history.train_loss.append(epoch_loss / n_batches)
        history.epochs_run = epoch + 1
        if x_val is not None and len(x_val):
            val_loss, acc = _validate(model, x_val, y_val)
            history.val_loss.append(val_loss)
            history.val_accuracy.append(acc)
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_params = model._params.vector.copy()
                history.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale > PATIENCE:
                    break
    if best_params is not None:
        model._params.vector[...] = best_params
    return history


# --- checkpoint format --------------------------------------------------------

# layout (format version 4): magic, uint32 LE format version, uint64 LE
# header length, UTF-8 JSON header, then the model's parameter vector as
# little-endian float64: the trainable parameters, then the running
# statistics, in the order of the header's "param_order".  "network" fixes
# every shape, so the header lists none.  A float32 model's parameters widen
# to float64 exactly, so save -> load -> save gives the same bytes; float64
# values (from a float64 model) load rounded to the nearest float32.


def is_seed(value) -> bool:
    """Whether ``value`` is a usable seed: an int >= 0 that is not a bool.  The
    checkpoint writer and reader and the CLI refuse anything else."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def save_checkpoint(path, model: VAEClassifier, *, seed: int, epochs_trained: int,
                    class_labels: list[str], hyperparameters: dict | None = None) -> None:
    """Write ``model`` in format 4; a ``seed`` that ``is_seed`` refuses, or
    class labels that ``class_label_fault`` refuses or that do not name one
    class each, is a ValueError, raised before the file is opened."""
    if not is_seed(seed):
        raise ValueError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
    fault = class_label_fault(list(class_labels))
    if fault:
        raise ValueError(fault)
    if len(class_labels) != model.spec.num_classes:  # a confusion CSV names every logit's column
        raise ValueError(f"class_labels lists {len(class_labels)} labels, "
                         f"the network has {model.spec.num_classes} classes")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "network": model.spec.to_dict(),
        "seed": seed,
        "epochs_trained": epochs_trained,
        "class_labels": list(class_labels),
        "hyperparameters": dict(hyperparameters or {}),
        "param_order": list(model._params),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(model._params.vector.astype("<f8"))


def load_checkpoint(path) -> tuple[VAEClassifier, dict]:
    """The model and header of a format-4 checkpoint, or CheckpointError; the
    whole header is checked before the network it names is built."""
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
        order = list(header["param_order"])
        labels = header["class_labels"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: header field {exc} missing") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: header does not describe a network ({exc})") from exc
    seed = header.get("seed", 0)
    if not is_seed(seed):
        raise CheckpointError(f"{path}: header field 'seed' is not a non-negative integer")
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise CheckpointError(f"{path}: header field 'class_labels' is not a list of strings")
    fault = class_label_fault(labels)
    if fault:
        raise CheckpointError(f"{path}: header field 'class_labels': {fault}")
    if len(labels) != spec.num_classes:
        raise CheckpointError(
            f"{path}: header field 'class_labels' lists {len(labels)} labels, "
            f"the network has {spec.num_classes} classes"
        )
    model = VAEClassifier(spec, seed=seed)
    names = list(model._params)
    if order != names:
        i = next(i for i in range(len(names) + 1) if order[i:i + 1] != names[i:i + 1])
        raise CheckpointError(f"{path}: header field 'param_order' differs from the network at "
                              f"entry {i}: {order[i:i + 1]}, the network has {names[i:i + 1]}")
    block, need = memoryview(raw)[16 + header_len:], 8 * model._params.vector.size
    if len(block) != need:
        raise CheckpointError(f"{path}: parameter block holds {len(block)} bytes, "
                              f"the network needs {need}")
    model._params.vector[...] = np.frombuffer(block, dtype="<f8")
    return model, header
