"""Variational autoencoder with a classifier attached to the bottleneck.

Encoder and decoder are SELU dense stacks, the classifier a LeakyReLU stack
reading the latent code.  Training minimizes the plain sum of mean-squared
reconstruction error, KL divergence against a standard normal, and
cross-entropy on the labeled samples.  All gradients are analytic, including
the path through the latent sampling (gradients flow through the mean and
log-variance, never through the noise draw).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .nn import (
    FROZEN,
    INFER,
    TRAIN,
    Adam,
    MLPStack,
    NamedVector,
)

PROB_CLIP = 1e-7  # predicted probabilities are clamped to [PROB_CLIP, 1 - PROB_CLIP]

CHECKPOINT_MAGIC = b"PVAE"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed or from an incompatible format version."""


class DataMismatchError(ValueError):
    """Dataset features or labels do not fit the network specification."""


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture hyperparameters. Widths list hidden layers only; the
    encoder output is 2*latent_dim and the decoder output is input_dim."""

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

    @property
    def head_dim(self) -> int:
        return 1 if self.num_classes == 2 else self.num_classes

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


def loss_recon(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared reconstruction error over samples and components."""
    return float(np.mean((x - x_hat) ** 2))


def loss_kl(mu: np.ndarray, logvar: np.ndarray) -> float:
    """KL divergence of the diagonal-Gaussian posterior from a standard normal,
    summed over latent components and averaged over samples."""
    n = mu.shape[0]
    return float(-0.5 / n * np.sum(1.0 + logvar - mu**2 - np.exp(logvar)))


def loss_bce(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Binary cross entropy over labeled samples; probabilities are clamped
    before the logarithm."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    p = np.clip(np.asarray(y_hat, dtype=np.float64).reshape(-1), PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass(frozen=True)
class LossValues:
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


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softmax(t: np.ndarray) -> np.ndarray:
    shifted = t - t.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class VAEClassifier:
    """Encoder/decoder/classifier ensemble with shared bottleneck.

    A single seed controls weight initialization and the training-time noise
    streams (dropout masks, latent draws, shuffling).

    Every named parameter is a view into one float64 vector, trainable ones
    first, then the running statistics.  Training, the finiteness checks and
    saved state all use that vector, so a layer attribute rebound to a new
    array (rather than written in place) drops out of all three.  Copy a model
    with get_state/set_state: copy.deepcopy would copy each view on its own.
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
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
            spec.latent_dim, spec.classifier_widths, spec.head_dim,
            "leaky_relu", spec.dropout_rate, init_rng,
        )
        self.rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        layout = sorted(self.named_params(), key=lambda p: p[2].startswith("running_"))
        self._params = NamedVector.pack({n: getattr(o, o.LEAVES[leaf]) for n, o, leaf in layout})
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
            view[...] = np.asarray(state[name], dtype=np.float64).reshape(view.shape)

    def assert_finite(self) -> None:
        self._params.require_finite("values in parameter")

    # --- forward passes ------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        *,
        mode: str = INFER,
        rng: np.random.Generator | None = None,
        eps: np.ndarray | None = None,
        update_running: bool = True,
    ) -> Forward:
        x = self._rows(x, self.spec.input_dim, "input features")
        if mode == TRAIN and rng is None:
            rng = self.rng
        enc_out, enc_caches = self.encoder.forward(x, mode, rng, update_running)
        latent = self.spec.latent_dim
        mu, logvar = enc_out[:, :latent], enc_out[:, latent:]
        if mode == TRAIN and eps is None:
            eps = rng.standard_normal(mu.shape)
        z = reparameterize(mu, logvar, eps) if eps is not None else mu
        x_hat, dec_caches = self.decoder.forward(z, mode, rng, update_running)
        logits, clf_caches = self.classifier.forward(z, mode, rng, update_running)
        probs = _sigmoid(logits) if self.spec.head_dim == 1 else _softmax(logits)
        return Forward(
            mu=mu, logvar=logvar, z=z, x_hat=x_hat, logits=logits, probs=probs,
            eps=eps, caches=(enc_caches, dec_caches, clf_caches),
        )

    @staticmethod
    def _rows(a, width: int, what: str) -> np.ndarray:
        """``a`` as a float64 matrix of ``width`` columns, or DataMismatchError."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        if a.shape[1] != width:
            raise DataMismatchError(f"expected {width} {what}, got {a.shape[1]}")
        return a

    def encode(self, x, *, mode: str = INFER, rng=None):
        x = self._rows(x, self.spec.input_dim, "input features")
        out, _ = self.encoder.forward(x, mode, rng if rng is not None else self.rng)
        latent = self.spec.latent_dim
        return out[:, :latent], out[:, latent:]

    def decode(self, z, *, mode: str = INFER, rng=None):
        z = self._rows(z, self.spec.latent_dim, "latent components")
        out, _ = self.decoder.forward(z, mode, rng if rng is not None else self.rng)
        return out

    def classify(self, z, *, mode: str = INFER, rng=None):
        z = self._rows(z, self.spec.latent_dim, "latent components")
        logits, _ = self.classifier.forward(z, mode, rng if rng is not None else self.rng)
        return _sigmoid(logits) if self.spec.head_dim == 1 else _softmax(logits)

    def predict_proba(self, x) -> np.ndarray:
        return self.forward(x, mode=INFER).probs

    def predict_class(self, x) -> np.ndarray:
        return self._decide(self.predict_proba(x))

    def _decide(self, probs: np.ndarray) -> np.ndarray:
        if self.spec.head_dim == 1:
            return (probs[:, 0] > 0.5).astype(np.int64)
        return np.argmax(probs, axis=1)

    # --- losses and gradients -------------------------------------------------

    def losses(self, x, y, fwd: Forward, weights=(1.0, 1.0, 1.0)) -> LossValues:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        w_recon, w_kl, w_bce = weights
        recon = w_recon * loss_recon(x, fwd.x_hat)
        kl = w_kl * loss_kl(fwd.mu, fwd.logvar)
        bce = w_bce * self._classification_loss(y, fwd)
        return LossValues(recon=recon, kl=kl, bce=bce)

    def _classification_loss(self, y, fwd: Forward) -> float:
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        mask = y >= 0
        n_labeled = int(mask.sum())
        if n_labeled == 0:
            return 0.0
        if self.spec.head_dim == 1:
            return loss_bce(y[mask], fwd.probs[mask, 0])
        p_true = np.clip(fwd.probs[mask, y[mask]], PROB_CLIP, 1.0)
        return float(-np.mean(np.log(p_true)))

    def loss_and_grads(self, x, y, *, mode: str, rng=None, eps=None,
                       update_running: bool = True, weights=(1.0, 1.0, 1.0)):
        fwd = self.forward(x, mode=mode, rng=rng, eps=eps, update_running=update_running)
        values = self.losses(x, y, fwd, weights)
        grads = self._backward(np.atleast_2d(np.asarray(x, dtype=np.float64)), y, fwd, weights)
        return values, grads, fwd

    def loss_value(self, x, y, *, mode: str, rng=None, eps=None,
                   update_running: bool = True, weights=(1.0, 1.0, 1.0)) -> float:
        fwd = self.forward(x, mode=mode, rng=rng, eps=eps, update_running=update_running)
        return self.losses(x, y, fwd, weights).total

    def _head_grad(self, y, fwd: Forward, w_bce: float) -> np.ndarray:
        """d(bce)/d(logits) with the probability clamp honored."""
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        mask = y >= 0
        n_labeled = int(mask.sum())
        dlogits = np.zeros_like(fwd.logits)
        if n_labeled == 0 or w_bce == 0.0:
            return dlogits
        if self.spec.head_dim == 1:
            p = fwd.probs[:, 0]
            live = mask & (p > PROB_CLIP) & (p < 1.0 - PROB_CLIP)
            dlogits[live, 0] = (p[live] - y[live]) * (w_bce / n_labeled)
        else:
            rows = np.flatnonzero(mask)
            p_true = fwd.probs[rows, y[rows]]
            live = rows[p_true > PROB_CLIP]
            delta = fwd.probs[live].copy()
            delta[np.arange(live.size), y[live]] -= 1.0
            dlogits[live] = delta * (w_bce / n_labeled)
        return dlogits

    def _backward(self, x, y, fwd: Forward, weights) -> NamedVector:
        w_recon, w_kl, w_bce = weights
        n, d = x.shape
        enc_caches, dec_caches, clf_caches = fwd.caches

        dx_hat = (2.0 * w_recon / (n * d)) * (fwd.x_hat - x)
        dz_dec, dec_grads = self.decoder.backward(dx_hat, dec_caches)
        dz_clf, clf_grads = self.classifier.backward(self._head_grad(y, fwd, w_bce), clf_caches)
        dz = dz_dec + dz_clf

        dmu = dz.copy()
        if fwd.eps is not None:
            dlogvar = dz * fwd.eps * 0.5 * np.exp(0.5 * fwd.logvar)
        else:
            dlogvar = np.zeros_like(fwd.logvar)
        dmu += (w_kl / n) * fwd.mu
        dlogvar += (w_kl / (2.0 * n)) * (np.exp(fwd.logvar) - 1.0)

        _, enc_grads = self.encoder.backward(np.hstack([dmu, dlogvar]), enc_caches)

        grads = {}
        for stack_name, stack_grads in (
            ("encoder", enc_grads), ("decoder", dec_grads), ("classifier", clf_grads),
        ):
            for leaf, g in stack_grads.items():
                grads[f"{stack_name}.{leaf}"] = g
        flat = NamedVector.pack({name: grads[name] for name in self._trainable})
        flat.require_finite("gradient for parameter")
        return flat


# --- training ---------------------------------------------------------------


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0


def evaluate_model(model: VAEClassifier, x, y) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix (rows true class, columns predicted)."""
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    pred = model.predict_class(x)
    k = model.spec.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    return float(np.trace(confusion) / max(len(y), 1)), confusion


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
    weights=(1.0, 1.0, 1.0),
    warmup_epochs: int = 0,
    warmup_bce_weight: float = 20.0,
) -> TrainHistory:
    """Mini-batch Adam training with optional early stopping on validation loss.

    Uses the model's own noise stream, so a fresh model plus a fixed seed gives
    a bit-for-bit reproducible run.  When a validation set is supplied, the
    parameters giving the best validation loss are restored at the end.

    From a cold start the plain loss sum settles into a collapsed latent space
    (the KL pull wins before the classifier produces usable gradients), so the
    first ``warmup_epochs`` epochs scale the classification term up by
    ``warmup_bce_weight``; all remaining epochs, the validation criterion and
    the early-stopping window use the unmodified objective.

    Fine-tuning from trained weights collapses the same way: the
    reconstruction and KL terms fall faster than the classification term
    rises, so the classifier drifts to chance while the plain validation sum
    keeps improving.  Fine-tuning callers therefore pass the warmup's
    classification weight in ``weights``, which then also decides the restored
    best epoch.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64).reshape(-1)
    params = model.trainable_refs()
    optimizer = Adam(lr=learning_rate)
    history = TrainHistory()
    best_val = np.inf
    best_state = None
    stale = 0
    n = x_train.shape[0]
    for epoch in range(epochs):
        if epoch < warmup_epochs:
            epoch_weights = (weights[0], weights[1], weights[2] * warmup_bce_weight)
        else:
            epoch_weights = weights
        order = model.rng.permutation(n)
        # a singleton final batch would make batch statistics degenerate
        if n % batch_size == 1:
            order = order[:-1]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            values, grads, _ = model.loss_and_grads(
                x_train[idx], y_train[idx], mode=TRAIN, weights=epoch_weights
            )
            optimizer.step(params, grads)
            model.assert_finite()
            epoch_loss += values.total
            n_batches += 1
        history.train_loss.append(epoch_loss / max(n_batches, 1))
        history.epochs_run = epoch + 1
        if x_val is not None and len(x_val):
            fwd = model.forward(x_val, mode=INFER)
            values = model.losses(x_val, y_val, fwd, weights)
            # the same count over the same length as evaluate_model's accuracy
            acc = float(np.mean(model._decide(fwd.probs) == np.reshape(y_val, -1)))
            history.val_loss.append(values.total)
            history.val_accuracy.append(acc)
            if epoch < warmup_epochs:
                continue
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

# layout: magic, uint32 LE format version, uint64 LE header length,
# UTF-8 JSON header, then all parameters as little-endian float64 in
# the order listed by the header's "param_order".


def save_checkpoint(path, model: VAEClassifier, *, seed: int, epochs_trained: int,
                    class_labels: list[str], hyperparameters: dict | None = None) -> None:
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
    spec = NetworkSpec.from_dict(header["network"])
    model = VAEClassifier(spec, seed=header.get("seed", 0))
    offset = 16 + header_len
    state = {}
    for name, shape in zip(header["param_order"], header["param_shapes"]):
        size = int(np.prod(shape)) if shape else 1
        end = offset + 8 * size
        if end > len(raw):
            raise CheckpointError(f"{path}: parameter block truncated at {name!r}")
        state[name] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape)
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after parameters")
    model.set_state(state)
    return model, header
