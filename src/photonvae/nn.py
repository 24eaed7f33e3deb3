"""Dense-network building blocks with hand-written backpropagation.

Everything runs in float64.  Each layer's ``forward`` returns the output plus
an opaque cache consumed by ``backward``; a forward/backward pair must use the
same mode.  Modes:

* ``"train"``  — batch-statistic normalization, dropout active, gradients flow
  through the batch statistics.
* ``"infer"``  — running-statistic normalization, dropout off.
* ``"frozen"`` — like ``"infer"`` but intended for gradient checking: the
  normalization statistics are treated as constants in ``backward``.

Layers list their parameter attributes by checkpoint leaf name in ``LEAVES``
and write them only in place: a model may make them views into one vector
(``NamedVector``), and an attribute rebound to a new array leaves that vector.
"""

from __future__ import annotations

import math

import numpy as np

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805
LEAKY_SLOPE = 0.01

TRAIN, INFER, FROZEN = "train", "infer", "frozen"


class GradientError(RuntimeError):
    """Raised when a gradient turns non-finite during training."""


# Branches are selected by arithmetic, which is cheaper than np.where; the
# exponent's argument is clamped at 0 so the discarded branch cannot overflow.


def selu(x: np.ndarray) -> np.ndarray:
    return SELU_SCALE * (np.maximum(x, 0.0) + SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))


def selu_grad(x: np.ndarray) -> np.ndarray:
    pos = x > 0
    return SELU_SCALE * (pos + ~pos * (SELU_ALPHA * np.exp(np.minimum(x, 0.0))))


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, LEAKY_SLOPE * x)


def leaky_relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE


_ACTIVATIONS = {"selu": (selu, selu_grad), "leaky_relu": (leaky_relu, leaky_relu_grad)}


class NamedVector(dict):
    """Name -> view into the leading entries of ``self.vector``, back to back in
    insertion order, so one vector operation reaches every named array."""

    def __init__(self, vector: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self[name] = vector[start:stop].reshape(shape)
            start = stop
        self.vector = vector[:start]

    @classmethod
    def pack(cls, arrays: dict[str, np.ndarray]) -> "NamedVector":
        """Copy ``arrays``, in order, into a new float64 vector."""
        vector = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        return cls(vector, {name: np.shape(a) for name, a in arrays.items()})

    def require_finite(self, what: str) -> None:
        """Raise ``GradientError`` naming the first array that holds a non-finite entry."""
        if np.isfinite(self.vector).all():
            return
        for name, view in self.items():
            if not np.isfinite(view).all():
                raise GradientError(f"non-finite {what} {name!r}")


class Dense:
    """Affine map with fan-in-scaled uniform weight init and zero biases."""

    LEAVES = {"W": "weight", "b": "bias"}

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)

    def forward(self, x: np.ndarray):
        return x @ self.weight + self.bias, x

    def backward(self, dy: np.ndarray, cache):
        x = cache
        dx = dy @ self.weight.T
        return dx, {"W": x.T @ dy, "b": dy.sum(axis=0)}


class BatchNorm:
    """Per-feature normalization with momentum-0.9 running statistics."""

    EPS = 1e-5
    LEAVES = {leaf: leaf for leaf in ("gamma", "beta", "running_mean", "running_var")}

    def __init__(self, dim: int, momentum: float = 0.9):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum

    def forward(self, x: np.ndarray, mode: str, update_running: bool = True):
        if mode == TRAIN:
            # the operations of x.mean(0) and x.var(0), centring x only once
            n = x.shape[0]
            mean = x.sum(axis=0) / n
            centred = x - mean
            var = (centred * centred).sum(axis=0) / n
            if update_running:
                m = self.momentum
                self.running_mean[...] = m * self.running_mean + (1.0 - m) * mean
                self.running_var[...] = m * self.running_var + (1.0 - m) * var
        else:
            centred = x - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        x_hat = centred * inv_std
        return self.gamma * x_hat + self.beta, (x_hat, inv_std)

    def backward(self, dy: np.ndarray, cache, mode: str):
        x_hat, inv_std = cache
        grads = {"gamma": (dy * x_hat).sum(axis=0), "beta": dy.sum(axis=0)}
        dx_hat = dy * self.gamma
        if mode == TRAIN:
            # full gradient through the batch mean and variance
            n = x_hat.shape[0]
            dx = inv_std / n * (
                n * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
            )
        else:
            dx = dx_hat * inv_std
        return dx, grads


def dropout_forward(x: np.ndarray, rate: float, mode: str, rng: np.random.Generator | None):
    """Inverted dropout: scaled mask in training, identity otherwise."""
    if mode != TRAIN or rate <= 0.0:
        return x, None
    # bool * (1 / (1 - rate)) has the bits of bool / (1 - rate) and is cheaper
    mask = (rng.random(x.shape) >= rate) * (1.0 / (1.0 - rate))
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask):
    return dy if mask is None else dy * mask


class DenseBlock:
    """Hidden unit: affine -> batch normalization -> activation -> dropout."""

    def __init__(self, in_dim, out_dim, activation: str, dropout_rate: float, rng):
        self.dense = Dense(in_dim, out_dim, rng)
        self.norm = BatchNorm(out_dim)
        self.act, self.act_grad = _ACTIVATIONS[activation]
        self.dropout_rate = dropout_rate

    def forward(self, x, mode: str, rng, update_running: bool = True):
        pre, dense_cache = self.dense.forward(x)
        normed, norm_cache = self.norm.forward(pre, mode, update_running)
        activated = self.act(normed)
        out, mask = dropout_forward(activated, self.dropout_rate, mode, rng)
        return out, (dense_cache, norm_cache, normed, mask, mode)

    def backward(self, dy, cache):
        dense_cache, norm_cache, normed, mask, mode = cache
        dy = dropout_backward(dy, mask)
        dy = dy * self.act_grad(normed)
        dy, norm_grads = self.norm.backward(dy, norm_cache, mode)
        dx, dense_grads = self.dense.backward(dy, dense_cache)
        return dx, {**{f"dense.{leaf}": g for leaf, g in dense_grads.items()},
                    **{f"norm.{leaf}": g for leaf, g in norm_grads.items()}}


class MLPStack:
    """DenseBlocks followed by a final linear layer."""

    def __init__(self, in_dim, hidden, out_dim, activation, dropout_rate, rng):
        self.blocks = []
        prev = in_dim
        for width in hidden:
            self.blocks.append(DenseBlock(prev, width, activation, dropout_rate, rng))
            prev = width
        self.out = Dense(prev, out_dim, rng)

    def forward(self, x, mode, rng, update_running: bool = True):
        caches = []
        for block in self.blocks:
            x, cache = block.forward(x, mode, rng, update_running)
            caches.append(cache)
        y, out_cache = self.out.forward(x)
        caches.append(out_cache)
        return y, caches

    def backward(self, dy, caches):
        dy, out_grads = self.out.backward(dy, caches[-1])
        grads = {f"out.{leaf}": g for leaf, g in out_grads.items()}
        for i in range(len(self.blocks) - 1, -1, -1):
            dy, block_grads = self.blocks[i].backward(dy, caches[i])
            for leaf, g in block_grads.items():
                grads[f"hidden{i}.{leaf}"] = g
        return dy, grads

    def named_params(self):
        """Deterministic (name, owner, leaf) walk; checkpoint order derives from it."""
        for i, block in enumerate(self.blocks):
            for part, owner in (("dense", block.dense), ("norm", block.norm)):
                for leaf in owner.LEAVES:
                    yield f"hidden{i}.{part}.{leaf}", owner, leaf
        for leaf in self.out.LEAVES:
            yield f"out.{leaf}", self.out, leaf


class Adam:
    """Adaptive-moment optimizer with bias correction, one update over a whole vector."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = self.v = 0.0  # moment estimates; 0.0 broadcasts like zero vectors

    def step(self, params: NamedVector, grads: NamedVector):
        """Update ``params.vector`` in place from ``grads.vector`` (same layout)."""
        grads.require_finite("gradient for parameter")
        grad = grads.vector
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        m_hat = self.m / bias1
        v_hat = self.v / bias2
        params.vector -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
