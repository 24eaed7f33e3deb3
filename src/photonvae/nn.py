"""Dense-network building blocks with hand-written backpropagation.

Each layer computes in the dtype of the arrays it receives and holds: the
model trains and infers in float32, and the gradient checks build float64
models as their reference.  A Python float takes the array's dtype, but a
boolean array times a Python float is float64, so such constants are first
made scalars of the array's dtype.  Each layer's ``forward`` returns the
output plus an opaque cache consumed by ``backward``.  Modes:

* ``"train"`` — batch-statistic normalization, dropout active.  A BatchNorm
  writes its batch mean and variance to arrays it holds and leaves its running
  statistics alone: the model moves all of them at once after the pass.
  Dropout draws one 16-bit integer per unit from the raw words of the
  generator it is handed, which is cheaper than a float per unit; a rate then
  acts as ``round(rate * 2**16) / 2**16``.
* ``"infer"`` — running-statistic normalization, dropout off; nothing is drawn
  and nothing is written.

Only training backpropagates, so ``backward`` follows a ``"train"``
``forward`` only: the gradients flow through the batch statistics, and a
cache from an ``"infer"`` pass gives wrong ones.

Layers, and a stack for its output bias, list their parameter attributes by
checkpoint leaf name in ``LEAVES`` and write them only in place: a model may
make them views into one vector (``NamedVector``), and an attribute rebound to
a new array leaves that vector.  ``RESULTS`` lists, by the same leaf names,
the arrays a TRAIN pass writes in place: a trainable parameter's gradient,
written by ``backward``, and a running statistic's batch value, written by
``forward``.  A layer allocates them once; a model binds them to views into
one vector laid out like its parameters, so a step's gradients are already
the vector its optimizer reads.  ``backward`` returns only the gradient with
respect to its input.

Every batch sum (the BatchNorm statistics and parameter gradients, a stack's
output-bias gradient) is ``column_sums``: a BLAS matrix-vector product with a
cached, read-only ones vector, much faster on a (batch, width) array than
``sum(axis=0)``, which walks it row by row.  That vector is the one array a
layer neither allocates nor receives.

A TRAIN pass caches only what its backward pass reads.  A BatchNorm caches
its centred input and 1/std, not the normalized input, which it never forms:
the output is ``centred * (inv_std * gamma) + beta``.  A Dense caches its
input, which is the previous block's output.  A block adds its own output and
a boolean keep mask.  ``MLPStack.backward`` pops each layer's cache as it
consumes it, so a pass's arrays are freed layer by layer, not when the pass
ends.  Functions write in place only temporaries they allocated, a layer's
``RESULTS`` arrays and an ``out`` argument, a destination that may be the
input itself and changes no byte of the result.  No other argument and no
cached array is written; without ``out``, a call returns new arrays.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805
LEAKY_SLOPE = 0.01
_SELU_SATURATION = SELU_SCALE * SELU_ALPHA  # -selu(x) as x -> -inf

TRAIN, INFER = "train", "infer"


class GradientError(RuntimeError):
    """Raised when a gradient turns non-finite during training."""


# An activation returns scale * act(x), new or written to ``out`` (which may be
# x), and its derivative reads that output.  Branches are selected by
# arithmetic, which is cheaper than np.where; selu clamps the exponent's
# argument at 0 so the discarded branch cannot overflow.


def selu(x: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    positive = np.maximum(x, 0.0)
    out = np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    out *= SELU_ALPHA
    out += positive
    out *= scale * SELU_SCALE
    return out


def selu_grad(y: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Derivative of ``scale * selu`` given its output ``y = scale * selu(x)``:
    scale * SCALE where y > 0, else scale * SCALE * ALPHA * exp(x) = y + scale
    * SCALE * ALPHA, so no exponential is evaluated."""
    saturation = y.dtype.type(scale * _SELU_SATURATION)
    slope = y.dtype.type(scale * SELU_SCALE)
    grad = np.minimum(y, 0.0)
    grad += saturation
    # saturation - slope is exact in any dtype (the two are within a factor of
    # 2), so subtracting it from saturation leaves exactly slope where y > 0
    grad -= (y > 0) * (saturation - slope)
    return grad


def leaky_relu(x: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    out = np.maximum(x, LEAKY_SLOPE * x, out=out)
    out *= scale
    return out


def leaky_relu_grad(y: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Derivative of ``scale * leaky_relu`` given its output, which has the
    input's sign: scale where y > 0, else scale * LEAKY_SLOPE."""
    grad = (y > 0) * y.dtype.type(scale * (1.0 - LEAKY_SLOPE))
    grad += scale * LEAKY_SLOPE
    return grad


_ACTIVATIONS = {"selu": (selu, selu_grad), "leaky_relu": (leaky_relu, leaky_relu_grad)}


@functools.cache
def _ones(rows: int, dtype: np.dtype) -> np.ndarray:
    ones = np.ones(rows, dtype=dtype)
    ones.flags.writeable = False
    return ones


def column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.sum(axis=0)`` of a 2-D array, as one BLAS product in ``a``'s dtype,
    written to ``out`` when given."""
    return np.matmul(_ones(a.shape[0], a.dtype), a, out=out)


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
    def pack(cls, arrays: dict[str, np.ndarray], dtype=None) -> "NamedVector":
        """Copy ``arrays``, in order, into a new vector of ``dtype``, by default
        the type their values promote to (so a float64 array among float32 ones
        shows)."""
        vector = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=dtype)
        return cls(vector, {name: np.shape(a) for name, a in arrays.items()})

    def require_finite(self, what: str) -> None:
        """Raise ``GradientError`` naming the first array that holds a non-finite entry."""
        if np.isfinite(self.vector).all():
            return
        for name, view in self.items():
            if not np.isfinite(view).all():
                raise GradientError(f"non-finite {what} {name!r}")


class Dense:
    """Linear map with fan-in-scaled uniform weight init."""

    LEAVES = {"W": "weight"}
    RESULTS = {"W": "weight_grad"}

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        self.weight_grad = np.zeros_like(self.weight)

    def forward(self, x: np.ndarray):
        return x @ self.weight, x

    def backward(self, dy: np.ndarray, cache):
        x = cache
        np.matmul(x.T, dy, out=self.weight_grad)
        return dy @ self.weight.T


class BatchNorm:
    """Per-feature normalization.  A TRAIN pass writes its batch mean and
    variance to ``batch_mean`` and ``batch_var``; the owner of the layer then
    moves each running statistic to ``MOMENTUM`` * running + (1 - ``MOMENTUM``)
    * batch value.

    ``forward``'s cache is ``(centred, inv_std)``: the input minus the mean,
    written to ``out`` when given, and 1 / sqrt(var + EPS).  The normalized
    input x_hat = centred * inv_std is never formed, so each column is scaled
    once, by inv_std * gamma, and ``backward`` takes gamma's gradient as
    inv_std * sum(dy * centred), writing the input's gradient to ``out``."""

    EPS = 1e-5
    MOMENTUM = 0.9
    LEAVES = {leaf: leaf for leaf in ("gamma", "beta", "running_mean", "running_var")}
    RESULTS = {"gamma": "gamma_grad", "beta": "beta_grad",
               "running_mean": "batch_mean", "running_var": "batch_var"}

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        for attr in self.RESULTS.values():
            setattr(self, attr, np.zeros(dim))

    def forward(self, x: np.ndarray, mode: str, out: np.ndarray | None = None):
        if mode == TRAIN:
            # x.mean(0) and x.var(0) from batch sums, centring x only once
            n = x.shape[0]
            mean = column_sums(x, out=self.batch_mean)
            mean /= n
            centred = np.subtract(x, mean, out=out)
            y = np.multiply(centred, centred)  # the squares, then the output
            var = column_sums(y, out=self.batch_var)
            var /= n
        else:
            centred, y = np.subtract(x, self.running_mean, out=out), None
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        y = np.multiply(centred, inv_std * self.gamma, out=y)
        y += self.beta
        return y, (centred, inv_std)

    def backward(self, dy: np.ndarray, cache, out: np.ndarray | None = None):
        centred, inv_std = cache
        proj = dy * centred
        # sum(dy * x_hat) = inv_std * sum(dy * centred)
        gamma_grad = column_sums(proj, out=self.gamma_grad)
        gamma_grad *= inv_std
        beta_grad = column_sums(dy, out=self.beta_grad)
        # full gradient through the batch mean and variance (Ioffe & Szegedy,
        # 2015): gamma * inv_std * (dy - mean(dy) - x_hat * mean(dy * x_hat)),
        # whose two batch sums are the parameter gradients
        n = centred.shape[0]
        np.multiply(centred, inv_std * gamma_grad / n, out=proj)
        dx = np.subtract(dy, beta_grad / n, out=out)
        dx -= proj
        dx *= self.gamma * inv_std
        return dx


def _copied(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``x``, or ``out`` holding a copy of it (numpy copies nothing when it is ``x``)."""
    if out is None:
        return x
    np.copyto(out, x)
    return out


def dropout_forward(x: np.ndarray, rate: float, mode: str, rng, out: np.ndarray | None = None):
    """Dropout's zeroing: ``x`` times a boolean keep mask in training, and the
    mask; ``x`` and None otherwise.  The product goes to ``out`` when given.
    The 1 / (1 - rate) of inverted dropout is left to the caller (a block's
    activation applies it).

    Each unit's keep decision is a 16-bit draw, four to a raw 64-bit word of
    ``rng``'s bit generator (``random_raw(ceil(x.size / 4))``, read as uint16
    in memory order).  A unit is dropped when its draw is below
    ``round(rate * 65536)``, so the drop probability is that threshold over
    2**16: 0.19999695 at rate 0.2.  A rate below 2**-17 keeps every unit, and
    one whose threshold rounds to 65536 drops every unit."""
    if mode != TRAIN or rate <= 0.0:
        return _copied(x, out), None
    draws = rng.bit_generator.random_raw(-(-x.size // 4)).view(np.uint16)
    keep = draws[: x.size].reshape(x.shape) >= round(rate * 65536)
    return np.multiply(x, keep, out=out), keep


def dropout_backward(dy: np.ndarray, keep, out: np.ndarray | None = None):
    return _copied(dy, out) if keep is None else np.multiply(dy, keep, out=out)


class DenseBlock:
    """Hidden unit: linear -> batch normalization -> activation -> dropout.

    The linear map has no bias: batch normalization would subtract it again,
    and its beta is the block's shift.  The cache is ``(input, (centred,
    inv_std), output, keep)``: the output is the next layer's input, and the
    keep mask is None when nothing is dropped.  The BatchNorm centres the
    Dense output, which nothing caches, in place; the activation, scaled by
    1 / (1 - rate), and the mask overwrite the BatchNorm's output.  Backward,
    the activation's derivative (read from the output, so a dropped unit's is
    wrong, but the mask zeroes it) times the upstream gradient and the mask
    becomes the BatchNorm's input gradient in place."""

    def __init__(self, in_dim, out_dim, activation: str, dropout_rate: float, rng):
        self.dense = Dense(in_dim, out_dim, rng)
        self.norm = BatchNorm(out_dim)
        self.act, self.act_grad = _ACTIVATIONS[activation]
        self.dropout_rate = dropout_rate

    def forward(self, x, mode: str, rng):
        pre, dense_cache = self.dense.forward(x)
        normed, norm_cache = self.norm.forward(pre, mode, out=pre)
        scale = 1.0 / (1.0 - self.dropout_rate) if mode == TRAIN else 1.0
        activated = self.act(normed, scale, out=normed)
        out, keep = dropout_forward(activated, self.dropout_rate, mode, rng, out=activated)
        return out, (dense_cache, norm_cache, out, keep)

    def backward(self, dy, cache):
        dense_cache, norm_cache, out, keep = cache
        grad = self.act_grad(out, 1.0 / (1.0 - self.dropout_rate))
        grad *= dy
        dropout_backward(grad, keep, out=grad)
        return self.dense.backward(self.norm.backward(grad, norm_cache, out=grad), dense_cache)


class MLPStack:
    """DenseBlocks followed by a final linear layer plus the stack's output
    bias, whose checkpoint name is ``out.b``."""

    LEAVES = {"b": "out_bias"}
    RESULTS = {"b": "out_bias_grad"}

    def __init__(self, in_dim, hidden, out_dim, activation, dropout_rate, rng):
        self.blocks = []
        prev = in_dim
        for width in hidden:
            self.blocks.append(DenseBlock(prev, width, activation, dropout_rate, rng))
            prev = width
        self.out = Dense(prev, out_dim, rng)
        self.out_bias = np.zeros(out_dim)
        self.out_bias_grad = np.zeros(out_dim)

    def forward(self, x, mode, rng):
        caches = []
        for block in self.blocks:
            x, cache = block.forward(x, mode, rng)
            caches.append(cache)
        y, out_cache = self.out.forward(x)
        y += self.out_bias
        caches.append(out_cache)
        return y, caches

    def backward(self, dy, caches: list):
        """Backpropagate a TRAIN ``forward`` whose ``caches`` list is popped,
        last layer first, so each layer's arrays are freed once it is done."""
        column_sums(dy, out=self.out_bias_grad)
        dy = self.out.backward(dy, caches.pop())
        for block in reversed(self.blocks):
            dy = block.backward(dy, caches.pop())
        return dy

    def named_params(self):
        """Deterministic (name, owner, leaf) walk; checkpoint order derives from it."""
        for i, block in enumerate(self.blocks):
            for part, owner in (("dense", block.dense), ("norm", block.norm)):
                for leaf in owner.LEAVES:
                    yield f"hidden{i}.{part}.{leaf}", owner, leaf
        for owner in (self.out, self):
            for leaf in owner.LEAVES:
                yield f"out.{leaf}", owner, leaf


class Adam:
    """Adaptive-moment optimizer with bias correction, one update over a whole
    vector.  Its moments and two scratch vectors are allocated at the first
    step, in the parameter vector's dtype, so a step allocates nothing."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = self.v = self._scratch = None  # moments, then two scratch vectors

    def step(self, params: NamedVector, grads: NamedVector):
        """Update ``params.vector`` in place from ``grads.vector`` (same layout)."""
        grads.require_finite("gradient for parameter")
        grad = grads.vector
        self.step_count += 1
        b1, b2 = self.BETA1, self.BETA2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        if self.m is None:
            self.m, self.v, *self._scratch = np.zeros((4, params.vector.size), params.vector.dtype)
        m, v, term, denom = self.m, self.v, *self._scratch
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=term)
        v *= b2
        v += np.multiply(np.multiply(grad, 1.0 - b2, out=term), grad, out=term)
        # lr * m_hat / (sqrt(v_hat) + eps), with its operations in that order
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        update = np.divide(m, bias1, out=term)
        update *= self.lr
        update /= denom
        params.vector -= update
