"""Central-finite-difference gradient checking for the VAE classifier.

The checks run the pass training runs, a TRAIN pass.  Its dropout masks and
latent noise come from ``model.rng``, so ``max_relative_error`` reseeds that
stream with the model's seed before every evaluation: the analytic pass and
each perturbed one then draw the same masks and the same noise, and the
running statistics they move do not enter a TRAIN pass.

The activations have kinks at zero (SELU, LeakyReLU), so a probe whose
perturbation pushes a unit across zero picks up an O(step) slope error; with
the fixed seeds used here every probe stays clear and the measured worst
error sits below 4e-6, more than an order below the tolerance.
"""

import numpy as np

from photonvae.nn import TRAIN
from photonvae.vae import NetworkSpec, VAEClassifier

FD_STEP = 1e-4
REL_TOL = 1e-4
# gradients below this magnitude are compared at fixed scale (pure relative
# error is ill-conditioned around zero)
REL_FLOOR = 1e-3


class FixedNoise:
    """Stands in for ``model.rng`` to give models of different dtypes the same
    latent noise, which one seed does not: ``standard_normal`` returns ``eps``
    in the dtype asked for.  It draws nothing else, so it serves only models
    whose dropout ``without_dropout`` has turned off (the network's own rate
    is ``vae.SHAPE["dropout_rate"]``)."""

    def __init__(self, eps: np.ndarray):
        self.eps = eps

    def standard_normal(self, shape, dtype):
        assert shape == self.eps.shape
        return self.eps.astype(dtype)


def without_dropout(model: VAEClassifier) -> VAEClassifier:
    """``model``, with every DenseBlock's dropout rate set to 0 so that a TRAIN
    pass draws only its latent noise.  The weights are those of the model as
    built: dropout draws nothing at initialization."""
    for stack in (model.encoder, model.decoder, model.classifier):
        for block in stack.blocks:
            block.dropout_rate = 0.0
    return model


def make_case(spec: NetworkSpec, seed: int, batch: int = 8):
    """Deterministic model, batch and labels for one check.  The model is
    float64: central differences at FD_STEP need its resolution, and it is the
    reference the float32 network is compared against."""
    model = VAEClassifier(spec, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 7919)
    x = rng.random((batch, spec.input_dim))
    if spec.input_dim > 5:
        x[:, 5] = 1.0 + rng.random(batch)
    y = rng.integers(0, spec.num_classes, batch)
    return model, x, y


def max_relative_error(model, x, y, sample_per_tensor=None, rng=None):
    """Worst relative error between analytic and central-difference gradients.

    ``sample_per_tensor=None`` checks every parameter; an integer checks that
    many randomly chosen entries of each tensor (still covering every layer).
    """

    def loss():
        model.reseed(model.seed)
        return model.losses(x, y, model.forward(x, mode=TRAIN)).total

    model.reseed(model.seed)
    _, grads, _ = model.loss_and_grads(x, y)
    worst = 0.0
    worst_at = None
    for name, array in model.trainable_refs().items():
        flat = array.reshape(-1)
        analytic = grads[name].reshape(-1)
        if sample_per_tensor is None or flat.size <= sample_per_tensor:
            indices = range(flat.size)
        else:
            indices = rng.choice(flat.size, sample_per_tensor, replace=False)
        for i in indices:
            saved = flat[i]
            flat[i] = saved + FD_STEP
            up = loss()
            flat[i] = saved - FD_STEP
            down = loss()
            flat[i] = saved
            fd = (up - down) / (2 * FD_STEP)
            err = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), REL_FLOOR)
            if err > worst:
                worst = err
                worst_at = (name, int(i), float(analytic[i]), float(fd))
    return worst, worst_at
