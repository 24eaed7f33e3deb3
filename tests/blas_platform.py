"""The numpy build, its loop set and the BLAS kernel a test runs on, for the
failure messages of the byte pins: their digests hold on the arithmetic they
were taken with only.

``python tests/blas_platform.py`` prints the same line."""

import ctypes
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath


def numpy_loops() -> str:
    """The highest loop set numpy dispatches to on this CPU (``AVX512_SPR``,
    ``X86_V3``, ...; ``NPY_DISABLE_CPU_FEATURES`` turns some off): the last
    of the compiled sets in ``__cpu_dispatch__`` that ``__cpu_features__``
    reports enabled, or "baseline" where none is.  ``__cpu_dispatch__`` alone
    lists what was compiled, whether or not it runs."""
    features = _multiarray_umath.__cpu_features__
    enabled = [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]
    return enabled[-1] if enabled else "baseline"


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS chose for this CPU (``SkylakeX``,
    ``Haswell``, ...; ``OPENBLAS_CORETYPE`` forces one), or "unknown" where
    numpy bundles no OpenBLAS that reports it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def blas_platform() -> str:
    return f"numpy {np.__version__} ({numpy_loops()} loops), OpenBLAS core {openblas_core()}"


if __name__ == "__main__":
    print(blas_platform())
