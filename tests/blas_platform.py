"""The numpy build and BLAS kernel a test runs on, for the failure messages of
the byte pins: their digests hold on the kernel they were taken with only.

``python tests/blas_platform.py`` prints the same line."""

import ctypes
from pathlib import Path

import numpy as np


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
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


if __name__ == "__main__":
    print(blas_platform())
