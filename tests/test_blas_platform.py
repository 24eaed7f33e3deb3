import os
import subprocess
import sys
from pathlib import Path

import pytest

from blas_platform import _multiarray_umath


def test_platform_line_names_the_loop_set_numpy_runs():
    # numpy's float32 expm1 gives other bits in its AVX2 loops than in its
    # AVX-512 ones, so the line must tell the two apart
    dispatch = _multiarray_umath.__cpu_dispatch__
    if not _multiarray_umath.__cpu_features__.get("X86_V4") or "X86_V3" not in dispatch:
        pytest.skip("numpy runs no AVX-512 loops on this CPU")
    above_v3 = [name for name in dispatch[dispatch.index("X86_V3") + 1:]
                if _multiarray_umath.__cpu_features__.get(name)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(above_v3)}
    script = Path(__file__).with_name("blas_platform.py")
    line = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                          check=True).stdout
    assert "(X86_V3 loops)" in line, line
