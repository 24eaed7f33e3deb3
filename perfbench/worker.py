"""One repetition of one workload, in a fresh interpreter started by ``run.py``.

Prints one JSON line: set-up time, wall time, peak memory, the outcome of
every operation and its output check, the output digest and, when traced,
the per-layer metrics.  With ``--setup-only`` it stops after building the plan.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import photonvae
import workloads


# The host is shared, and its speed drifts by tens of percent over minutes.
# Every timing is therefore also reported scaled to a reference host speed:
# multiplied by HOST_PROBE_REF_S over the time ``host_probe_s`` takes right
# around the timed call.  The probe is fixed work independent of photonvae,
# shaped like the program: small numpy operations plus pure-Python arithmetic.
HOST_PROBE_REF_S = 0.1


def host_probe_s() -> float:
    """Seconds taken by a fixed amount of work that no change to photonvae alters.

    Each round is about half small-array numpy calls (as in training) and half
    an interpreted loop over numpy scalars (as in the detector chain).
    """
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((512, 32))
    w = 0.1 * rng.standard_normal((32, 32))
    probs = rng.random(64)
    start = time.perf_counter()
    for _ in range(70):
        h = x
        for _ in range(2):
            h = h @ w
            h = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5)
            h = np.where(h > 0, h, np.expm1(h))
        for n in range(32):
            kernel, total = 0.5**n, 0.0
            for m in range(n + 1, 64):
                kernel *= 0.5 * m / (m - n)
                total += kernel * probs[m]
    return time.perf_counter() - start


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": info.get("name"),
        "blas_version": info.get("version"),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None where it cannot be asked."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in libdir.glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--plan-seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before starting this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    plan = workload.plan(args.plan_seed, args.workdir)
    setup = time.monotonic() - args.spawned_at
    probe = host_probe_s()
    out = {"plan_seed": args.plan_seed, "setup_raw_s": setup, "setup_probe_s": probe,
           "setup_s": setup * HOST_PROBE_REF_S / probe}
    if args.setup_only:
        out["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                      "photonvae": photonvae.__version__, **_blas()}
        print(json.dumps(out))
        return 0

    if args.trace:
        import tracer

        with tracer.Tracer() as trace:
            start = time.perf_counter()
            ops = workload.run(plan)
            wall = time.perf_counter() - start
        out["layers"] = tracer.layer_metrics(trace.spans)
    else:
        start = time.perf_counter()
        ops = workload.run(plan)
        wall = time.perf_counter() - start
    probe = 0.5 * (probe + host_probe_s())
    checked = workload.check(plan, ops)
    out.update(
        wall_raw_s=wall,
        wall_probe_s=probe,
        wall_s=wall * HOST_PROBE_REF_S / probe,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=[{"name": op.name, "problems": checked.failures.get(op.name, [])} for op in ops],
        accuracy=float(np.mean(checked.accuracies)) if checked.accuracies else None,
        digest=checked.digest,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
