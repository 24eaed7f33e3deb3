"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload lossy_sweep --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every repetition runs in a fresh interpreter (``worker.py``), so
no cache or memory carries over from one repetition to the next.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics of a traced run.
A results file with the environment, every sample and the output digests
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("lossless_transfer", "lossy_sweep", "mixed_grid", "cli_roundtrip")

# Plan seeds per run: repetition r of a run with seed s uses plan seed
# s * SEEDS_PER_RUN + r % SEEDS_PER_RUN, so accuracy averages several plans and
# a repeated plan seed must reproduce its output digest.
SEEDS_PER_RUN = 3
SETUP_PROBES = 6
# Small matrices: one BLAS thread is both fastest and steadiest; never above nproc.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark could not run here (missing sources, crashed worker)."""


def plan_seed(seed: int, rep: int) -> int:
    return seed * SEEDS_PER_RUN + rep % SEEDS_PER_RUN


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    threads = str(min(BLAS_THREADS, _nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(workload: str, seed: int, workdir: Path, trace: bool = False,
           setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--plan-seed", str(seed), "--workdir", str(workdir), "--trace", str(int(trace))]
    if setup_only:
        argv.append("--setup-only")
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(seed: int, worker_env: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {**worker_env, "nproc": _nproc(), "cpu": cpu, "blas_threads_set": min(BLAS_THREADS, _nproc()),
            "git_commit": _git_commit(), "seed": seed, "platform": platform.platform()}


def _git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then repetitions until ``seconds`` have been measured."""
    work = ROOT / ".perfbench" / "work" / f"{workload}-{os.getpid()}"
    # the first interpreter compiles bytecode; later set-ups find it cached, as users do
    env = _spawn(workload, plan_seed(seed, 0), work, setup_only=True)["env"]
    setups = [] if trace else [
        _spawn(workload, plan_seed(seed, k), work, setup_only=True)["setup_s"]
        for k in range(SETUP_PROBES)
    ]
    min_reps = 2 if trace else SEEDS_PER_RUN
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        # stop once the next repetition would not end within the measured window
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
        k = len(reps)
        traced = trace and k % 2 == 1
        # in a traced run, each traced repetition repeats the untraced one's plan
        ps = plan_seed(seed, k // 2 if trace else k)
        rep = _spawn(workload, ps, work, trace=traced)
        rep["traced"] = traced
        reps.append(rep)
    return {"env": _environment(seed, env), "setup_probes_s": setups, "reps": reps,
            "measured_s": time.monotonic() - start}


def summarize(raw: dict, trace: bool, units: dict) -> dict:
    reps = raw["reps"]
    attempted = sum(len(rep["ops"]) for rep in reps)
    failed = sum(1 for rep in reps for op in rep["ops"] if op["problems"])
    digests: dict[int, set] = {}
    for rep in reps:
        digests.setdefault(rep["plan_seed"], set()).add(rep["digest"])
    reproducible = all(len(found) == 1 for found in digests.values())
    plain = [rep for rep in reps if not rep["traced"]]
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        metrics = {name: statistics.median(rep["layers"][name] for rep in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = (
            statistics.median(rep["wall_s"] for rep in traced)
            / statistics.median(rep["wall_s"] for rep in plain)
        )
    else:
        first_per_seed = {}
        for rep in plain:
            first_per_seed.setdefault(rep["plan_seed"], rep["accuracy"])
        # the median resists the seeds whose training collapses; a failed
        # repetition has no accuracy and is counted in "failed"
        accuracies = [acc for acc in first_per_seed.values() if acc is not None] or [0.0]
        metrics = {
            "wall_s": statistics.median(rep["wall_s"] for rep in plain),
            "setup_s": statistics.median(raw["setup_probes_s"] + [rep["setup_s"] for rep in plain]),
            "accuracy": statistics.median(accuracies),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ between the run and BENCHMARK.json"
        )
    return {
        "correct": failed == 0 and reproducible,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "reproducible": reproducible,
        "digests": {str(k): sorted(v) for k, v in digests.items()},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _problems(raw: dict) -> list[str]:
    return [f"rep {i} {op['name']}: {problem}"
            for i, rep in enumerate(raw["reps"]) for op in rep["ops"] for problem in op["problems"]]


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    raw = measure(workload, seed, seconds, trace)
    summary = summarize(raw, trace, units)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "trace": int(trace), "seconds": seconds, **summary,
              "problems": _problems(raw), **raw}
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(f"{workload} (seed {seed}, {len(raw['reps'])} repetitions, "
          f"{'traced' if trace else 'untraced'}):")
    for name, metric in summary["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'error_rate':44s} {summary['error_rate']:14.6g} fraction "
          f"({summary['failed']} of {summary['attempted']} operations failed)")
    print(f"  {'outputs reproducible':44s} {summary['reproducible']!s:>14s}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "photonvae" / "__init__.py").is_file():
            raise BenchmarkError(f"no photonvae sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = {w: run_one(w, args.seed, args.seconds, bool(args.trace), spec) for w in names}
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        (summary,) = summaries.values()
        metrics = summary["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, s in summaries.items() for name, m in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
