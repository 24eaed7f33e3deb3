"""The benchmark's workloads: a plan built from the seed, the timed calls, and output checks.

Each workload builds everything the program receives from a plan seed, runs
its top-level operations (study calls or CLI commands), then checks the
outputs and digests them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from photonvae import cli, workflows
from photonvae.workflows import TrainPlan, TrainStage


@dataclass
class Op:
    """One top-level operation: a study call or a CLI command."""

    name: str
    output: object = None
    error: str | None = None


@dataclass
class Checked:
    failures: dict[str, list[str]] = field(default_factory=dict)  # op name -> problems
    accuracies: list[float] = field(default_factory=list)
    digest: str = ""

    def fail(self, op: str, problem: str) -> None:
        self.failures.setdefault(op, []).append(problem)


def _split_sizes(bins_per_class: int) -> tuple[int, int, int]:
    """Per-class train/validation/test row counts of ``split_rows`` at its default fractions."""
    n_train, n_val = int(bins_per_class * 0.8), int(bins_per_class * 0.1)
    return n_train, n_val, bins_per_class - n_train - n_val


def _check_accuracy(checked: Checked, op: str, cell: str, accuracy) -> None:
    if not (isinstance(accuracy, float) and math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0):
        checked.fail(op, f"{cell}: accuracy {accuracy!r} is not a finite value in [0, 1]")
    else:
        checked.accuracies.append(accuracy)


def _check_cells(checked: Checked, op: str, cells: list, confusion_totals: list, expected: list) -> None:
    """``cells``/``expected`` pair a cell key with its accuracy / expected row count."""
    got_keys = [key for key, _ in cells]
    want_keys = [key for key, _ in expected]
    if got_keys != want_keys:
        checked.fail(op, f"report cells {got_keys} do not match the plan's {want_keys}")
        return
    if len(confusion_totals) != len(expected):
        checked.fail(op, f"{len(confusion_totals)} confusion matrices for {len(expected)} cells")
        return
    for (key, accuracy), total, (_, rows) in zip(cells, confusion_totals, expected):
        _check_accuracy(checked, op, str(key), accuracy)
        if total != rows:
            checked.fail(op, f"{key}: confusion total {total} != {rows} rows evaluated")


def _digest_report(report) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(report.rows, sort_keys=True).encode())
    for cell, matrix in report.confusions.items():
        h.update(cell.encode())
        h.update(np.ascontiguousarray(matrix, dtype="<i8").tobytes())
    if report.latents is not None:
        h.update(np.ascontiguousarray(report.latents, dtype="<f8").tobytes())
    return h.hexdigest()


# --- study workloads ------------------------------------------------------


class Study:
    """A workload made of one call to a ``photonvae.workflows`` study."""

    name = ""
    study = ""

    def plan(self, seed: int, workdir: Path) -> TrainPlan:
        raise NotImplementedError

    def expected_cells(self, plan: TrainPlan) -> list:
        raise NotImplementedError

    def cell_key(self, row: dict):
        raise NotImplementedError

    def run(self, plan: TrainPlan) -> list[Op]:
        # looked up at call time, so a traced run reaches the wrapped study
        study = getattr(workflows, self.study)
        try:
            return [Op(self.study, output=study(plan))]
        except Exception as exc:  # a raising study call is a failed operation
            return [Op(self.study, error=f"{type(exc).__name__}: {exc}")]

    def check(self, plan: TrainPlan, ops: list[Op]) -> Checked:
        checked = Checked()
        (op,) = ops
        if op.error is not None:
            checked.fail(op.name, op.error)
            return checked
        report = op.output.report
        try:
            cells = [(self.cell_key(row), row["accuracy"]) for row in report.rows]
        except KeyError as exc:
            checked.fail(op.name, f"report row without {exc}")
            cells = []
        totals = [int(matrix.sum()) for matrix in report.confusions.values()]
        _check_cells(checked, op.name, cells, totals, self.expected_cells(plan))
        if report.latents is not None and not np.all(np.isfinite(report.latents)):
            checked.fail(op.name, "latent export holds non-finite values")
        checked.digest = _digest_report(report)
        return checked


class LosslessTransfer(Study):
    name = "lossless_transfer"
    study = "run_algorithm1"

    def plan(self, seed, workdir):
        return TrainPlan(
            algorithm="lossless",
            stages=(TrainStage(bin_size=100, epochs=40), TrainStage(bin_size=30, epochs=15)),
            mean_param=1.3,
            seed=seed,
            bins_per_class=1000,
            n_detectors=6,
            efficiency=1.0,
            eval_bin_sizes=(100, 30),
        )

    def expected_cells(self, plan):
        n_test = 2 * _split_sizes(plan.bins_per_class)[2]
        return [(size, n_test) for size in plan.eval_bin_sizes]

    def cell_key(self, row):
        return row["bin_size"]


class LossySweep(Study):
    name = "lossy_sweep"
    study = "run_algorithm2"

    def plan(self, seed, workdir):
        return TrainPlan(
            algorithm="lossy_nbar",
            stages=(TrainStage(bin_size=50, epochs=40),),
            mean_param=1.3,
            seed=seed,
            bins_per_class=600,
            n_detectors=4,
            train_etas=(0.5, 0.7, 0.9),
            eval_etas=(0.6, 0.8),
            eval_nbar_obs=(1.2,),
            eval_bins_per_class=200,
        )

    def expected_cells(self, plan):
        held_out = 2 * _split_sizes(plan.bins_per_class)[2]
        sweep = 2 * plan.eval_bins_per_class
        return (
            [(("held_out", eta), held_out) for eta in plan.train_etas]
            + [(("eta_sweep", eta), sweep) for eta in plan.eval_etas]
            + [(("nbar_sweep",), sweep) for _ in plan.eval_nbar_obs]
        )

    def cell_key(self, row):
        # an nbar_sweep row records the efficiency its target was realized at,
        # which the plan does not fix
        return (row["cell"],) if row["cell"] == "nbar_sweep" else (row["cell"], row["eta"])


class MixedGrid(Study):
    name = "mixed_grid"
    study = "run_mixed_grid"

    def plan(self, seed, workdir):
        return TrainPlan(
            algorithm="mixed_grid",
            stages=(TrainStage(bin_size=50, epochs=40),),
            seed=seed,
            # at 800 training bins per class a third of the seeds ended with a collapsed classifier
            bins_per_class=1200,
            n_detectors=4,
            efficiency=0.9,
            mix_r_values=(0.0, 0.25, 0.5, 0.75, 1.0),
            mix_train_r_values=(0.0, 0.25, 0.5, 0.75),
            eval_bins_per_class=120,
            target_nbar_obs=1.3,
        )

    def expected_cells(self, plan):
        rows = 4 * plan.eval_bins_per_class
        return [((r1, r2), rows) for r1 in plan.mix_r_values for r2 in plan.mix_r_values]

    def cell_key(self, row):
        return row["r1"], row["r2"]


# --- CLI workload -----------------------------------------------------------


@dataclass(frozen=True)
class CliPlan:
    workdir: Path
    commands: tuple[tuple[str, ...], ...]  # argv of each CLI command, run in workdir
    datasets: dict  # dataset name -> rows it must hold
    eval_datasets: tuple[str, ...]
    sweep_cells: tuple[tuple[int, float], ...]
    sweep_rows: int


class CliRoundtrip:
    """``photonvae.cli.main`` in process: gen several datasets, train, eval every CSV, sweep."""

    name = "cli_roundtrip"

    CLASSES = [
        {"label": "spacs", "kind": "spacs", "mean_param": 1.3},
        {"label": "spats", "kind": "spats", "mean_param": 1.3},
    ]
    DETECTOR = {"n_detectors": 6, "efficiency": 1.0}
    DATASETS = {"train_b50": (50, 1500), "test_b30": (30, 1500), "test_b100": (100, 1500)}
    SWEEP_BINS_PER_CLASS = 400

    def plan(self, seed, workdir):
        configs = {}
        commands = []
        for k, (name, (bin_size, bins)) in enumerate(self.DATASETS.items()):
            # distinct dataset seeds: datasets sharing a seed share their per-bin streams
            configs[f"{name}.json"] = {
                "name": name, "seed": len(self.DATASETS) * seed + k, "classes": self.CLASSES,
                "detector": self.DETECTOR, "bin_size": bin_size, "bins_per_class": bins,
            }
            commands.append(("gen", "--config", f"{name}.json", "--out", "data"))
        configs["train.json"] = {
            "name": "model", "seed": seed, "datasets": ["data/train_b50.csv"],
            "epochs": 20, "warmup_epochs": 20,
        }
        commands.append(("train", "--config", "train.json", "--out", "model"))
        eval_datasets = tuple(f"data/{name}.csv" for name in self.DATASETS)
        configs["eval.json"] = {
            "name": "eval", "seed": seed, "checkpoint": "model/model.ckpt",
            "datasets": list(eval_datasets),
        }
        commands.append(("eval", "--config", "eval.json", "--out", "reports"))
        sweep_bin_sizes, sweep_etas = [30, 100], [1.0, 0.8]
        configs["sweep.json"] = {
            "name": "sweep", "seed": seed, "checkpoint": "model/model.ckpt",
            "classes": self.CLASSES, "detector": self.DETECTOR,
            "bin_sizes": sweep_bin_sizes, "etas": sweep_etas,
            "bins_per_class": self.SWEEP_BINS_PER_CLASS,
        }
        commands.append(("sweep", "--config", "sweep.json", "--out", "reports"))
        workdir.mkdir(parents=True, exist_ok=True)
        for filename, config in configs.items():
            (workdir / filename).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        return CliPlan(
            workdir=workdir,
            commands=tuple(commands),
            datasets={name: len(self.CLASSES) * bins for name, (_, bins) in self.DATASETS.items()},
            eval_datasets=eval_datasets,
            sweep_cells=tuple((b, e) for b in sweep_bin_sizes for e in sweep_etas),
            sweep_rows=len(self.CLASSES) * self.SWEEP_BINS_PER_CLASS,
        )

    def run(self, plan: CliPlan) -> list[Op]:
        ops = []
        with contextlib.chdir(plan.workdir):
            for argv in plan.commands:
                name = f"{argv[0]}:{Path(argv[2]).stem}"
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        code = cli.main(list(argv))
                except Exception as exc:  # a raising command is a failed operation
                    ops.append(Op(name, error=f"{type(exc).__name__}: {exc}"))
                    continue
                error = None if code == 0 else f"exit code {code}"
                ops.append(Op(name, output=out.getvalue(), error=error))
        return ops

    def check(self, plan: CliPlan, ops: list[Op]) -> Checked:
        checked = Checked()
        for op in ops:
            if op.error is not None:
                checked.fail(op.name, op.error)
                continue
            try:
                self._check_op(plan, op, checked)
            except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                checked.fail(op.name, f"malformed output: {type(exc).__name__}: {exc}")
        checked.digest = _digest_tree(plan.workdir, [op.output or "" for op in ops])
        return checked

    def _check_op(self, plan: CliPlan, op: Op, checked: Checked) -> None:
        root = plan.workdir
        summary = json.loads(op.output.strip().splitlines()[-1])
        command = summary["command"]
        if command == "gen":
            want = plan.datasets[summary["name"]]
            if summary["rows"] != want:
                checked.fail(op.name, f"{summary['rows']} rows, expected {want}")
            for suffix in (".csv", ".meta.json"):
                if not (root / "data" / f"{summary['name']}{suffix}").is_file():
                    checked.fail(op.name, f"{summary['name']}{suffix} was not written")
        elif command == "train":
            if not (root / summary["checkpoint"]).is_file():
                checked.fail(op.name, "checkpoint was not written")
        elif command == "eval":
            cells = [(row["dataset"], row["accuracy"]) for row in summary["cells"]]
            expected = [(path, plan.datasets[Path(path).stem]) for path in plan.eval_datasets]
            totals = _confusion_totals(root / "reports" / f"{summary['name']}_confusion.csv")
            _check_cells(checked, op.name, cells, totals, expected)
        elif command == "sweep":
            cells = [((row["bin_size"], row["eta"]), row["accuracy"]) for row in summary["cells"]]
            expected = [(cell, plan.sweep_rows) for cell in plan.sweep_cells]
            totals = _confusion_totals(root / "reports" / f"{summary['name']}_confusion.csv")
            _check_cells(checked, op.name, cells, totals, expected)


def _confusion_totals(path: Path) -> list[int]:
    """Sum of each cell's matrix in a confusion CSV, in file order."""
    totals: dict[str, int] = {}
    for line in path.read_text().splitlines()[1:]:
        cell, _, *counts = line.split(",")
        totals[cell] = totals.get(cell, 0) + sum(int(c) for c in counts)
    return list(totals.values())


def _digest_tree(root: Path, stdout: list[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    for text in stdout:
        h.update(text.encode())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (LosslessTransfer(), LossySweep(), MixedGrid(), CliRoundtrip())}
