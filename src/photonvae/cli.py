"""Command-line interface: dataset generation, training, evaluation, export.

Every command reads a JSON config, applies flag overrides (flags beat the
PHOTONVAE_SEED environment variable, which beats the config file), echoes the
effective merged config next to its outputs, and prints a single JSON summary
line on stdout.  Log chatter goes to stderr so output files and stdout stay
byte-reproducible: on one machine with one numpy build every run gives the
same bytes, but float32 matrix products round differently on another BLAS
kernel, so trained outputs differ across kernels.

``main`` frames every command.  It loads the config and resolves the seed, the
run name and the output directory, then calls ``cmd_<command>(args, config,
seed, out, name)``.  A command returns only its own summary fields; ``main``
adds ``command``, ``name`` and ``seed``, echoes the config and prints the
summary.  A command that resolves flags into settings (``sweep``'s grid)
writes them into ``config``, so the echoed config is the effective one.

``eval`` and ``sweep`` score their cells in ``_report`` through
``workflows.EvalReport.score``, as the studies do; it, ``train`` and
``export-latent`` turn dataset rows into network inputs with
``workflows.model_inputs``.

Exit codes: 0 success, 1 config/usage error (a training run that diverges
counts as one: its ``learning_rate`` is too large), 2 physics validation error,
3 checkpoint format/version error, 4 dataset/network mismatch.  A dataset CSV
is refused at its first faulty line, which the message names, with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .detector import DetectorConfig
from .distributions import PhysicsError, SourceKind, SourceSpec
from .nn import GradientError
from .sampling import (
    CSV_SEPARATORS,
    DatasetMeta,
    class_label_fault,
    concat_rows,
    feature_matrix,  # unused here, but perfbench/tracer.py wraps cli.feature_matrix
    generate_dataset,
    load_dataset_csv,
    split_rows,
    write_dataset_csv,
    write_dataset_meta,
)
from .vae import (
    CheckpointError,
    DataMismatchError,
    NetworkSpec,
    VAEClassifier,
    evaluate_model,
    is_seed,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from .workflows import (
    EvalReport,
    derived_seed,
    export_latent,
    model_inputs,
    require_thousandths,
    write_confusion_csv,
    write_latent_csv,
    write_report_csv,
)

SEED_ENV_VAR = "PHOTONVAE_SEED"
_REQUIRED = object()


class ConfigError(ValueError):
    """Config file missing, unparsable, or missing required fields."""


class UsageError(ValueError):
    """Bad command line."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_config(path: str | None) -> dict:
    if not path:
        raise ConfigError("--config PATH is required")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return payload


def _require(config, key: str, kind=None, default=_REQUIRED):
    """``config[key]`` converted by ``kind``; an absent key gets ``default``.
    A missing object, a missing required key or a value ``kind`` refuses is a
    ConfigError that names the field."""
    if not isinstance(config, dict):
        raise ConfigError(f"expected an object holding {key!r}, got {config!r}")
    if key not in config:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required field {key!r}")
        return default
    if kind is None:
        return config[key]
    try:
        return kind(config[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {key!r} has a bad value {config[key]!r}: {exc}") from exc


def _text(value) -> str:
    """A string; any other JSON value is refused, not turned into text."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _list_of(kind):
    return lambda values: [kind(value) for value in values]


def _count(value) -> int:
    """A whole number >= 1; a fraction such as 2.7, a boolean or a string is refused, not converted."""
    number = _real(value)
    if not (number >= 1 and number.is_integer()):
        raise ValueError("expected a whole number >= 1")
    return int(number)


def _batch_size(value) -> int:
    """A ``_count`` of at least 2: batch statistics need two rows."""
    size = _count(value)
    if size < 2:
        raise ValueError("expected a whole number >= 2, since batch statistics need two rows")
    return size


def _real(value) -> float:
    """A number; a boolean or a string is refused, not read as 0 or 1 or parsed."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got a {'boolean' if isinstance(value, bool) else 'string'}")
    return float(value)


def _learning_rate(value) -> float:
    """A finite number > 0."""
    rate = _real(value)
    if not 0.0 < rate < np.inf:
        raise ValueError("expected a finite number > 0")
    return rate


def _distinct(values: list, field: str) -> list:
    """``values``, or a ConfigError naming ``field`` for a value that repeats:
    a repeated dataset would put copies of its training rows among the test rows."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{field} repeats the value {value!r}")
    return values


def _array(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _resolve_seed(config: dict, args) -> int:
    """``--seed``, else ``PHOTONVAE_SEED``, else the config's ``seed``, else 0.
    Anything but a whole number >= 0 (a fraction or a boolean too) is a
    ConfigError that names where the seed came from."""
    if args.seed is not None:
        where, seed = "--seed", args.seed
    elif (env := os.environ.get(SEED_ENV_VAR)) is not None:
        where, seed = SEED_ENV_VAR, int(env) if env.strip().isdecimal() else env
    else:
        where, seed = "config field 'seed'", config.get("seed", 0)
    if not is_seed(seed):
        raise ConfigError(f"{where} must be a whole number >= 0, got {seed!r}")
    return seed


def _parse_sources(entries) -> tuple[tuple[str, SourceSpec], ...]:
    sources = []
    for entry in entries:
        kind = _require(entry, "kind", SourceKind)
        spec = SourceSpec(kind, _require(entry, "mean_param", _real),
                          _require(entry, "mix_ratio", _real, 1.0))
        sources.append((_require(entry, "label", _text, kind.value), spec))
    return tuple(sources)


def _parse_detector(payload) -> DetectorConfig:
    return DetectorConfig(
        _require(payload, "n_detectors", _count), _require(payload, "efficiency", _real)
    )


def _dataset_meta(sources, detector, bin_size: int, bins_per_class: int, seed: int) -> DatasetMeta:
    try:
        return DatasetMeta(sources, detector, bin_size, bins_per_class, seed)
    except ValueError as exc:  # bin size, bin count or class labels out of range
        raise ConfigError(str(exc)) from exc


def _load_rows(paths):
    parts = []
    for path in paths:
        try:
            parts.append(load_dataset_csv(path))
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad dataset {path}: {exc}") from exc
    if not sum(map(len, parts)):
        raise ConfigError("datasets contain no rows")
    return parts[0] if len(parts) == 1 else concat_rows(parts)


def _read_checkpoint(path: str):
    try:
        return load_checkpoint(path)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc


def _dataset_paths(config: dict) -> list[str]:
    if "datasets" in config:
        if isinstance(config["datasets"], str):
            return [config["datasets"]]
        return _distinct(_require(config, "datasets", _list_of(_text)), "datasets")
    return [_require(config, "dataset", _text)]


def _class_labels(config: dict) -> list[str] | None:
    """The config's ``classes`` labels, or None for no list or a ``gen``
    config's list of sources.  Any other list must hold strings that
    ``class_label_fault`` passes, or it is a ConfigError."""
    classes = _require(config, "classes", _array, None)
    if not classes or all(isinstance(entry, dict) for entry in classes):
        return None
    labels = _require(config, "classes", _list_of(_text))
    fault = class_label_fault(labels)
    if fault:
        raise ConfigError(f"config field 'classes': {fault}")
    return labels


def _features_flag(config: dict) -> str:
    features = _require(config, "features", _text, "probs")
    if features not in ("probs", "probs+nbar"):
        raise ConfigError(f"features must be 'probs' or 'probs+nbar', got {features!r}")
    return features


def _report(out: Path, name: str, model: VAEClassifier, class_order: list[str], cells) -> dict:
    """Score each (confusion key, rows, report fields) cell, write ``{name}_report.csv``
    and ``{name}_confusion.csv``, and return the summary fields."""
    report = EvalReport(class_labels=class_order)
    for key, rows, fields in cells:
        try:
            report.score(key, model, rows, **fields)
        except DataMismatchError:
            raise
        except ValueError as exc:  # a cell key already scored: two datasets of one file name
            raise ConfigError(str(exc)) from exc
    report_path = out / f"{name}_report.csv"
    write_report_csv(report_path, report.rows)
    write_confusion_csv(out / f"{name}_confusion.csv", report.confusions, class_order)
    return {"report": str(report_path), "cells": report.rows}


# --- commands -------------------------------------------------------------


def cmd_gen(args, config: dict, seed: int, out: Path, name: str) -> dict:
    meta = _dataset_meta(
        _parse_sources(_require(config, "classes", _array)),
        _parse_detector(_require(config, "detector")),
        _require(config, "bin_size", _count),
        _require(config, "bins_per_class", _count),
        seed,
    )
    dataset = generate_dataset(meta)
    csv_path = out / f"{name}.csv"
    write_dataset_csv(csv_path, dataset)
    write_dataset_meta(out / f"{name}.meta.json", dataset)
    return {"rows": len(dataset.rows), "csv": str(csv_path)}


def cmd_train(args, config: dict, seed: int, out: Path, name: str, base=None) -> dict:
    """Train from scratch, or from ``base`` = (model, checkpoint header) when fine-tuning."""
    rows = _load_rows(_dataset_paths(config))
    labels = _class_labels(config)
    if base is not None:
        model, header = base
        features = "probs+nbar" if model.spec.input_dim == 6 else "probs"
        if "features" in config and _features_flag(config) != features:
            raise DataMismatchError(
                f"checkpoint expects {features!r} inputs, config says {config['features']!r}"
            )
        class_order = list(header["class_labels"])
        if labels is not None and labels != class_order:
            raise DataMismatchError(f"checkpoint classes are {class_order}, config says {labels}")
        model.reseed(seed)
    else:
        # np.unique's order without np.unique, whose first call imports numpy.ma
        class_order = labels or sorted(set(rows.labels.tolist()))
        if len(class_order) < 2:
            raise ConfigError(f"training needs at least two classes, the class order is {class_order}")
        features = _features_flag(config)
        spec = NetworkSpec(
            input_dim=6 if features == "probs+nbar" else 5,
            num_classes=len(class_order),
        )
        model = VAEClassifier(spec, seed=seed)
    options = {
        "epochs": _require(config, "epochs", _count, 200),
        "batch_size": _require(config, "batch_size", _batch_size, 512),
        "learning_rate": _require(config, "learning_rate", _learning_rate, 1e-3),
    }

    parts = split_rows(rows, seed=derived_seed(seed, 40))
    train, val, test = (model_inputs(model, part, class_order) for part in parts)
    try:
        # a diverged run is reported by its GradientError, not numpy's overflow warnings
        with np.errstate(all="ignore"):
            history = train_model(model, *train, *val, **options)
    except GradientError as exc:
        raise ConfigError(
            f"training diverged at learning_rate {options['learning_rate']!r}: {exc}"
        ) from exc
    accuracy, _ = evaluate_model(model, *test)

    ckpt_path = out / f"{name}.ckpt"
    save_checkpoint(
        ckpt_path, model, seed=seed, epochs_trained=history.epochs_run, class_labels=class_order,
        hyperparameters={**options, "features": features},
    )
    return {
        "checkpoint": str(ckpt_path),
        "epochs_run": history.epochs_run,
        "final_train_loss": history.train_loss[-1],
        "final_val_loss": history.val_loss[-1] if history.val_loss else None,
        "test_accuracy": accuracy,
    }


def cmd_finetune(args, config: dict, seed: int, out: Path, name: str) -> dict:
    if not args.base_checkpoint:
        raise UsageError("finetune requires --base-checkpoint PATH")
    return cmd_train(args, config, seed, out, name, base=_read_checkpoint(args.base_checkpoint))


def cmd_eval(args, config: dict, seed: int, out: Path, name: str) -> dict:
    paths = _dataset_paths(config)
    for path in paths:  # a path is written into its report and confusion rows
        if any(sep in path for sep in CSV_SEPARATORS):
            raise ConfigError(f"dataset path {path!r} holds a comma or a line break")
    model, header = _read_checkpoint(_require(config, "checkpoint", _text))
    stems = [Path(path).stem for path in paths]
    # a dataset's cells are named after its file stem, or after its path as
    # given, less the suffix, where another dataset has the same file name
    prefixes = [path.removesuffix(Path(path).suffix) if stems.count(stem) > 1 else stem
                for path, stem in zip(paths, stems)]

    def cells():  # one dataset loaded at a time; one cell per bin size it holds
        for path, prefix in zip(paths, prefixes):
            rows = _load_rows([path])
            sizes = sorted(set(rows.bin_size.tolist()))
            for size in sizes:
                part = rows if len(sizes) == 1 else rows.take(rows.bin_size == size)
                fields = {"dataset": str(path), "rows": len(part), "bin_size": size}
                yield prefix if len(sizes) == 1 else f"{prefix}_bin{size}", part, fields

    return _report(out, name, model, list(header["class_labels"]), cells())


def cmd_export_latent(args, config: dict, seed: int, out: Path, name: str) -> dict:
    model, header = _read_checkpoint(_require(config, "checkpoint", _text))
    class_labels = list(header["class_labels"])
    latents = export_latent(model, _load_rows([_require(config, "dataset", _text)]), class_labels)
    latent_path = out / f"{name}_latent.csv"
    write_latent_csv(latent_path, latents, class_labels)
    return {"latent": str(latent_path), "rows": int(latents.shape[0])}


def cmd_sweep(args, config: dict, seed: int, out: Path, name: str) -> dict:
    model, header = _read_checkpoint(_require(config, "checkpoint", _text))
    sources = _parse_sources(_require(config, "classes", _array))
    detector = _require(config, "detector")
    n_detectors = _require(detector, "n_detectors", _count)
    bins_per_class = _require(config, "bins_per_class", _count, 400)
    config["bin_sizes"] = bin_sizes = (
        args.bin_sizes or _require(config, "bin_sizes", _list_of(_count), None)
        or [_require(config, "bin_size", _count)]
    )
    config["etas"] = etas = (
        args.etas or _require(config, "etas", _list_of(_real), None)
        or [_require(detector, "efficiency", _real)]
    )
    try:  # each cell is seeded by its values to the thousandth
        require_thousandths(bin_sizes, "bin_sizes")
        require_thousandths(etas, "etas")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def cells():  # one dataset generated at a time
        for bin_size in bin_sizes:
            for eta in etas:
                meta = _dataset_meta(
                    sources, DetectorConfig(n_detectors, eta), bin_size, bins_per_class,
                    derived_seed(seed, 50, bin_size, round(eta * 1000)),
                )
                rows = generate_dataset(meta).rows
                nbar_obs = float(np.mean(rows.nbar_obs))
                fields = {"bin_size": bin_size, "eta": eta, "nbar_obs": nbar_obs}
                yield f"bin{bin_size}_eta{eta:g}", rows, fields

    return _report(out, name, model, list(header["class_labels"]), cells())


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for bad usage, not argparse's 2
        raise UsageError(message)


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photonvae",
        description="Simulate photon-counting datasets and train/evaluate the VAE classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, extra in (
        ("gen", cmd_gen, ()),
        ("train", cmd_train, ()),
        ("finetune", cmd_finetune, ("base",)),
        ("eval", cmd_eval, ()),
        ("export-latent", cmd_export_latent, ()),
        ("sweep", cmd_sweep, ("grid",)),
    ):
        p = sub.add_parser(command, parents=[], description=f"{command} command")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="global seed override")
        p.add_argument("--out", default=".", help="output directory")
        if "base" in extra:
            p.add_argument("--base-checkpoint", dest="base_checkpoint",
                           help="checkpoint to fine-tune from")
        if "grid" in extra:
            p.add_argument("--bin-sizes", dest="bin_sizes", type=_csv_ints,
                           help="comma-separated bin sizes")
            p.add_argument("--eta", dest="etas", type=_csv_floats,
                           help="comma-separated efficiencies")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        seed = _resolve_seed(config, args)
        name = _require(config, "name", _text, Path(args.config).stem)
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        fields = args.handler(args, config, seed, out, name)
        effective = json.dumps({**config, "seed": seed, "name": name, "out": str(out)},
                               indent=2, sort_keys=True)
        (out / f"{name}.config.json").write_text(effective + "\n")
        summary = {"command": args.command, "name": name, **fields, "seed": seed}
        print(json.dumps(summary, sort_keys=True))
        return 0
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return 1
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 1
    except PhysicsError as exc:
        _log(f"physics validation error: {exc}")
        return 2
    except CheckpointError as exc:
        _log(f"checkpoint error: {exc}")
        return 3
    except DataMismatchError as exc:
        _log(f"dataset/network mismatch: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
