"""In-memory span tracer that times photonvae's public callables from outside.

``Tracer`` replaces each target callable with a wrapper that records a span
(name, start, end, parent, optional tag), and puts every original back on
exit.  A callable is wrapped wherever it is looked up: ``workflows`` imports
``chain_mean`` by name, so both ``photonvae.detector.chain_mean`` and
``photonvae.workflows.chain_mean`` are replaced.  ``layer_metrics`` turns the
recorded spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass

import numpy as np

import photonvae
from photonvae import cli, detector, distributions, nn, sampling, vae, workflows

LAYERS = ("distributions", "detector", "sampling", "nn", "vae", "workflows", "cli")

# Metric names reported by a traced run, in report order; each starts with its layer.
LAYER_METRIC_NAMES = (
    "distributions.source_pmf.calls",
    "distributions.source_pmf.s",
    "distributions.generator.calls",
    "distributions.source_pmf.attempts_per_call",
    "detector.apply_efficiency.calls",
    "detector.apply_efficiency.s",
    "detector.apply_click_model.calls",
    "detector.apply_click_model.s",
    "detector.click_coefficients.s",
    "detector.chain_mean.calls",
    "detector.chain_mean.s",
    "workflows.invert.calls",
    "workflows.invert.s",
    "workflows.invert.chain_evals_per_call",
    "sampling.generate_dataset.calls",
    "sampling.generate_dataset.s",
    "sampling.generate_dataset.bins",
    "sampling.generate_dataset.bins_per_s",
    "sampling.observed_click_pmf.s",
    "sampling.split_rows.s",
    "sampling.feature_matrix.s",
    "sampling.csv_write.s",
    "sampling.csv_write.bytes",
    "sampling.csv_read.s",
    "sampling.csv_read.rows_per_s",
    "nn.encoder.forward.s",
    "nn.encoder.backward.s",
    "nn.decoder.forward.s",
    "nn.decoder.backward.s",
    "nn.classifier.forward.s",
    "nn.classifier.backward.s",
    "nn.dense.s",
    "nn.batchnorm.s",
    "nn.dropout.s",
    "nn.adam.step.calls",
    "nn.adam.step.s",
    "vae.train_model.s",
    "vae.train.steps",
    "vae.train.step_ms.p50",
    "vae.train.step_ms.p95",
    "vae.train.samples_per_s",
    "vae.train.epochs_run",
    "vae.train.epochs_wasted_ratio",
    "vae.assert_finite.s",
    "vae.get_state.calls",
    "vae.evaluate_model.calls",
    "vae.evaluate_model.s",
    "vae.infer.rows_per_s",
    "vae.checkpoint.save.s",
    "vae.checkpoint.load.s",
    "vae.checkpoint.bytes",
    "cli.gen.s",
    "cli.train.s",
    "cli.eval.s",
    "cli.sweep.s",
) + tuple(f"{layer}.self_s" for layer in LAYERS)

_GENERATORS = ("coherent_pmf", "thermal_pmf", "spacs_pmf", "spats_pmf")
_STACK_ROLES = ("encoder", "decoder", "classifier")


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root span
    start: float = 0.0
    end: float = 0.0
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_max_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("n_max", distributions.DEFAULT_N_MAX)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _targets():
    """(owner, attribute, span name, tag before call, tag after call) for every wrapped callable."""
    t = []

    def add(owners, attr, name, before=None, after=None):
        t.extend((owner, attr, name, before, after) for owner in owners)

    add((distributions, sampling, workflows, photonvae), "source_pmf", "distributions.source_pmf")
    for gen in _GENERATORS:
        add((distributions, photonvae), gen, "distributions.generator", before=_n_max_arg)
    add((detector, photonvae), "apply_efficiency", "detector.apply_efficiency")
    add((detector, photonvae), "apply_click_model", "detector.apply_click_model")
    add((detector, photonvae), "click_coefficients", "detector.click_coefficients")
    add((detector, workflows, photonvae), "chain_mean", "detector.chain_mean")
    add((workflows,), "invert_mean_param", "workflows.invert")
    add((workflows,), "invert_shared_intensity", "workflows.invert")
    for study in ("run_algorithm1", "run_algorithm2", "run_mixed_grid"):
        add((workflows,), study, "workflows.study")
    add((sampling, workflows, cli), "generate_dataset", "sampling.generate_dataset",
        after=lambda a, k, r: len(r.rows))
    add((sampling,), "observed_click_pmf", "sampling.observed_click_pmf")
    add((sampling, cli), "split_rows", "sampling.split_rows")
    add((sampling, workflows, cli), "feature_matrix", "sampling.feature_matrix")
    add((sampling, cli), "write_dataset_csv", "sampling.csv_write", after=_file_size)
    add((sampling, cli), "load_dataset_csv", "sampling.csv_read", after=lambda a, k, r: len(r))
    for cls, name in ((nn.Dense, "nn.dense"), (nn.BatchNorm, "nn.batchnorm")):
        add((cls,), "forward", name)
        add((cls,), "backward", name)
    add((nn,), "dropout_forward", "nn.dropout")
    add((nn,), "dropout_backward", "nn.dropout")
    add((nn.Adam,), "step", "nn.adam.step")
    add((vae, workflows, cli), "train_model", "vae.train_model",
        after=lambda a, k, r: (r.epochs_run, r.best_epoch))
    add((vae.VAEClassifier,), "loss_and_grads", "vae.loss_and_grads",
        before=lambda a, k: len(a[1]))
    add((vae.VAEClassifier,), "assert_finite", "vae.assert_finite")
    add((vae.VAEClassifier,), "get_state", "vae.get_state")
    add((vae, workflows, cli), "evaluate_model", "vae.evaluate_model",
        before=lambda a, k: len(a[1]))
    add((vae, cli), "save_checkpoint", "vae.checkpoint.save", after=_file_size)
    add((vae, cli), "load_checkpoint", "vae.checkpoint.load")
    add((cli,), "main", "cli.main")
    for command in ("gen", "train", "eval", "sweep"):
        add((cli,), f"cmd_{command}", f"cli.{command}")
    return t


class Tracer:
    """Context manager: wraps the targets on entry, restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # which VAEClassifier attribute holds each MLPStack
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __enter__(self):
        for owner, attr, name, before, after in _targets():
            self._wrap(owner, attr, name, before, after)
        for method in ("forward", "backward"):
            self._wrap(nn.MLPStack, method, self._stack_span_name(method), None, None)
        self._wrap_model_init()
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _save(self, owner, attr):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        return original

    def _wrap(self, owner, attr, name, before, after) -> None:
        original = self._save(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name(args) if callable(name) else name, stack[-1] if stack else -1)
            if before is not None:
                span.tag = before(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                span.tag = after(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def _stack_span_name(self, method):
        roles = self._roles
        return lambda args: f"nn.{roles.get(args[0], 'mlp')}.{method}"

    def _wrap_model_init(self) -> None:
        original = self._save(vae.VAEClassifier, "__init__")
        roles = self._roles

        def init(model, *args, **kwargs):
            original(model, *args, **kwargs)
            for role in _STACK_ROLES:
                roles[getattr(model, role)] = role

        init.__wrapped__ = original
        vae.VAEClassifier.__init__ = init


# --- span arithmetic ------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced workload repetition."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    tags: dict[str, list] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        secs[span.name] = secs.get(span.name, 0.0) + span.duration
        if span.tag is not None:
            tags.setdefault(span.name, []).append(span.tag)

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def tag_sum(name):
        return sum(tags.get(name, ()))

    m: dict[str, float] = {}
    m["distributions.source_pmf.calls"] = n("distributions.source_pmf")
    m["distributions.source_pmf.s"] = s("distributions.source_pmf")
    m["distributions.generator.calls"] = n("distributions.generator")
    attempts = {
        (span.parent, span.tag)
        for span in spans
        if span.name == "distributions.generator"
        and span.parent >= 0
        and spans[span.parent].name == "distributions.source_pmf"
    }
    m["distributions.source_pmf.attempts_per_call"] = _ratio(
        len(attempts), n("distributions.source_pmf")
    )
    for fn in ("apply_efficiency", "apply_click_model", "chain_mean"):
        m[f"detector.{fn}.calls"] = n(f"detector.{fn}")
        m[f"detector.{fn}.s"] = s(f"detector.{fn}")
    m["detector.click_coefficients.s"] = s("detector.click_coefficients")

    m["workflows.invert.calls"] = n("workflows.invert")
    m["workflows.invert.s"] = s("workflows.invert")
    in_invert = sum(
        1
        for i, span in enumerate(spans)
        if span.name == "detector.chain_mean" and _has_ancestor(spans, i, "workflows.invert")
    )
    m["workflows.invert.chain_evals_per_call"] = _ratio(in_invert, n("workflows.invert"))

    bins = tag_sum("sampling.generate_dataset")
    m["sampling.generate_dataset.calls"] = n("sampling.generate_dataset")
    m["sampling.generate_dataset.s"] = s("sampling.generate_dataset")
    m["sampling.generate_dataset.bins"] = bins
    m["sampling.generate_dataset.bins_per_s"] = _ratio(bins, s("sampling.generate_dataset"))
    for fn in ("observed_click_pmf", "split_rows", "feature_matrix", "csv_write", "csv_read"):
        m[f"sampling.{fn}.s"] = s(f"sampling.{fn}")
    m["sampling.csv_write.bytes"] = tag_sum("sampling.csv_write")
    m["sampling.csv_read.rows_per_s"] = _ratio(tag_sum("sampling.csv_read"), s("sampling.csv_read"))

    for role in _STACK_ROLES:
        for method in ("forward", "backward"):
            m[f"nn.{role}.{method}.s"] = s(f"nn.{role}.{method}")
    for part in ("dense", "batchnorm", "dropout"):
        m[f"nn.{part}.s"] = s(f"nn.{part}")
    m["nn.adam.step.calls"] = n("nn.adam.step")
    m["nn.adam.step.s"] = s("nn.adam.step")

    steps = _train_steps(spans)
    step_ms = np.array([1e3 * dt for dt, _ in steps]) if steps else np.zeros(1)
    epochs = tags.get("vae.train_model", [])
    epochs_run = sum(run for run, _ in epochs)
    wasted = sum(run - 1 - best for run, best in epochs if best >= 0)
    m["vae.train_model.s"] = s("vae.train_model")
    m["vae.train.steps"] = len(steps)
    m["vae.train.step_ms.p50"] = float(np.percentile(step_ms, 50))
    m["vae.train.step_ms.p95"] = float(np.percentile(step_ms, 95))
    m["vae.train.samples_per_s"] = _ratio(sum(r for _, r in steps), sum(dt for dt, _ in steps))
    m["vae.train.epochs_run"] = epochs_run
    m["vae.train.epochs_wasted_ratio"] = _ratio(wasted, epochs_run)
    m["vae.assert_finite.s"] = s("vae.assert_finite")
    m["vae.get_state.calls"] = n("vae.get_state")
    m["vae.evaluate_model.calls"] = n("vae.evaluate_model")
    m["vae.evaluate_model.s"] = s("vae.evaluate_model")
    m["vae.infer.rows_per_s"] = _ratio(tag_sum("vae.evaluate_model"), s("vae.evaluate_model"))
    m["vae.checkpoint.save.s"] = s("vae.checkpoint.save")
    m["vae.checkpoint.load.s"] = s("vae.checkpoint.load")
    m["vae.checkpoint.bytes"] = tag_sum("vae.checkpoint.save")
    for command in ("gen", "train", "eval", "sweep"):
        m[f"cli.{command}.s"] = s(f"cli.{command}")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer_self[span.name.split(".", 1)[0]] += own
    for layer, own in layer_self.items():
        m[f"{layer}.self_s"] = own
    return {name: float(m[name]) for name in LAYER_METRIC_NAMES}


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _train_steps(spans: list[Span]) -> list[tuple[float, int]]:
    """(seconds, batch rows) per optimizer step: from the start of
    ``loss_and_grads`` to the end of the ``assert_finite`` that closes the step."""
    steps = []
    open_step: Span | None = None
    for span in spans:
        if span.parent < 0 or spans[span.parent].name != "vae.train_model":
            continue
        if span.name == "vae.loss_and_grads":
            open_step = span
        elif span.name == "vae.assert_finite" and open_step is not None:
            steps.append((span.end - open_step.start, open_step.tag))
            open_step = None
    return steps
