"""Tests of the benchmark's own code: span arithmetic, tracer restore, names, seeds."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import tracer
import workloads
from photonvae import workflows
from photonvae.workflows import TrainPlan, TrainStage

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, parent, start, end):
    return tracer.Span(name=name, parent=parent, start=start, end=end)


def test_self_time_on_nested_span_tree():
    spans = [
        _span("workflows.study", -1, 0.0, 10.0),
        _span("vae.train_model", 0, 1.0, 6.0),
        _span("nn.encoder.forward", 1, 2.0, 4.0),
        _span("nn.dense", 2, 2.5, 3.0),
        _span("nn.batchnorm", 2, 3.0, 3.25),
        _span("nn.adam.step", 1, 4.5, 5.0),
        _span("sampling.generate_dataset", 0, 7.0, 9.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.5, 1.25, 0.5, 0.25, 0.5, 2.0])
    layers = tracer.layer_metrics(spans)
    assert layers["workflows.self_s"] == pytest.approx(3.0)
    assert layers["vae.self_s"] == pytest.approx(2.5)
    assert layers["nn.self_s"] == pytest.approx(2.5)
    assert layers["sampling.self_s"] == pytest.approx(2.0)
    assert layers["nn.encoder.forward.s"] == pytest.approx(2.0)
    # the self times of all spans add up to the root's duration
    assert sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("vae.train_model", -1, 0.0, 4.0),
        _span("nn.dense", 0, 1.0, 3.0),
        _span("nn.dense", 0, 2.0, 5.0),  # overlaps its sibling and outlives the parent
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def _wrapped_attributes():
    return [(owner, attr) for owner, attr, *_ in tracer._targets()]


def test_traced_run_restores_every_original_callable():
    from photonvae import nn, vae

    targets = _wrapped_attributes() + [
        (nn.MLPStack, "forward"), (nn.MLPStack, "backward"), (vae.VAEClassifier, "__init__"),
    ]

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    originals = [current(owner, attr) for owner, attr in targets]
    plan = TrainPlan(
        algorithm="lossless",
        stages=(TrainStage(bin_size=50, epochs=2), TrainStage(bin_size=20, epochs=1)),
        bins_per_class=60,
        eval_bin_sizes=(50, 20),
    )
    with tracer.Tracer() as trace:
        assert all(current(o, a) is not orig for (o, a), orig in zip(targets, originals))
        workflows.run_algorithm1(plan)
    assert all(current(o, a) is orig for (o, a), orig in zip(targets, originals))
    names = {span.name for span in trace.spans}
    assert {"workflows.study", "nn.encoder.forward", "nn.classifier.backward",
            "vae.train_model", "detector.apply_click_model"} <= names
    assert "nn.mlp.forward" not in names  # every stack was attributed to its role


def test_metric_and_workload_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(tracer.LAYER_METRIC_NAMES) + ["trace.overhead_ratio"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_the_plan(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    seeds = []
    for seed in (0, 7):
        for rep in range(run.SEEDS_PER_RUN + 1):
            expected = run.plan_seed(seed, rep)
            plan = workload.plan(expected, tmp_path / f"{seed}-{rep}")
            if isinstance(plan, workloads.CliPlan):
                # the CLI receives the seed only through the config files
                configs = {p.stem: json.loads(p.read_text()) for p in plan.workdir.glob("*.json")}
                assert {configs[c]["seed"] for c in ("train", "eval", "sweep")} == {expected}
                got = configs["train"]["seed"]
            else:
                got = plan.seed
            assert got == expected
            seeds.append(got)
    # distinct run seeds give disjoint plan seeds; a run cycles through SEEDS_PER_RUN of them
    assert len(set(seeds)) == 2 * run.SEEDS_PER_RUN
    assert run.plan_seed(7, run.SEEDS_PER_RUN) == run.plan_seed(7, 0)
