"""Tests of the benchmark's own checks and trace wrappers.

    python3 -m pytest perfbench -q

Each check must reject a deliberately corrupted output, and tracing must
not change what the package computes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from curvednbody import dynamics, integrators, reduction, stability  # noqa: E402
from curvednbody.geometry import RingConfiguration  # noqa: E402
from reference import CheckFailed, admissibility, edge_triple  # noqa: E402

SEED = 7


def same(a, b):
    """Exact equality through dataclasses, dicts, sequences and arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.fixture(scope="module")
def atlas():
    wl = workloads.Atlas(SEED)
    item = next(i for i in wl.items if not i.edge)
    return wl, item, wl.compute(item)


@pytest.fixture(scope="module")
def flow():
    wl = workloads.Flow(SEED)
    item = wl.items[0]
    return wl, item, wl.compute(item)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    wl = workloads.Cli(SEED, str(tmp_path_factory.mktemp("cli")))
    outputs = wl.compute(wl.item)
    wl.verify(wl.item, outputs)
    return wl, outputs


def replace_report(out, k, **changes):
    reports = list(out["reports"])
    reports[k] = dataclasses.replace(reports[k], **changes)
    return dict(out, reports=reports)


def test_atlas_accepts_the_package_outputs(atlas):
    wl, item, out = atlas
    wl.verify(item, out)


def _atlas_corruptions(out):
    rep = out["reports"][5]
    ring = out["ring"].longitudes
    split = out["splits"][1]
    spectrum = list(split.transverse_spectrum)
    spectrum[0] *= 1.0 + 1e-6
    blocks = out["blocks"]
    back = out["back"].as_tuple()
    flipped = "re-linearly-stable" if rep.verdict == "re-unstable" else "re-unstable"
    return {
        "lambda1": replace_report(out, 5, lambda1=rep.lambda1 * (1.0 + 1e-6)),
        "verdict": replace_report(out, 5, verdict=flipped),
        "ring": dict(out, ring=RingConfiguration((ring[0], ring[1] + 1e-7, ring[2]))),
        "round_trip": dict(out, back=type(out["back"])(back[0] * (1 + 1e-8), back[1], back[2])),
        "certificate": dict(out, cert=dataclasses.replace(out["cert"], certified=False)),
        "vertical": dict(out, blocks=dataclasses.replace(
            blocks, vertical=blocks.vertical * (1.0 + 1e-6))),
        "spectrum": dict(out, splits=[out["splits"][0], dataclasses.replace(
            split, transverse_spectrum=tuple(spectrum))]),
        "general_L": dict(out, lgen=out["lgen"] * (1.0 + 1e-6)),
        "gradient": dict(out, grad=out["grad"] + 1e-6),
        "newton": dict(out, solved=RingConfiguration(
            (ring[0], ring[1] + 1e-7, ring[2]))),
    }


@pytest.mark.parametrize("what", [
    "lambda1", "verdict", "ring", "round_trip", "certificate",
    "vertical", "spectrum", "general_L", "gradient", "newton",
])
def test_atlas_rejects_a_corrupted_output(atlas, what):
    wl, item, out = atlas
    with pytest.raises(CheckFailed):
        wl.verify(item, _atlas_corruptions(out)[what])


def test_flow_accepts_the_package_outputs(flow):
    wl, item, out = flow
    wl.verify(item, out)


@pytest.mark.parametrize("what", ["energy", "momentum", "equator", "growth", "reduced"])
def test_flow_rejects_a_corrupted_output(flow, what):
    wl, item, out = flow
    record = out["record"]
    if what == "energy":
        out = dict(out, record=dataclasses.replace(record, energy_drift=2e-9))
    elif what == "momentum":
        out = dict(out, record=dataclasses.replace(record, momentum_drift=2e-12))
    elif what == "equator":
        states = record.states.copy()
        states[-1, 0] += 0.02
        out = dict(out, record=dataclasses.replace(
            record, states=states, max_equator_deviation=float(
                np.max(np.abs(states[:, 0:3] - np.pi / 2)))))
    elif what == "growth":
        out = dict(out, fit=dataclasses.replace(out["fit"], rate=out["fit"].rate * 1.2))
    else:
        states = out["reduced"].states.copy()
        states[-1, 0] += 0.2
        out = dict(out, reduced=dataclasses.replace(out["reduced"], states=states))
    with pytest.raises(CheckFailed):
        wl.verify(item, out)


def _truncate(path):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: text.rindex("\n", 0, len(text) - 1) + 1])


def _cut_mid_row(path):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[:-5])


@pytest.mark.parametrize("csv", ["region.csv", "re.csv", "growth.csv", "sweep.csv"])
@pytest.mark.parametrize("damage", [_truncate, _cut_mid_row])
def test_cli_rejects_a_truncated_csv(cli, csv, damage):
    wl, outputs = cli
    path = wl.path(csv)
    with open(path) as fh:
        original = fh.read()
    try:
        damage(path)
        with pytest.raises(CheckFailed):
            wl.verify(wl.item, outputs)
    finally:
        with open(path, "w") as fh:
            fh.write(original)
    wl.verify(wl.item, outputs)


@pytest.mark.parametrize("index, old, new", [
    (0, "admissible_cells: ", "admissible_cells: 1"),
    (2, "verdict: re-linearly-stable", "verdict: re-unstable"),
    (7, "verdict: re-unstable", "verdict: re-linearly-stable"),
    (6, "first_stable_omega: ", "first_stable_omega: 9"),
    (1, "certified: yes", "certified: no"),
])
def test_cli_rejects_a_corrupted_report(cli, index, old, new):
    wl, outputs = cli
    changed = list(outputs)
    assert old in changed[index]
    changed[index] = changed[index].replace(old, new, 1)
    first = wl.first_stdout
    try:
        wl.first_stdout = "".join(changed)
        with pytest.raises(CheckFailed):
            wl.verify(wl.item, changed)
    finally:
        wl.first_stdout = first


def test_cli_rejects_stdout_that_changes_between_passes(cli):
    wl, outputs = cli
    changed = list(outputs)
    changed[3] = changed[3].replace("method: midpoint", "method: midpoint ")
    with pytest.raises(CheckFailed):
        wl.verify(wl.item, changed)


def test_edge_triples_sit_just_inside_the_boundary():
    for angle in workloads.EDGE_ANGLES:
        inside = edge_triple(angle, workloads.EDGE_FRACTION)
        outside = edge_triple(angle, 1.0 + 1e-6)
        assert admissibility(*inside) < 0.0 < admissibility(*outside)


def test_traced_outputs_equal_untraced_outputs(atlas, flow, cli):
    plain = [atlas, flow]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = [wl.compute(item) for wl, item, _ in plain]
        cli_traced = cli[0].compute(cli[0].item)
    finally:
        uninstall()
    for (_, _, out), again in zip(plain, traced):
        assert same(out, again)
    assert cli_traced == cli[1]
    summary = spans.summarize(tracer.take(), tracer.names)
    assert summary["stability.spectral_analysis"]["calls"] > workloads.OMEGA_GRID
    assert summary["dynamics.integrate"]["calls"] == 3
    assert summary["cli.simulate"]["calls"] == 3


def test_install_reaches_every_importer_and_uninstall_restores():
    originals = (integrators.midpoint_step, stability.assemble_blocks)
    uninstall = spans.install(spans.Tracer())
    try:
        assert dynamics.midpoint_step is not originals[0]
        assert reduction.midpoint_step is not originals[0]
        assert dynamics.assemble_blocks is not originals[1]
        assert dynamics.midpoint_step.__wrapped__ is originals[0]
    finally:
        uninstall()
    assert dynamics.midpoint_step is originals[0]
    assert reduction.midpoint_step is originals[0]
    assert dynamics.assemble_blocks is originals[1]


def test_stepper_wrapper_counts_each_field_evaluation():
    calls = []

    def field(x):
        calls.append(1)
        return -x

    tracer = spans.Tracer()
    step = tracer.wrap_stepper(integrators.midpoint_step, "test.field")
    x = np.array([1.0, 0.5])
    y = step(field, x, 0.1)
    assert np.array_equal(y, integrators.midpoint_step(lambda v: -v, x, 0.1))
    summary = spans.summarize(tracer.take(), tracer.names)
    assert summary["test.field"]["calls"] == len(calls)
    assert summary["integrators.midpoint_step"]["calls"] == 1


def test_wrapper_reraises_and_marks_the_span_failed():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("t.boom", boom)()
    summary = spans.summarize(tracer.take(), tracer.names)
    assert (summary["t.boom"]["calls"], summary["t.boom"]["failed"]) == (1, 1)


def test_self_time_subtracts_direct_children():
    recorded = {
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
        "name": np.array([0, 1, 2, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
        "failed": np.zeros(4, dtype=np.int8),
        "bytes_written": 0,
    }
    summary = spans.summarize(recorded, ["a", "b", "c"])
    assert summary["a"]["self"] == 10.0 - 3.0 - 1.0
    assert summary["b"]["self"] == (3.0 - 1.0) + 1.0
    assert summary["c"]["self"] == 1.0


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    reported = [(name, unit) for name, unit, _ in layers.METRICS]
    assert listed == reported + [("src.lines", "lines"), ("machine.ref_ms", "ms")]
    assert set(layers.HOMES) == set(workloads.WORKLOADS)
