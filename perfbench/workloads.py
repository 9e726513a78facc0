"""The three workloads: their seeded inputs, one operation each, and its checks.

Every operation runs the package calls under a timer and then checks the
outputs outside the timer, against ``reference`` or against properties the
method must have.  A typed package error ends the operation as failed; a
check that does not hold raises ``CheckFailed``.  The package modules are
looked up at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from clock import UNTIMED
from curvednbody import dynamics, fixedpoints, geometry, reduction, stability
from curvednbody.errors import CurvedNBodyError
from curvednbody.geometry import RingConfiguration
from reference import (
    RingModel,
    admissibility,
    check,
    draw_triples,
    edge_triple,
    match_spectra,
    reference_ring,
    region_counts,
    verdict,
)

# Atlas: 60 sampled triples and 4 edge triples per round.  Sampled triples
# keep their quartic at or below 2 % of its equal-mass value: closer to the
# boundary some of them fail for faults of the package (see the README), and
# which ones depends on the seed.
ATLAS_SAMPLED = 60
ATLAS_DEPTH = 0.02
EDGE_FRACTION = 0.999999
EDGE_ANGLES = tuple(0.1 + (k + 0.5) * math.pi / 2.0 for k in range(4))
OMEGA_GRID = 32
NEWTON_OFFSET = 1e-3

# Flow: 8 interior triples per round, quartic at most half its equal-mass value.
FLOW_TRIPLES = 8
FLOW_DEPTH = 0.5
FLOW_STEPS = 1000
FLOW_STEP = 1e-3
EQUATOR_OFFSET = 1e-3
REDUCED_OFFSET = 1e-2

# Gates of the acceptance suite (energy and momentum drift, growth rate).
ENERGY_GATE = 1e-9
MOMENTUM_GATE = 1e-12
GROWTH_GATE = 0.10
BOUNDARY_TOL = 1e-9
# Relative agreement demanded between package and reference values; both
# agree to about 1e-15 on every triple drawn here.
REL_TOL = 1e-10


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _unit(raw):
    total = sum(raw)
    return tuple(m / total for m in raw)


class CommandFailed(Exception):
    """A CLI command returned a nonzero exit code."""


class Item:
    """One triple with the benchmark's own ring model of it."""

    def __init__(self, raw, edge=False):
        self.raw = raw
        self.edge = edge
        self.masses = _unit(raw)
        self.model = RingModel(self.masses, reference_ring(self.masses))
        self.lam1 = self.model.lambda1()
        self.omega_crit = math.sqrt(self.lam1)


class Workload:
    name = ""

    def timed(self, item, timer=UNTIMED):
        """Run one operation, its package calls timed by ``timer``; return
        whether it failed."""
        try:
            out = self.compute(item, timer)
        except (CurvedNBodyError, CommandFailed):
            timer.stop()
            return True
        self.verify(item, out)
        return False


class Atlas(Workload):
    """One sampled or edge mass triple through construction, certificate,
    spectra, invariant splitting, general linearization, gradient and Newton."""

    name = "atlas"

    def __init__(self, seed, workdir=None):
        sampled = [Item(raw) for raw in draw_triples(_rng(seed, 1), ATLAS_SAMPLED, ATLAS_DEPTH)]
        edges = [Item(edge_triple(a, EDGE_FRACTION), edge=True) for a in EDGE_ANGLES]
        per_edge = len(sampled) // len(edges)
        self.items = []
        for k, edge in enumerate(edges):
            self.items.extend(sampled[k * per_edge : (k + 1) * per_edge])
            self.items.append(edge)

    def compute(self, item, timer=UNTIMED):
        timer.start()
        triple = fixedpoints.as_mass_triple(item.raw)
        shape = fixedpoints.shape_from_masses(triple)
        back = fixedpoints.masses_from_shape(shape)
        ring = fixedpoints.ring_from_shape(shape)
        mv = triple.mass_vector()
        cert = reduction.lyapunov_certificate(triple)
        blocks = stability.assemble_blocks(mv, ring)
        wc = item.omega_crit
        grid = np.linspace(0.0, 2.0 * wc, OMEGA_GRID)
        reports = [stability.spectral_analysis(blocks, float(w)) for w in grid]
        splits = [stability.invariant_subspaces(blocks, f * wc) for f in (0.5, 1.5)]
        re_state = dynamics.relative_equilibrium(mv, ring, 1.5 * wc)
        lgen = stability.assemble_L_general(mv, re_state)
        grad = geometry.force_gradient(mv, ring)
        phis = ring.longitudes
        start = RingConfiguration(
            (phis[0], phis[1] + NEWTON_OFFSET, phis[2] - NEWTON_OFFSET)
        )
        solved = fixedpoints.solve_fixed_point_numeric(mv, start)
        timer.stop()
        return dict(
            triple=triple, back=back, ring=ring, cert=cert, blocks=blocks,
            grid=grid, reports=reports, splits=splits, lgen=lgen, grad=grad,
            solved=solved,
        )

    def verify(self, item, out):
        m = np.array(out["triple"].as_tuple())
        check(np.max(np.abs(m - item.masses)) <= 1e-15, "triple not normalized")
        check(float(admissibility(*m)) < 0.0, "accepted a triple outside the region")
        back = np.array(out["back"].as_tuple())
        err = float(np.max(np.abs(back - m)))
        check(err <= 1e-10, "mass-shape round trip off by %.3g", err)
        phis = np.array(out["ring"].longitudes)
        err = float(np.max(np.abs(phis - item.model.phi)))
        check(err <= 1e-9, "ring differs from the reference ring by %.3g", err)

        model = RingModel(m, phis)
        total = abs(float(model.residual.sum()))
        check(total <= 1e-14 * model.scale, "residual entries sum to %.3g", total)
        worst = float(np.max(np.abs(model.residual)))
        check(worst <= REL_TOL * model.scale,
              "residual %.3g against pair-force scale %.3g", worst, model.scale)
        blocks = out["blocks"]
        for got, want in ((blocks.vertical, model.vertical), (blocks.tangential, model.tangential)):
            err = float(np.max(np.abs(got - want)))
            check(err <= REL_TOL * model.scale, "coupling block off by %.3g", err)

        lam1 = model.lambda1()
        for w, rep in zip(out["grid"], out["reports"]):
            check(abs(rep.lambda1 - lam1) <= REL_TOL * lam1,
                  "lambda1 %.17g, trace of the vertical block %.17g", rep.lambda1, lam1)
            want = verdict(float(w), lam1, BOUNDARY_TOL)
            check(rep.verdict == want, "verdict %s at omega %.6g, expected %s",
                  rep.verdict, w, want)
        check(out["cert"].certified, "ring fixed point not certified")

        wc = item.omega_crit
        for f, split in zip((0.5, 1.5), out["splits"]):
            want = model.transverse_spectrum(f * wc)
            match_spectra(split.transverse_spectrum, want,
                          REL_TOL * max(1.0, float(np.max(np.abs(want)))))
        lblock = model.flow_matrix(1.5 * wc)
        err = float(np.max(np.abs(out["lgen"] - lblock)))
        check(err <= REL_TOL * float(np.max(np.abs(lblock))),
              "general linearization differs from the block form by %.3g", err)
        grad = float(np.max(np.abs(out["grad"])))
        check(grad <= REL_TOL * model.scale, "force gradient %.3g at the ring", grad)
        err = float(np.max(np.abs(np.array(out["solved"].longitudes) - phis)))
        check(err <= 1e-8, "Newton solve lands %.3g from the ring", err)


class Flow(Workload):
    """One interior triple through a perturbed rotating-ring integration, a
    growth-rate experiment and a reduced integration."""

    name = "flow"

    def __init__(self, seed, workdir=None):
        rng = _rng(seed, 2)
        self.items = []
        for raw in draw_triples(rng, FLOW_TRIPLES, FLOW_DEPTH):
            item = Item(raw)
            u = rng.uniform(-1.0, 1.0, 3)
            item.offset = EQUATOR_OFFSET * u / np.max(np.abs(u))
            self.items.append(item)

    def compute(self, item, timer=UNTIMED):
        timer.start()
        triple = fixedpoints.as_mass_triple(item.raw)
        mv = triple.mass_vector()
        shape = fixedpoints.shape_from_masses(triple)
        ring = fixedpoints.ring_from_shape(shape)
        fast = 1.5 * item.omega_crit
        x0 = dynamics.relative_equilibrium(mv, ring, fast).as_vector()
        x0[0:3] += item.offset
        record = dynamics.integrate(
            mv, x0, FLOW_STEPS * FLOW_STEP, step=FLOW_STEP, omega=fast
        )
        fit = dynamics.growth_rate_experiment(triple, 0.5 * item.omega_crit)
        rest = reduction.rest_point_from_shape(shape, triple)
        start = reduction.ReducedState(
            rest.phi1 + REDUCED_OFFSET, rest.phi2, rest.p1, rest.p2, rest.momentum_level
        )
        reduced = reduction.integrate_reduced(
            triple, start, FLOW_STEPS * FLOW_STEP, step=FLOW_STEP
        )
        timer.stop()
        return dict(record=record, fit=fit, rest=rest.as_vector(), reduced=reduced)

    def verify(self, item, out):
        record = out["record"]
        check(record.states.shape == (FLOW_STEPS // 10 + 1, 12),
              "trajectory has %s samples", record.states.shape)
        check(record.energy_drift < ENERGY_GATE, "energy drift %.3g", record.energy_drift)
        check(record.momentum_drift < MOMENTUM_GATE,
              "momentum drift %.3g", record.momentum_drift)
        dev = float(np.max(np.abs(record.states[:, 0:3] - math.pi / 2.0)))
        check(abs(dev - record.max_equator_deviation) <= 1e-15,
              "equator deviation misreported")
        check(dev < 10.0 * EQUATOR_OFFSET,
              "equator deviation grew to %.3g above the critical rate", dev)
        fit = out["fit"]
        expected = math.sqrt(item.lam1 - 0.25 * item.lam1)
        err = abs(fit.rate - expected) / expected
        check(err < GROWTH_GATE, "growth rate %.6g, expected %.6g", fit.rate, expected)
        reduced = out["reduced"]
        check(reduced.energy_drift < ENERGY_GATE,
              "reduced energy drift %.3g", reduced.energy_drift)
        dev = float(np.max(np.abs(reduced.states - out["rest"])))
        check(dev < 10.0 * REDUCED_OFFSET, "reduced run wandered to %.3g", dev)


def parse_report(text):
    """``[section]`` / ``key: value`` report text as {"section.key": value}."""
    values = {}
    section = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif ": " in line:
            key, _, val = line.partition(": ")
            values["%s.%s" % (section, key)] = val
    return values


def read_csv(path):
    """Header fields and data rows of a CSV file; the file must end in a newline."""
    with open(path) as fh:
        text = fh.read()
    check(text.endswith("\n"), "%s is cut short", os.path.basename(path))
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        check(len(row) == len(header), "%s has a short row", os.path.basename(path))
    return header, rows


TRAJECTORY_HEADER = (
    ["t"]
    + ["%s_%d" % (p, i) for p in ("theta", "phi", "p_theta", "p_phi") for i in (1, 2, 3)]
    + ["H", "J"]
)
SWEEP_HEADER = ["omega", "lambda1", "omega_critical", "verdict", "unstable_exponent"]
REGION_RESOLUTION = 512
SWEEP_COUNT = 2001
SIM_HORIZON = 1.0


class Cli(Workload):
    """One pass of a fixed script through ``curvednbody.cli.main`` in-process."""

    name = "cli"

    def __init__(self, seed, workdir):
        # only this workload loads the CLI module, so only its set-up pays for it
        from curvednbody import cli

        self.cli = cli
        rng = _rng(seed, 3)
        self.item = Item(draw_triples(rng, 1, FLOW_DEPTH)[0])
        self.items = [self.item]
        self.sim_seed = int(rng.integers(0, 2 ** 31))
        self.workdir = workdir
        wc = self.item.omega_crit
        # the sweep ends just past 2 omega_crit, so no grid rate sits on the boundary
        self.sweep_max = 2.0005 * wc
        ms = [repr(m) for m in self.item.raw]
        path = self.path
        with open(path("config.json"), "w") as fh:
            json.dump({"masses": list(self.item.raw), "omega": 0.5 * wc}, fh)
        self.script = [
            ["region-scan", "--resolution", str(REGION_RESOLUTION), "--output", path("region.csv")],
            ["fixed-point", "--masses", *ms, "--solve", "--degrees"],
            ["stability", "--masses", *ms, "--omega", repr(1.5 * wc)],
            ["simulate", "--masses", *ms, "--omega", repr(1.5 * wc), "--mode", "re",
             "--horizon", repr(SIM_HORIZON), "--output", path("re.csv")],
            ["simulate", "--masses", *ms, "--omega", repr(1.5 * wc), "--mode", "perturbed",
             "--horizon", repr(SIM_HORIZON), "--seed", str(self.sim_seed)],
            ["simulate", "--masses", *ms, "--omega", repr(0.5 * wc), "--mode", "growth",
             "--horizon", "200", "--step", "0.01", "--output", path("growth.csv")],
            ["omega-sweep", "--masses", *ms, "--omega-min", "0", "--omega-max",
             repr(self.sweep_max), "--count", str(SWEEP_COUNT), "--workers", "2",
             "--output", path("sweep.csv")],
            ["stability", "--config", path("config.json")],
        ]
        self.first_stdout = None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def compute(self, item, timer=UNTIMED):
        """Run the script; each command is timed as its own piece."""
        outputs = []
        for argv in self.script:
            buf = io.StringIO()
            timer.start()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
            timer.stop()
            if code != 0:
                raise CommandFailed("%s exited with %d" % (argv[0], code))
            outputs.append(buf.getvalue())
        return outputs

    def verify(self, item, outputs):
        joined = "".join(outputs)
        if self.first_stdout is None:
            self.first_stdout = joined
        check(joined == self.first_stdout, "stdout differs from the first pass")
        scan, fixed, stab, re_run, perturbed, growth, sweep, config = map(parse_report, outputs)
        lam1 = item.lam1
        wc = item.omega_crit

        cells, inside = region_counts(REGION_RESOLUTION)
        check(int(scan["region-scan.simplex_cells"]) == cells, "simplex cell count")
        check(int(scan["region-scan.admissible_cells"]) == inside,
              "admissible_cells %s, own count %d", scan["region-scan.admissible_cells"], inside)
        header, rows = read_csv(self.path("region.csv"))
        check(header == ["m1", "m2", "value", "admissible"], "region.csv header")
        check(len(rows) == cells, "region.csv has %d rows, expected %d", len(rows), cells)
        check(sum(row[3] == "1" for row in rows) == inside, "region.csv admissible column")

        check(fixed["certificate.certified"] == "yes", "fixed point not certified")
        dist = float(fixed["solver.distance_to_constructed"])
        check(dist <= 1e-8, "Newton solve lands %.3g from the ring", dist)
        alpha = float(fixed["shape.alpha"])
        check(abs(alpha - item.model.phi[1]) <= 1e-9, "alpha differs from the reference")
        check(abs(float(fixed["shape.alpha_deg"]) - math.degrees(alpha)) <= 1e-12 * 180.0,
              "alpha in degrees")

        for rep, want in ((stab, "re-linearly-stable"), (config, "re-unstable")):
            got = float(rep["classification.lambda1"])
            check(abs(got - lam1) <= REL_TOL * lam1, "stability lambda1 %.17g", got)
            check(rep["classification.verdict"] == want,
                  "verdict %s, expected %s", rep["classification.verdict"], want)

        for run in (re_run, perturbed):
            check(float(run["monitors.energy_drift"]) < ENERGY_GATE, "simulate energy drift")
            check(float(run["monitors.momentum_drift"]) < MOMENTUM_GATE,
                  "simulate momentum drift")
        check(float(re_run["monitors.max_equator_deviation"]) < 1e-9,
              "the rotating ring left the equator")
        header, rows = read_csv(self.path("re.csv"))
        steps = int(round(SIM_HORIZON / 1e-3))
        check(header == TRAJECTORY_HEADER, "re.csv header")
        check(len(rows) == steps // 10 + 1, "re.csv has %d rows", len(rows))

        check(growth["growth.outcome"] == "growth-measured", "no growth at half the critical rate")
        expected = math.sqrt(0.75 * lam1)
        rate = float(growth["growth.rate"])
        check(abs(rate - expected) / expected < GROWTH_GATE,
              "growth rate %.6g, expected %.6g", rate, expected)
        header, rows = read_csv(self.path("growth.csv"))
        check(header == ["t", "deviation"], "growth.csv header")
        times = np.array([float(r[0]) for r in rows])
        devs = np.array([float(r[1]) for r in rows])
        check(np.allclose(times, 0.1 * np.arange(len(rows)), rtol=0.0, atol=1e-9),
              "growth.csv rows are not consecutive samples")
        check(devs[-1] > 2e-2 >= float(np.max(devs[:-1])),
              "growth.csv does not end at the first sample past the fit ceiling")

        grid = np.linspace(0.0, self.sweep_max, SWEEP_COUNT)
        first = next(w for w in grid if w * w > lam1)
        got = float(sweep["sweep.first_stable_omega"])
        check(abs(got - first) <= 1e-12 * wc,
              "first_stable_omega %.17g, expected %.17g", got, first)
        header, rows = read_csv(self.path("sweep.csv"))
        check(header == SWEEP_HEADER, "sweep.csv header")
        check(len(rows) == SWEEP_COUNT, "sweep.csv has %d rows", len(rows))
        for w, row in zip(grid, rows):
            check(row[3] == verdict(float(w), lam1, BOUNDARY_TOL),
                  "sweep verdict %s at omega %.6g", row[3], w)


WORKLOADS = {"atlas": Atlas, "flow": Flow, "cli": Cli}
