"""Per-layer metrics of the traced run, each measured on its home workload.

A metric's home is the workload whose end-to-end numbers it should move:
``flow`` for the integrator, the two vector fields and the energy, ``atlas``
for the fixed-point, certificate, stability and geometry functions, and
``cli`` for the reports and commands.  Counts are per round of the home
workload; a round is the same set of operations every time, so a count
repeats exactly between two traced runs with the same seed.  Times are
scaled to the nominal machine speed (``clock``) by the median speed sample
taken while the home workload ran.

A metric is named ``<span>.<statistic>``: the span it reads, then one of
the statistics in ``_value``.
"""

from __future__ import annotations

from spans import summarize

# (metric, unit, home workload)
METRICS = (
    ("integrators.midpoint_step.calls", "count", "flow"),
    ("integrators.midpoint_step.evals_per_step", "count", "flow"),
    ("integrators.midpoint_step.self_us", "us", "flow"),
    ("dynamics.field.evals", "count", "flow"),
    ("dynamics.field.us_per_eval", "us", "flow"),
    ("dynamics.hamiltonian.calls", "count", "flow"),
    ("dynamics.hamiltonian.us_per_call", "us", "flow"),
    ("dynamics.integrate.self_ms", "ms", "flow"),
    ("dynamics.growth_rate_experiment.self_ms", "ms", "flow"),
    ("reduction.field.us_per_eval", "us", "flow"),
    ("reduction.integrate_reduced.self_ms", "ms", "flow"),
    ("reduction.lyapunov_certificate.us_per_call", "us", "atlas"),
    ("stability.assemble_blocks.us_per_call", "us", "atlas"),
    ("stability.assemble_blocks.failed", "count", "atlas"),
    ("stability.spectral_analysis.calls", "count", "atlas"),
    ("stability.spectral_analysis.us_per_call", "us", "atlas"),
    ("stability.invariant_subspaces.us_per_call", "us", "atlas"),
    ("stability.assemble_L_general.us_per_call", "us", "atlas"),
    ("fixedpoints.shape_from_masses.us_per_call", "us", "atlas"),
    ("fixedpoints.fixed_point_residual.us_per_call", "us", "atlas"),
    ("fixedpoints.solve_fixed_point_numeric.us_per_call", "us", "atlas"),
    ("fixedpoints.solve_fixed_point_numeric.failed", "count", "atlas"),
    ("geometry.force_gradient.us_per_call", "us", "atlas"),
    ("report.write_csv.ms", "ms", "cli"),
    ("report.atomic_write_text.ms", "ms", "cli"),
    ("report.bytes_written", "bytes", "cli"),
    ("cli.region-scan.ms", "ms", "cli"),
    ("cli.fixed-point.ms", "ms", "cli"),
    ("cli.stability.ms", "ms", "cli"),
    ("cli.simulate.ms", "ms", "cli"),
    ("cli.omega-sweep.ms", "ms", "cli"),
)

HOMES = tuple(sorted({home for _, _, home in METRICS}))
FIELDS = ("dynamics.field", "reduction.field")
EMPTY = {"calls": 0, "failed": 0, "total": 0.0, "self": 0.0}


def _value(statistic, summary, span, rounds, bytes_written, scale):
    s = summary.get(span, EMPTY)
    calls = s["calls"]

    def per_call(x):
        return x / calls if calls else 0.0

    if statistic in ("calls", "evals"):
        return calls / rounds
    if statistic == "failed":
        return s["failed"] / rounds
    if statistic == "evals_per_step":
        return per_call(sum(summary.get(f, EMPTY)["calls"] for f in FIELDS))
    if statistic in ("us_per_call", "us_per_eval"):
        return per_call(s["total"]) * scale * 1e6
    if statistic == "self_us":
        return per_call(s["self"]) * scale * 1e6
    if statistic == "self_ms":
        return per_call(s["self"]) * scale * 1e3
    if statistic == "ms":
        return s["total"] / rounds * scale * 1e3
    if statistic == "bytes_written":
        return bytes_written / rounds
    raise ValueError("unknown statistic %r" % statistic)


def metrics(segments, names):
    """Layer metrics from {home: (spans, rounds, time scale)} recorded by one
    Tracer; the time scale converts wall time to nominal-speed time."""
    out = {}
    for name, unit, home in METRICS:
        recorded, rounds, scale = segments[home]
        span, _, statistic = name.rpartition(".")
        value = _value(statistic, summarize(recorded, names), span, rounds,
                       recorded["bytes_written"], scale)
        out[name] = {"value": value, "unit": unit}
    return out
