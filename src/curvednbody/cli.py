"""Command-line interface: scans, reports and simulations as subcommands.

Exit codes: 0 on success, 1 for I/O or internal failures, 2 for invalid
input, 3 when a numerical procedure fails to converge.  All output is
deterministic for fixed inputs.  ``omega-sweep`` makes one block eigensolve
and classifies every rate from its lambda1; ``--workers`` is accepted for
compatibility and ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import compress

import numpy as np

from . import dynamics, fixedpoints, reduction, stability
from .errors import (
    CurvedNBodyError,
    DegenerateBasis,
    DegenerateShape,
    DegenerateSpectrum,
    InconsistentPair,
    InvalidConfiguration,
    IOFailure,
    NoConvergence,
    NoGrowthWindow,
    NonpositiveMass,
    NotAdmissible,
    NotAFixedPoint,
    PolarSingularity,
    SingularConfiguration,
    StepFailure,
)
from .geometry import RingConfiguration
from .report import FLOAT_FMT, ChunkedText, ReportDocument, atomic_write_text, write_csv

DEG_PER_RAD = 180.0 / math.pi

COMMON_DEFAULTS = {
    "output": None,
    "seed": 0,
    "workers": 1,
    "degrees": False,
}

DEFAULTS = {
    "region-scan": {"resolution": 512},
    "fixed-point": {"masses": None, "solve": False, "initial": None},
    "stability": {"masses": None, "omega": 0.0},
    "simulate": {
        "masses": None,
        "omega": 0.0,
        "mode": "re",
        "horizon": 10.0,
        "step": 1e-3,
        "amplitude": None,
        "record_stride": 10,
        "method": "midpoint",
    },
    "omega-sweep": {
        "masses": None,
        "omega_min": 0.0,
        "omega_max": 2.0,
        "count": 41,
    },
}

_MODES = ("re", "perturbed", "growth")
_METHODS = ("midpoint", "rk45")

# The conversion each option's flag applies, also applied to config values:
# a callable, a list of one per-element callable, a tuple of choices, or
# bool or str for flags that take the value as it is.
_OPTION_TYPES = {
    "output": str,
    "degrees": bool,
    "solve": bool,
    "seed": int,
    "workers": int,
    "resolution": int,
    "count": int,
    "record_stride": int,
    "omega": float,
    "horizon": float,
    "step": float,
    "amplitude": float,
    "omega_min": float,
    "omega_max": float,
    "masses": [float],
    "initial": [float],
    "mode": _MODES,
    "method": _METHODS,
}

DEFAULT_TOLERANCES = {
    "residual": 1e-10,
    "newton": 1e-11,
    "consistency": 1e-8,
}


def _add_common(parser):
    parser.add_argument("--output", default=None, help="write the result to this path")
    parser.add_argument("--seed", type=int, default=None, help="seed for random draws")
    parser.add_argument("--workers", type=int, default=None, help="accepted and ignored")
    parser.add_argument(
        "--tolerance-overrides",
        default=None,
        metavar="JSON",
        help="JSON object overriding named tolerances",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="JSON file with option defaults; explicit flags win",
    )
    parser.add_argument(
        "--degrees",
        action="store_true",
        default=None,
        help="also print angles in degrees (display only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvednbody",
        description="Ring fixed points and rotating rings of the curved "
        "three-body problem on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region-scan", help="scan the admissible mass region")
    _add_common(p)
    p.add_argument("--resolution", type=int, default=None, help="grid cells per axis")

    p = sub.add_parser("fixed-point", help="shape, residual and energy certificate")
    _add_common(p)
    p.add_argument("--masses", type=float, nargs=3, default=None, metavar="M")
    p.add_argument(
        "--solve", action="store_true", default=None, help="also run the Newton solver"
    )
    p.add_argument(
        "--initial",
        type=float,
        nargs="+",
        default=None,
        metavar="PHI",
        help="starting longitudes for the Newton solver",
    )

    p = sub.add_parser("stability", help="linear stability of the rotating ring")
    _add_common(p)
    p.add_argument("--masses", type=float, nargs=3, default=None, metavar="M")
    p.add_argument("--omega", type=float, default=None, help="rotation rate")

    p = sub.add_parser("simulate", help="integrate the equations of motion")
    _add_common(p)
    p.add_argument("--masses", type=float, nargs=3, default=None, metavar="M")
    p.add_argument("--omega", type=float, default=None, help="rotation rate")
    p.add_argument("--mode", choices=_MODES, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--record-stride", type=int, default=None)
    p.add_argument("--method", choices=_METHODS, default=None)

    p = sub.add_parser("omega-sweep", help="classify a range of rotation rates")
    _add_common(p)
    p.add_argument("--masses", type=float, nargs=3, default=None, metavar="M")
    p.add_argument("--omega-min", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--count", type=int, default=None)

    return parser


def _load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IOFailure("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfiguration("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise InvalidConfiguration("config %s must hold a JSON object" % path)
    return data


def _coerce(name, value, kind):
    """Convert a config or override value as its flag would, or name the option."""
    try:
        if kind in (bool, str):
            if isinstance(value, kind):
                return value
        elif isinstance(kind, tuple):
            if value in kind:
                return value
        elif isinstance(kind, list):
            if isinstance(value, list):
                return [kind[0](v) for v in value]
        else:
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise InvalidConfiguration("invalid value %r for option %s" % (value, name))


def _resolve_options(args) -> dict:
    """Merge explicit flags over config-file values over built-in defaults."""
    ns = vars(args)
    command = ns["command"]
    config = _load_config(ns["config"]) if ns.get("config") else {}
    defaults = dict(COMMON_DEFAULTS)
    defaults.update(DEFAULTS[command])
    opts = {"command": command}
    for key, default in defaults.items():
        value = ns.get(key)
        if value is None:
            for alias in (key, key.replace("_", "-")):
                if alias in config:
                    value = config[alias]
                    if value is not None and key in _OPTION_TYPES:
                        value = _coerce(alias, value, _OPTION_TYPES[key])
                    break
        opts[key] = default if value is None else value
    tolerances = dict(DEFAULT_TOLERANCES)
    raw = ns.get("tolerance_overrides")
    if raw is None:
        raw = config.get("tolerance-overrides", config.get("tolerance_overrides"))
    if raw is not None:
        if isinstance(raw, str):
            try:
                raw = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise InvalidConfiguration("tolerance overrides are not JSON: %s" % exc)
        if not isinstance(raw, dict):
            raise InvalidConfiguration("tolerance overrides must form a JSON object")
        for name, value in raw.items():
            if name not in tolerances:
                raise InvalidConfiguration("unknown tolerance %r" % name)
            tolerances[name] = _coerce("tolerance " + name, value, float)
    opts["tolerances"] = tolerances
    return opts


def _require_masses(opts) -> tuple:
    masses = opts.get("masses")
    if masses is None:
        raise InvalidConfiguration("this command needs --masses M1 M2 M3")
    values = tuple(float(m) for m in masses)
    if len(values) != 3:
        raise InvalidConfiguration("--masses takes exactly three values")
    return values


def _emit(opts, doc: ReportDocument):
    text = doc.render()
    sys.stdout.write(text)
    if opts["output"]:
        atomic_write_text(opts["output"], text)


def _angle_line(doc, opts, key, value):
    doc.line(key, value)
    if opts["degrees"]:
        doc.line(key + "_deg", value * DEG_PER_RAD)


def _region_rows(centers, values, valid, admissible):
    """The region CSV as one chunk per m1 row; each cell centre is formatted once."""
    cells = [FLOAT_FMT % c for c in centers.tolist()]
    row_fmt = "%s,%s," + FLOAT_FMT + ",%d\n"
    yield "m1,m2,value,admissible\n"
    for m1, row, vals, flags in zip(cells, valid, values, admissible):
        cols = zip(compress(cells, row), vals[row].tolist(), flags[row].tolist())
        yield "".join([row_fmt % (m1, m2, v, a) for m2, v, a in cols])


def _cmd_region_scan(opts) -> int:
    res = int(opts["resolution"])
    if res < 2:
        raise InvalidConfiguration("resolution must be at least 2")
    centers = (np.arange(res) + 0.5) / res
    m1 = centers[:, None]
    m2 = centers[None, :]
    values = fixedpoints.admissibility_values_on_simplex(m1, m2)
    valid = (m1 + m2) < 1.0
    admissible = valid & (values < 0.0)

    doc = ReportDocument()
    doc.section("region-scan")
    doc.line("resolution", res)
    doc.line("simplex_cells", int(np.sum(valid)))
    doc.line("admissible_cells", int(np.sum(admissible)))
    doc.line("admissible_fraction", float(np.sum(admissible)) / float(np.sum(valid)))
    sys.stdout.write(doc.render())

    if opts["output"]:
        atomic_write_text(
            opts["output"],
            ChunkedText(lambda: _region_rows(centers, values, valid, admissible)),
        )
    return 0


def _cmd_fixed_point(opts) -> int:
    raw = _require_masses(opts)
    check = fixedpoints.is_admissible(*raw)
    doc = ReportDocument()
    total = sum(raw)
    doc.section("masses")
    for i, m in enumerate(raw):
        doc.line("m_%d" % (i + 1), m / total)
    doc.section("admissibility")
    doc.line("value", check.value)
    doc.line("admissible", check.admissible)
    if not check.admissible:
        _emit(opts, doc)
        return 0

    triple = fixedpoints.as_mass_triple(raw)
    shape = fixedpoints.shape_from_masses(triple)
    ring = fixedpoints.ring_from_shape(shape)
    residual = fixedpoints.fixed_point_residual(triple.mass_vector(), ring)
    doc.section("shape")
    _angle_line(doc, opts, "alpha", shape.alpha)
    _angle_line(doc, opts, "beta", shape.beta)
    _angle_line(doc, opts, "wrap_separation", shape.d13)
    doc.section("ring")
    doc.line("longitudes", ring.longitudes)
    doc.line("residual_max", float(np.max(np.abs(residual))))
    doc.line("relation_defect", fixedpoints.shape_mass_defect(shape, triple))

    iso = fixedpoints.isosceles_bound_check(*raw)
    doc.section("isosceles")
    doc.line("isosceles", iso.isosceles)
    doc.line("bound_margin", iso.bound_margin)
    doc.line("bound_holds", iso.bound_holds)

    cert = reduction.lyapunov_certificate(triple, tol=opts["tolerances"]["consistency"])
    doc.section("certificate")
    doc.line("hessian_eigenvalues", cert.eigenvalues)
    doc.line("hessian_trace", cert.trace)
    doc.line("half_hessian_det", cert.determinant_half)
    doc.line("half_hessian_det_closed_form", cert.determinant_closed_form)
    doc.line("reduced_min_eigenvalue", cert.reduced_min_eigenvalue)
    doc.line("certified", cert.certified)

    if opts["solve"]:
        initial = opts["initial"]
        if initial is None:
            initial = (0.0, 2.0, 4.0)
        start = RingConfiguration(tuple(float(p) for p in initial))
        solved = fixedpoints.solve_fixed_point_numeric(
            triple.mass_vector(), start, tol=opts["tolerances"]["newton"]
        )
        solved_res = fixedpoints.fixed_point_residual(triple.mass_vector(), solved)
        doc.section("solver")
        doc.line("longitudes", solved.longitudes)
        doc.line("residual_max", float(np.max(np.abs(solved_res))))
        doc.line(
            "distance_to_constructed",
            max(abs(a - b) for a, b in zip(solved.longitudes, ring.longitudes)),
        )
    _emit(opts, doc)
    return 0


def _stability_pipeline(raw, opts):
    triple = fixedpoints.as_mass_triple(raw)
    shape = fixedpoints.shape_from_masses(triple)
    ring = fixedpoints.ring_from_shape(shape)
    blocks = stability.assemble_blocks(
        triple.mass_vector(), ring, residual_tol=opts["tolerances"]["residual"]
    )
    return triple, shape, ring, blocks


def _cmd_stability(opts) -> int:
    raw = _require_masses(opts)
    omega = float(opts["omega"])
    triple, shape, ring, blocks = _stability_pipeline(raw, opts)
    rep = stability.spectral_analysis(blocks, omega)
    nulls = stability.null_structure_check(blocks)
    split = stability.invariant_subspaces(blocks, omega)
    closed = stability.lambda1_closed_form(shape, triple)

    doc = ReportDocument()
    doc.section("masses")
    for i, m in enumerate(triple.as_tuple()):
        doc.line("m_%d" % (i + 1), m)
    doc.section("shape")
    _angle_line(doc, opts, "alpha", shape.alpha)
    _angle_line(doc, opts, "beta", shape.beta)
    doc.section("blocks")
    doc.line("vertical_eigenvalues", rep.vertical_eigenvalues)
    doc.line("tangential_eigenvalues", rep.tangential_eigenvalues)
    doc.line("null_residual_radial", nulls["vertical_radial"])
    doc.line("null_residual_transverse", nulls["vertical_transverse"])
    doc.line("null_residual_uniform", nulls["tangential_uniform"])
    doc.section("classification")
    doc.line("omega", omega)
    doc.line("lambda1", rep.lambda1)
    doc.line("lambda1_closed_form", closed)
    doc.line("omega_critical", rep.omega_critical)
    doc.line("verdict", rep.verdict)
    doc.line("unstable_exponent", rep.unstable_exponent)
    doc.section("spectrum")
    doc.line("transverse_analytic", rep.spectrum)
    doc.line("transverse_numeric", split.transverse_spectrum)
    doc.line(
        "reduced_max_real",
        float(max(abs(z.real) for z in split.reduced_spectrum)),
    )
    doc.section("subspaces")
    doc.line("symmetry_residual", split.symmetry_residual)
    doc.line("transverse_residual", split.transverse_residual)
    doc.line("reduced_residual", split.reduced_residual)
    if split.nilpotent_residual is not None:
        doc.line("nilpotent_residual", split.nilpotent_residual)
    _emit(opts, doc)
    return 0


def _trajectory_rows(masses, record):
    for t, state in zip(record.times, record.states):
        row = [float(t)]
        row.extend(float(v) for v in state)
        row.append(dynamics.hamiltonian(masses, state, record.omega))
        row.append(dynamics.angular_momentum(state))
        yield row


def _trajectory_header(n):
    header = ["t"]
    for prefix in ("theta", "phi", "p_theta", "p_phi"):
        header.extend("%s_%d" % (prefix, i + 1) for i in range(n))
    header.extend(["H", "J"])
    return header


def _cmd_simulate(opts) -> int:
    raw = _require_masses(opts)
    omega = float(opts["omega"])
    if math.isfinite(omega) and not math.isfinite(omega * omega):
        # a rate that is not finite is rejected by the phase state it gives
        raise InvalidConfiguration("square of rotation rate %r is not finite" % (omega,))
    mode = opts["mode"]
    if mode == "growth" and opts["method"] != "midpoint":
        raise InvalidConfiguration(
            "growth mode uses the midpoint rule only, not %s" % opts["method"]
        )
    triple, shape, ring, blocks = _stability_pipeline(raw, opts)
    mv = triple.mass_vector()

    doc = ReportDocument()
    doc.section("run")
    doc.line("mode", mode)
    doc.line("omega", omega)
    doc.line("horizon", float(opts["horizon"]))
    doc.line("step", float(opts["step"]))
    doc.line("method", opts["method"])

    if mode == "growth":
        amplitude = opts["amplitude"] if opts["amplitude"] is not None else 1e-6
        try:
            fit = dynamics.growth_rate_experiment(
                triple,
                omega,
                amplitude=float(amplitude),
                horizon=float(opts["horizon"]),
                step=float(opts["step"]),
                record_stride=int(opts["record_stride"]),
            )
        except NoGrowthWindow as exc:
            doc.section("growth")
            doc.line("outcome", "consistent-with-stable")
            doc.line("max_deviation", exc.max_deviation)
            doc.line("amplitude", float(amplitude))
            _emit(opts, doc)
            return 0
        doc.section("growth")
        doc.line("outcome", "growth-measured")
        doc.line("rate", fit.rate)
        if fit.expected_rate is not None:
            doc.line("expected_rate", fit.expected_rate)
        doc.line("n_points", fit.n_points)
        doc.line("window_start", fit.window[0])
        doc.line("window_end", fit.window[1])
        doc.line("log_residual", fit.log_residual)
        doc.line("max_deviation", fit.max_deviation)
        sys.stdout.write(doc.render())
        if opts["output"]:
            write_csv(
                opts["output"],
                ["t", "deviation"],
                zip(fit.times, fit.deviations),
            )
        return 0

    if mode == "re":
        state = dynamics.relative_equilibrium(mv, ring, omega)
        x0 = state.as_vector()
    else:
        amplitude = opts["amplitude"] if opts["amplitude"] is not None else 1e-2
        if not math.isfinite(amplitude):
            raise InvalidConfiguration("amplitude %r is not finite" % (amplitude,))
        rng = np.random.default_rng(int(opts["seed"]))
        rest = dynamics.relative_equilibrium(mv, ring, omega).as_vector()
        x0 = rest + float(amplitude) * rng.uniform(-1.0, 1.0, rest.size)
    record = dynamics.integrate(
        mv,
        x0,
        float(opts["horizon"]),
        step=float(opts["step"]),
        omega=omega,
        record_stride=int(opts["record_stride"]),
        method=opts["method"],
    )
    doc.section("monitors")
    doc.line("energy_drift", record.energy_drift)
    doc.line("momentum_drift", record.momentum_drift)
    doc.line("max_equator_deviation", record.max_equator_deviation)
    doc.line("min_separation_sine", record.min_separation_sine)
    sys.stdout.write(doc.render())
    if opts["output"]:
        write_csv(
            opts["output"],
            _trajectory_header(mv.n),
            _trajectory_rows(mv, record),
        )
    return 0


def _cmd_omega_sweep(opts) -> int:
    raw = _require_masses(opts)
    lo = float(opts["omega_min"])
    hi = float(opts["omega_max"])
    count = int(opts["count"])
    if count < 1:
        raise InvalidConfiguration("count must be positive")
    if hi < lo:
        raise InvalidConfiguration("omega range is empty")
    triple, shape, ring, blocks = _stability_pipeline(raw, opts)
    # lambda1 does not depend on the rate: one eigensolve serves the whole grid
    rep = stability.spectral_analysis(blocks, lo)
    rows = []
    for w in np.linspace(lo, hi, count).tolist():
        verdict, exponent = stability.rate_verdict(w, rep.lambda1)
        rows.append((w, rep.lambda1, rep.omega_critical, verdict, exponent))

    doc = ReportDocument()
    doc.section("sweep")
    doc.line("count", count)
    doc.line("omega_min", lo)
    doc.line("omega_max", hi)
    doc.line("omega_critical", rows[0][2])
    stable = [r[0] for r in rows if r[3] == stability.VERDICT_STABLE]
    doc.line("first_stable_omega", stable[0] if stable else "none")
    sys.stdout.write(doc.render())
    if opts["output"]:
        write_csv(
            opts["output"],
            ["omega", "lambda1", "omega_critical", "verdict", "unstable_exponent"],
            rows,
        )
    return 0


HANDLERS = {
    "region-scan": _cmd_region_scan,
    "fixed-point": _cmd_fixed_point,
    "stability": _cmd_stability,
    "simulate": _cmd_simulate,
    "omega-sweep": _cmd_omega_sweep,
}


def _fail(code: int, exc) -> int:
    sys.stderr.write("error: %s\n" % exc)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve_options(args)
        return HANDLERS[opts["command"]](opts)
    except IOFailure as exc:
        return _fail(1, exc)
    except (
        InvalidConfiguration,
        NonpositiveMass,
        NotAdmissible,
        DegenerateShape,
        InconsistentPair,
        SingularConfiguration,
        PolarSingularity,
    ) as exc:
        return _fail(2, exc)
    except (
        NoConvergence,
        StepFailure,
        NotAFixedPoint,
        DegenerateSpectrum,
        DegenerateBasis,
        NoGrowthWindow,
    ) as exc:
        return _fail(3, exc)
    except CurvedNBodyError as exc:
        return _fail(1, exc)


if __name__ == "__main__":
    sys.exit(main())
