"""Command-line interface: scans, reports and simulations as subcommands.

Each option is one row of ``OPTIONS``, which builds the parser, the
defaults, the coercion of ``--config`` values and the value checks.  A flag
wins over a config value (keyed by the option name, dashed or underscored;
other keys are ignored), which wins over the default.  A rotation rate that
is not finite, or whose square is not, is rejected before any work, with
the message of ``stability.rate_square``.  ``simulate`` rejects ``--seed``
and ``--amplitude`` where its mode does not read them.  ``--workers`` is
accepted, hidden and ignored: ``omega-sweep`` classifies every rate from one
set of block spectra.  The parser is built once per process; parsing does not change
it, so each call of ``main`` parses as a fresh parser would.

Exit codes: 0 on success, 1 for I/O or internal failures, 2 for invalid
input (``InputError``), 3 when a numerical procedure fails
(``NumericalFailure``).  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import dynamics, fixedpoints, reduction, stability
from .errors import (
    CurvedNBodyError,
    InputError,
    InvalidConfiguration,
    IOFailure,
    NoGrowthWindow,
    NumericalFailure,
    StepFailure,
)
from .geometry import BODIES, RingConfiguration
from .report import FLOAT_FMT, ChunkedText, ReportDocument, atomic_write_text, write_csv

DEG_PER_RAD = 180.0 / math.pi
# a cell's value and admissible flag, indexed by the flag
_CELL_TAIL = np.array([FLOAT_FMT + ",0\n", FLOAT_FMT + ",1\n"], dtype=object)

DEFAULT_TOLERANCES = {
    "residual": stability.FIXED_POINT_TOL,
    "newton": fixedpoints.NEWTON_TOL,
    "consistency": fixedpoints.CONSISTENCY_TOL,
}

COMMANDS = {
    "region-scan": "scan the admissible mass region",
    "fixed-point": "shape, residual and energy certificate",
    "stability": "linear stability of the rotating ring",
    "simulate": "integrate the equations of motion",
    "omega-sweep": "classify a range of rotation rates",
}


class Option(NamedTuple):
    """One option: flag ``--name`` with dashes, config key in either spelling.

    ``convert`` gives a flag or config value the option's type: a type or
    conversion function, a tuple of choices, or bool for a switch; with
    ``nargs`` the option takes a list and converts each entry.  ``check``, if
    set, is called with the resolved value and all resolved options, in
    table order, and raises InvalidConfiguration if the command cannot use
    the value.
    """

    name: str
    convert: object
    default: object
    help: str
    commands: tuple
    check: object = None
    nargs: object = None
    metavar: str = None


def _coerce(name, value, kind, nargs=None):
    """Convert a config or override value as its flag would, or name the option."""
    try:
        if nargs is not None:
            if isinstance(value, list):
                return [_number(kind, v) for v in value]
        elif kind in (bool, str):
            if isinstance(value, kind):
                return value
        elif isinstance(kind, tuple):
            if value in kind:
                return value
        elif kind in (int, float):
            return _number(kind, value)
        else:
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise InvalidConfiguration("invalid value %r for option %s" % (value, name))


def _number(kind, value):
    """``kind(value)``; a bool, or a fraction for an integer option, raises
    ValueError, as no flag's text converts to either."""
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(value)
    return kind(value)


def _tolerances(raw) -> dict:
    """The named tolerances, with overrides given as a JSON object or its text;
    each bounds a nonnegative defect, so it must be finite and positive."""
    tolerances = dict(DEFAULT_TOLERANCES)
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
        value = _coerce("tolerance " + name, value, float)
        tolerances[name] = fixedpoints.checked_tolerance(name, value)
    return tolerances


def _three_masses(masses, opts):
    if masses is None:
        raise InvalidConfiguration("this command needs --masses M1 M2 M3")
    if len(masses) != 3:
        raise InvalidConfiguration("--masses takes exactly three values")


def _at_least(low, message):
    def check(value, opts):
        if value < low:
            raise InvalidConfiguration(message)

    return check


def _rate(omega, opts):
    stability.rate_square(omega)


def _upper_rate(omega, opts):
    if omega < opts["omega_min"]:
        raise InvalidConfiguration("omega range is empty")
    stability.rate_square(omega)


def _midpoint_for_growth(method, opts):
    if opts["mode"] == "growth" and method != "midpoint":
        raise InvalidConfiguration(
            "growth mode uses the midpoint rule only, not %s" % method
        )


def _perturbed_seed(seed, opts):
    if seed is not None and opts["mode"] != "perturbed":
        raise InvalidConfiguration("--mode %s does not read --seed" % opts["mode"])


def _amplitude(amplitude, opts):
    if amplitude is None:
        return
    if opts["mode"] == "re":
        raise InvalidConfiguration("--mode re does not read --amplitude")
    if not math.isfinite(amplitude):
        raise InvalidConfiguration("amplitude %r is not finite" % (amplitude,))


_ALL = tuple(COMMANDS)
_FP, _SIM, _SWEEP = ("fixed-point",), ("simulate",), ("omega-sweep",)

# When several values are wrong, the first row's check reports.
OPTIONS = (
    Option("output", str, None, "write the result to this path", _ALL),
    Option("seed", int, None, "seed of the perturbed mode; default 0", _SIM, _perturbed_seed),
    Option("tolerance_overrides", _tolerances, DEFAULT_TOLERANCES,
           "JSON object overriding named tolerances", _ALL[1:], metavar="JSON"),
    Option("degrees", bool, False, "also print angles in degrees (display only)",
           ("fixed-point", "stability")),
    Option("resolution", int, 512, "grid cells per axis", ("region-scan",),
           _at_least(2, "resolution must be at least 2")),
    Option("masses", float, None, "the three masses", _ALL[1:], _three_masses, 3, "M"),
    Option("solve", bool, False, "also run the Newton solver", _FP),
    Option("initial", float, (0.0, 2.0, 4.0), "starting longitudes for the Newton solver",
           _FP, nargs="+", metavar="PHI"),
    Option("omega", float, 0.0, "rotation rate", ("stability", "simulate"), _rate),
    Option("mode", ("re", "perturbed", "growth"), "re",
           "the rotating ring, a seeded perturbation of it, or a growth-rate fit", _SIM),
    Option("horizon", float, 10.0, "integration time", _SIM),
    Option("step", float, 1e-3, "time step", _SIM),
    Option("amplitude", float, None, "perturbation size; default 1e-2, in growth mode 1e-6",
           _SIM, _amplitude),
    Option("record_stride", int, 10, "steps between recorded samples", _SIM),
    Option("method", ("midpoint", "rk45"), "midpoint", "integration method", _SIM,
           _midpoint_for_growth),
    Option("count", int, 41, "number of rates", _SWEEP,
           _at_least(1, "count must be positive")),
    Option("omega_min", float, 0.0, "smallest rate", _SWEEP, _rate),
    Option("omega_max", float, 2.0, "largest rate", _SWEEP, _upper_rate),
)


def _flag(option) -> dict:
    """The add_argument keywords that make a flag convert as the option does."""
    kind = option.convert
    if kind is bool:
        return {"action": "store_true"}
    if isinstance(kind, tuple):
        return {"choices": kind}
    return {"type": kind, "nargs": option.nargs, "metavar": option.metavar}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand and its ``OPTIONS`` rows.

    ``main`` builds it once per process and parses every call with it;
    parsing does not change it.
    """
    parser = argparse.ArgumentParser(
        prog="curvednbody",
        description="Ring fixed points and rotating rings of the curved "
        "three-body problem on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", metavar="PATH",
                       help="JSON file with option defaults; explicit flags win")
        p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
        for option in OPTIONS:
            if command in option.commands:
                flag = "--" + option.name.replace("_", "-")
                p.add_argument(flag, default=None, help=option.help, **_flag(option))
    return parser


_parser = functools.cache(build_parser)


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


def _resolve_options(args) -> dict:
    """The command's options: explicit flag over config value over default, checked."""
    ns = vars(args)
    command = ns["command"]
    config = _load_config(ns["config"]) if ns["config"] else {}
    rows = [option for option in OPTIONS if command in option.commands]
    opts = {"command": command}
    for option in rows:
        value = ns[option.name]
        key = option.name if option.name in config else option.name.replace("_", "-")
        if value is None and config.get(key) is not None:
            value = _coerce(key, config[key], option.convert, option.nargs)
        opts[option.name] = option.default if value is None else value
    for option in rows:
        if option.check is not None:
            option.check(opts[option.name], opts)
    return opts


def _emit(opts, doc: ReportDocument, header=None, rows=()):
    """Print the report; --output gets the CSV of header and rows, else the report."""
    text = doc.render()
    sys.stdout.write(text)
    if opts["output"] and header:
        write_csv(opts["output"], header, rows)
    elif opts["output"]:
        atomic_write_text(opts["output"], text)


def _angle_line(doc, opts, key, value):
    doc.line(key, value)
    if opts["degrees"]:
        doc.line(key + "_deg", value * DEG_PER_RAD)


def _region_rows(centers, values, valid, admissible):
    """The region CSV as one chunk per m1 row.

    The grid is the same on both axes, so ``valid`` is symmetric and each of
    its rows is a prefix.  A cell is three texts: m1, m2 and a tail holding
    the value and the admissible flag.  A cell below the diagonal reuses the
    tail of its mirror cell when the two values have the same bits: the flag
    is ``valid & (value < 0)`` and ``valid`` is symmetric, so the flags agree
    too.  Where the bits differ (0.0 against -0.0, say) the cell gets its own
    tail.  Every other tail, and each cell centre, is formatted once: a row's
    new tails by one ``%`` on the tail templates its flags pick, its cells
    joined once.
    """
    centres = [FLOAT_FMT % c + "," for c in centers.tolist()]  # as m1 or as m2
    bits = values.view(np.int64)
    # pending[i] collects, in row order, the tails of the cells (j, i), j < i
    pending = [[] for _ in centres]
    yield "m1,m2,value,admissible\n"
    for i, (m1, n) in enumerate(zip(centres, valid.sum(axis=1).tolist())):
        tails = pending[i]
        pending[i] = None
        vals = values[i, :n].tolist()
        low = len(tails)
        for j in np.flatnonzero(bits[i, :low] != bits[:low, i]).tolist():
            tails[j] = _CELL_TAIL[int(admissible[i, j])] % vals[j]
        template = "".join(_CELL_TAIL[admissible[i, low:n].view(np.uint8)].tolist())
        fresh = (template % tuple(vals[low:])).splitlines(True)
        for mirror, tail in zip(pending[i + 1 : n], fresh[1:]):
            mirror.append(tail)
        tails += fresh
        cells = [m1] * (3 * n)
        cells[1::3] = centres[:n]
        cells[2::3] = tails
        yield "".join(cells)


def _cmd_region_scan(opts) -> int:
    res = opts["resolution"]
    centers = (np.arange(res) + 0.5) / res
    m1 = centers[:, None]
    m2 = centers[None, :]
    values = fixedpoints.admissibility_value(m1, m2, 1.0 - m1 - m2)
    valid = (m1 + m2) < 1.0
    admissible = valid & (values < 0.0)

    simplex_cells = int(np.sum(valid))
    admissible_cells = int(np.sum(admissible))

    doc = ReportDocument()
    doc.section("region-scan")
    doc.line("resolution", res)
    doc.line("simplex_cells", simplex_cells)
    doc.line("admissible_cells", admissible_cells)
    doc.line("admissible_fraction", float(admissible_cells) / float(simplex_cells))
    sys.stdout.write(doc.render())

    if opts["output"]:
        atomic_write_text(
            opts["output"],
            ChunkedText(lambda: _region_rows(centers, values, valid, admissible)),
        )
    return 0


def _cmd_fixed_point(opts) -> int:
    raw = opts["masses"]
    iso = fixedpoints.isosceles_bound_check(*raw)
    doc = ReportDocument()
    doc.section("masses")
    for i, m in enumerate(iso.masses):
        doc.line("m_%d" % (i + 1), m)
    doc.section("admissibility")
    doc.line("value", iso.value)
    doc.line("admissible", iso.admissible)
    if not iso.admissible:
        _emit(opts, doc)
        return 0

    triple = fixedpoints.as_mass_triple(raw)
    tolerances = opts["tolerance_overrides"]
    # the certificate builds the ring shape; the report prints it first
    cert = reduction.lyapunov_certificate(triple, tol=tolerances["consistency"])
    shape = cert.shape
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

    doc.section("isosceles")
    doc.line("isosceles", iso.isosceles)
    doc.line("bound_margin", iso.bound_margin)
    doc.line("bound_holds", iso.bound_holds)

    doc.section("certificate")
    doc.line("hessian_eigenvalues", cert.eigenvalues)
    doc.line("hessian_trace", cert.trace)
    doc.line("half_hessian_det", cert.determinant_half)
    doc.line("half_hessian_det_closed_form", cert.determinant_closed_form)
    doc.line("reduced_min_eigenvalue", cert.reduced_min_eigenvalue)
    doc.line("certified", cert.certified)

    if opts["solve"]:
        start = RingConfiguration(tuple(opts["initial"]))
        solved = fixedpoints.solve_fixed_point_numeric(
            triple.mass_vector(), start, tol=tolerances["newton"]
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


def _stability_pipeline(opts):
    residual = opts["tolerance_overrides"]["residual"]
    return stability.ring_pipeline(opts["masses"], residual)


def _cmd_stability(opts) -> int:
    omega = opts["omega"]
    triple, shape, ring, blocks = _stability_pipeline(opts)
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


def _trajectory_rows(record):
    """Each sample as t, the state, and the energy and momentum ``integrate`` took."""
    columns = (record.times, record.states, record.energies, record.momenta)
    for t, state, h, j in zip(*(c.tolist() for c in columns)):
        yield [t, *state, h, j]


def _trajectory_header(n):
    header = ["t"]
    for prefix in ("theta", "phi", "p_theta", "p_phi"):
        header.extend("%s_%d" % (prefix, i + 1) for i in range(n))
    header.extend(["H", "J"])
    return header


def _cmd_simulate(opts) -> int:
    """Run ``_simulate``; a midpoint step that fails at omega*h >= 1 says so."""
    try:
        return _simulate(opts)
    except StepFailure as exc:
        omega_h = abs(opts["omega"]) * opts["step"]
        if opts["method"] != "midpoint" or omega_h < 1.0:
            raise
        raise StepFailure(
            "%s; omega*h = %g is at least 1, try a smaller --step" % (exc, omega_h),
            time=exc.time,
            step=exc.step,
        ) from exc


def _simulate(opts) -> int:
    omega = opts["omega"]
    mode = opts["mode"]
    triple, shape, ring, blocks = _stability_pipeline(opts)
    mv = triple.mass_vector()

    doc = ReportDocument()
    doc.section("run")
    doc.line("mode", mode)
    doc.line("omega", omega)
    doc.line("horizon", opts["horizon"])
    doc.line("step", opts["step"])
    doc.line("method", opts["method"])

    if mode == "growth":
        amplitude = opts["amplitude"] if opts["amplitude"] is not None else 1e-6
        try:
            fit = dynamics.growth_rate_experiment(
                blocks,
                omega,
                amplitude=amplitude,
                horizon=opts["horizon"],
                step=opts["step"],
                record_stride=opts["record_stride"],
            )
        except NoGrowthWindow as exc:
            # a run too short to grow says so unless the rate is stable
            doc.section("growth")
            if exc.verdict == stability.VERDICT_STABLE:
                doc.line("outcome", "consistent-with-stable")
            else:
                doc.line("outcome", "no-growth-window")
                if exc.expected_rate is not None:
                    doc.line("expected_rate", exc.expected_rate)
            doc.line("max_deviation", exc.max_deviation)
            doc.line("amplitude", amplitude)
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
        rows = zip(fit.times.tolist(), fit.deviations.tolist())  # exact floats
        _emit(opts, doc, ["t", "deviation"], rows)
        return 0

    if mode == "re":
        state = dynamics.relative_equilibrium(mv, ring, omega)
        x0 = state.as_vector()
    else:
        amplitude = opts["amplitude"] if opts["amplitude"] is not None else 1e-2
        seed = opts["seed"] if opts["seed"] is not None else 0
        rng = np.random.default_rng(seed)
        rest = dynamics.relative_equilibrium(mv, ring, omega).as_vector()
        x0 = rest + amplitude * rng.uniform(-1.0, 1.0, rest.size)
        try:
            dynamics.PhaseState.from_vector(x0)
        except InputError as exc:
            # a large amplitude can push the start off the chart: say so
            raise type(exc)(
                "perturbed start (amplitude %g, seed %d): %s" % (amplitude, seed, exc)
            ) from exc
    record = dynamics.integrate(
        mv,
        x0,
        opts["horizon"],
        step=opts["step"],
        omega=omega,
        record_stride=opts["record_stride"],
        method=opts["method"],
    )
    doc.section("monitors")
    doc.line("energy_drift", record.energy_drift)
    doc.line("momentum_drift", record.momentum_drift)
    doc.line("max_equator_deviation", record.max_equator_deviation)
    doc.line("min_separation_sine", record.min_separation_sine)
    _emit(opts, doc, _trajectory_header(BODIES), _trajectory_rows(record))
    return 0


def _cmd_omega_sweep(opts) -> int:
    lo = opts["omega_min"]
    hi = opts["omega_max"]
    count = opts["count"]
    triple, shape, ring, blocks = _stability_pipeline(opts)
    # lambda1 does not depend on the rate: one set of block spectra serves the grid
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
    header = ["omega", "lambda1", "omega_critical", "verdict", "unstable_exponent"]
    _emit(opts, doc, header, rows)
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
    try:
        # a bad --tolerance-overrides text raises while the flags are parsed
        opts = _resolve_options(_parser().parse_args(argv))
        return HANDLERS[opts["command"]](opts)
    except InputError as exc:
        return _fail(2, exc)
    except NumericalFailure as exc:
        return _fail(3, exc)
    except CurvedNBodyError as exc:
        return _fail(1, exc)


if __name__ == "__main__":
    sys.exit(main())
