"""Batch front door: config-driven runs, sweeps, and the self-audit.

Four subcommands::

    ottocat discrete   --config run.ini [--output rows.csv]
    ottocat continuous --config run.ini [--output rows.csv]
    ottocat sweep      --config run.ini [--output rows.csv]
    ottocat verify     [--seed N] [--points N] [--output report.txt]

Configs are flat UTF-8 ``key = value`` files with sections (see the
README for the full schema).  Unknown sections, keys, or column names
are hard errors: a config that does not parse cleanly never half-runs.

Every data subcommand emits the same CSV column contract (header row,
comma separated, floats with 17 significant digits, LF line endings,
``NA`` for fields that are undefined or not computed by that
subcommand).  The contract is one table, :data:`_CONTRACT`: each column
reads one record of a point (its inputs, spec, steady state, cycle,
bridge or closed-form time breakdown), and a record the subcommand does
not compute prints ``NA``.  A run's records come from one
:func:`~ottocat.mapping.rows` call, which solves the steady states, spec
files' too, runs the cycles and bridges the two pictures in stacks of one
structure; the CSV is then assembled and formatted column by column, and
a failure names its point.
``--threads`` is still accepted, for old scripts, and has no effect.

Exit codes: 0 success, 1 failed verification check, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import sys
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import analytic, continuous
from .discrete import CycleReport
from .engine_spec import FAMILIES, BathParams, EngineSpec, SwapPair
from .mapping import BRIDGE_ERRORS, FLOW_EXCLUSION_TOL, EquivalenceReport, WorkingPoint, rows

__all__ = [
    "COLUMNS",
    "ConfigError",
    "CheckFailure",
    "load_config",
    "load_custom_spec",
    "cmd_discrete",
    "cmd_continuous",
    "cmd_sweep",
    "cmd_verify",
    "main",
]

#: Swap pairs the per-pair columns (delta_p_N, current_N) have room for.
_CSV_PAIRS = 2


class _Row(NamedTuple):
    """One point's records, ``None`` where its command skips one, and a
    built-in engine's closed-form time breakdown (``None`` for spec files)."""

    point: tuple[str, float | None, float | None]
    spec: EngineSpec
    report: continuous.SteadyStateReport | None
    cycle: CycleReport | None
    bridge: EquivalenceReport | None
    breakdown: analytic.TauBreakdown | None


def _nth(attr: str, i: int):
    """A reader of pair i's item of a record's tuple ``attr``, ``None`` past
    the spec's last pair."""
    get = attrgetter(attr)
    return lambda record: get(record)[i] if i < len(get(record)) else None


def _coupling(spec: EngineSpec) -> float | None:
    """The spec's one coupling, ``None`` where its pairs' couplings differ."""
    couplings = {pair.g for pair in spec.swaps}
    return couplings.pop() if len(couplings) == 1 else None


#: The CSV column contract, in emission order: each column's name, the
#: :class:`_Row` field it reads, and how it reads it.  Inputs are echoed
#: first, then per-pair flows and rates, per-cycle and per-time energetics,
#: the bridge quantities, and the residual bundle.
_CONTRACT = (
    ("engine", "point", itemgetter(0)),
    ("eta", "point", itemgetter(1)),
    *((name, "spec", attrgetter(attr)) for name, attr in (
        ("beta_h", "hot.beta"), ("beta_c", "cold.beta"), ("omega_h", "hot.omega"),
        ("omega_c", "cold.omega"), ("tau_eq_h", "hot.tau_eq"), ("tau_eq_c", "cold.tau_eq"),
    )),
    ("g", "spec", _coupling),
    *((f"delta_p_{i + 1}", "cycle", _nth("delta_p", i)) for i in range(_CSV_PAIRS)),
    *((f"current_{i + 1}", "report", _nth("currents", i)) for i in range(_CSV_PAIRS)),
    *((name, "cycle", attrgetter(name)) for name in ("q_hot", "q_cold", "work")),
    *((name, "report", attrgetter(name)) for name in ("j_hot", "j_cold", "power")),
    ("eta_discrete", "cycle", attrgetter("efficiency")),
    ("eta_continuous", "report", attrgetter("efficiency")),
    ("tau", "bridge", attrgetter("tau")),
    ("tau_spread", "bridge", attrgetter("tau_uniform_residual")),
    ("zeta", "breakdown", attrgetter("zeta")),
    ("kappa", "breakdown", attrgetter("kappa")),
    ("clausius_discrete", "cycle", attrgetter("clausius_margin")),
    ("clausius_continuous", "report", attrgetter("clausius_margin")),
    ("entropy_production", "report", attrgetter("entropy_production")),
    ("catalyst_residual", "cycle", attrgetter("catalyst_residual")),
    ("first_law_residual", "report", attrgetter("first_law_residual")),
    ("int_vanish_hot", "report", lambda report: report.int_vanish_residuals[0]),
    ("int_vanish_cold", "report", lambda report: report.int_vanish_residuals[1]),
    ("catalysis_residual_max", "report",
     lambda report: max(abs(x) for x in report.catalysis_residuals)),
    ("regime_discrete", "cycle", attrgetter("regime")),
    ("regime_continuous", "report", attrgetter("regime")),
)

#: The column names, in emission order.
COLUMNS = tuple(name for name, _, _ in _CONTRACT)

#: Wiring tolerance: every efficiency a built-in engine's row emits must match
#: the engine's design efficiency.
ETA_WIRING_TOL = 1e-9


class ConfigError(Exception):
    """Unusable configuration: unknown keys, bad values, missing files."""


class CheckFailure(Exception):
    """A verification invariant failed while producing output."""


# ---------------------------------------------------------------------------
# config ingestion


@dataclass(frozen=True)
class RunConfig:
    """A run config as the rows it emits: one (engine token, eta, g_tau_eq)
    point per row, in emission order, a spec file's being (path, None, None),
    and the ``[fixed]`` values (``None`` for spec files)."""

    points: tuple[tuple[str, float | None, float | None], ...]
    fixed: dict[str, float] | None
    columns: tuple[str, ...]


#: The [fixed] keys: (key, open interval of accepted values, the rejection
#: message's end, default).  A key with no default is required unless swept.
_FIXED_KEYS = (
    ("beta_h_omega_h", (0.0, math.inf), "be positive", None),
    ("beta_c_over_beta_h", (0.0, math.inf), "be positive", None),
    ("g_tau_eq", (0.0, math.inf), "be positive", None),
    ("tau_eq", (0.0, math.inf), "be positive", None),
    ("omega_h", (0.0, math.inf), "be positive", 1.0),
    ("eta", (0.0, 1.0), "lie in (0, 1)", None),
)

_ALLOWED_KEYS = {
    "run": {"engine"},
    "fixed": {key for key, *_ in _FIXED_KEYS},
    "sweep": {"parameter", "start", "stop", "points"},
    "output": {"columns"},
}


def _read_ini(path: str) -> configparser.ConfigParser:
    """The parsed file; a failure names its line and fault, and the caller the file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys as written; the schema is lowercase
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except FileNotFoundError:
        raise ConfigError("not found") from None
    except OSError as exc:  # a directory, or a file the run may not read
        raise ConfigError(f"cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot parse: {exc}") from None
    except configparser.MissingSectionHeaderError as exc:  # the reason, then the file and line
        raise ConfigError(f"cannot parse line {exc.lineno}: {str(exc).splitlines()[0]}") from None
    except configparser.ParsingError as exc:  # the first line not "key = value", as its repr
        raise ConfigError("cannot parse line {}: {}".format(*exc.errors[0])) from None
    except configparser.Error as exc:  # a duplicate, its message made again without the file
        raise ConfigError(f"cannot parse line {exc.lineno}: {type(exc)(*exc.args[:-2])}") from None
    return parser


def _check_known_keys(parser: configparser.ConfigParser, allowed: dict) -> None:
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in allowed[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")


def _get_float(section: configparser.SectionProxy, key: str) -> float:
    try:
        value = float(section[key])
    except ValueError:
        raise ConfigError(
            f"key '{key}' in section [{section.name}] is not a number: "
            f"{section[key]!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' in section [{section.name}] must be finite")
    return value


def _get_int(section: configparser.SectionProxy, key: str) -> int:
    try:
        return int(section[key])
    except ValueError:
        raise ConfigError(f"key '{key}' in section [{section.name}] is not an integer") from None


def _require(section: configparser.SectionProxy, key: str) -> None:
    if key not in section:
        raise ConfigError(f"missing key '{key}' in section [{section.name}]")


def _sweep(parser: configparser.ConfigParser) -> tuple[str, list[float]]:
    """The swept key of ``[sweep]`` and its values, evenly spaced from start to stop."""
    if "sweep" not in parser:
        raise ConfigError("missing section [sweep]")
    section = parser["sweep"]
    for key in ("parameter", "start", "stop", "points"):
        _require(section, key)
    parameter = section["parameter"].strip()
    if parameter not in ("eta", "g_tau_eq"):
        raise ConfigError(
            f"sweep parameter must be 'eta' or 'g_tau_eq', got {parameter!r}"
        )
    start = _get_float(section, "start")
    stop = _get_float(section, "stop")
    points = _get_int(section, "points")
    if points < 1:
        raise ConfigError(f"sweep needs at least one point, got {points}")
    if not start <= stop:
        raise ConfigError(f"sweep range is empty: start {start} > stop {stop}")
    if parameter == "eta" and not (0.0 < start and stop < 1.0):
        raise ConfigError("eta sweep range must lie inside (0, 1)")
    if parameter == "g_tau_eq" and not 0.0 < start:
        raise ConfigError("g_tau_eq sweep range must be positive")
    step = (stop - start) / max(points - 1, 1)
    return parameter, [min(start + i * step, stop) for i in range(points)]


def _fixed(section: configparser.SectionProxy, swept: str | None) -> dict[str, float]:
    fixed = {}
    for key, (low, high), must, default in _FIXED_KEYS:
        if key == swept:
            if key in section:
                raise ConfigError(f"{key} is being swept; remove it from section [fixed]")
            continue
        if default is None:
            _require(section, key)
        value = _get_float(section, key) if key in section else default
        if not low < value < high:
            raise ConfigError(f"key '{key}' must {must}, got {value}")
        fixed[key] = value
    if fixed["beta_c_over_beta_h"] <= 1.0:
        raise ConfigError(
            "beta_c_over_beta_h must exceed 1 (the cold bath must be colder)"
        )
    return fixed


def load_config(path: str, command: str) -> RunConfig:
    """Parse and validate a run config for one of the data subcommands.

    Builds no spec: a point whose bath leaves double range is named when
    its row is made.
    """
    try:
        parser = _read_ini(path)
    except ConfigError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    _check_known_keys(parser, _ALLOWED_KEYS)

    if "run" not in parser or "engine" not in parser["run"]:
        raise ConfigError("missing key 'engine' in section [run]")
    engines = tuple(
        token.strip() for token in parser["run"]["engine"].split(",") if token.strip()
    )
    if not engines:
        raise ConfigError("key 'engine' in section [run] names no engines")
    if len(set(engines)) != len(engines):
        raise ConfigError("duplicate engine in section [run]")

    is_family = [token in FAMILIES for token in engines]
    if any(is_family) and not all(is_family):
        raise ConfigError(
            "cannot mix built-in engines with custom spec files in one run"
        )
    custom = not all(is_family)

    swept = None
    if command == "sweep":
        if custom:
            raise ConfigError(
                f"sweep requires built-in engines ({', '.join(FAMILIES)}); "
                "custom spec files run via the discrete/continuous subcommands"
            )
        swept, values = _sweep(parser)
    elif "sweep" in parser:
        raise ConfigError(
            f"section [sweep] is only valid for the sweep subcommand, not {command}"
        )

    fixed = None
    if custom:
        if "fixed" in parser:
            raise ConfigError(
                "section [fixed] does not apply to custom spec files; "
                "the spec file carries all parameters"
            )
        points = tuple((token, None, None) for token in engines)
    elif "fixed" not in parser:
        raise ConfigError("missing section [fixed]")
    else:
        fixed = _fixed(parser["fixed"], swept)
        if swept is None:
            points = tuple((token, fixed["eta"], fixed["g_tau_eq"]) for token in engines)
        else:
            points = tuple(
                (token, value, fixed["g_tau_eq"]) if swept == "eta"
                else (token, fixed["eta"], value)
                for value, token in sorted((v, t) for v in values for t in engines)
            )

    columns = COLUMNS
    if "output" in parser and "columns" in parser["output"]:
        requested = tuple(
            token.strip()
            for token in parser["output"]["columns"].split(",")
            if token.strip()
        )
        if not requested:
            raise ConfigError("key 'columns' in section [output] names no columns")
        for i, name in enumerate(requested):
            if name not in COLUMNS:
                raise ConfigError(f"unknown column '{name}' in section [output]")
            if name in requested[:i]:
                raise ConfigError(f"duplicate column '{name}' in section [output]")
        columns = requested

    return RunConfig(points=points, fixed=fixed, columns=columns)


def _bath(section: configparser.SectionProxy) -> BathParams:
    """A spec file's ``[hot]`` or ``[cold]`` bath."""
    for key in ("beta", "omega"):
        _require(section, key)
    beta = _get_float(section, "beta")
    omega = _get_float(section, "omega")
    if ("tau_eq" in section) == ("gamma_minus" in section):
        raise ConfigError(
            f"section [{section.name}] needs exactly one of 'tau_eq' or 'gamma_minus'"
        )
    try:
        if "tau_eq" in section:
            return BathParams.from_relaxation_time(beta, omega, _get_float(section, "tau_eq"))
        return BathParams.from_damping(beta, omega, _get_float(section, "gamma_minus"))
    except ValueError as exc:
        raise ConfigError(f"section [{section.name}]: {exc}") from None


def _swap(section: configparser.SectionProxy) -> SwapPair:
    """A spec file's ``[swap_N]`` pair."""
    for key in ("u", "d", "g"):
        _require(section, key)
    u, d = _get_int(section, "u"), _get_int(section, "d")
    try:
        return SwapPair(u=u, d=d, g=_get_float(section, "g"))
    except ValueError as exc:
        raise ConfigError(f"section [{section.name}]: {exc}") from None


def load_custom_spec(path: str) -> EngineSpec:
    """Build an :class:`EngineSpec` from a standalone spec file.

    Schema: ``[engine]`` with ``catalyst_dim``; ``[hot]`` and ``[cold]``
    with ``beta``, ``omega``, and exactly one of ``tau_eq`` or
    ``gamma_minus``; one ``[swap_N]`` per pair (numbered from 1) with
    flat level indices ``u``, ``d`` and coupling ``g``.  The CSV has
    per-pair columns for two pairs, so a third pair is an error.  A fault
    raises ``ConfigError``, or ``ValueError`` from the :class:`EngineSpec`
    that judges the swap set; either names the fault, not the file.
    """
    parser = _read_ini(path)
    swaps = []
    while f"swap_{len(swaps) + 1}" in parser:
        swaps.append(f"swap_{len(swaps) + 1}")
    if len(swaps) > _CSV_PAIRS:
        raise ConfigError(
            f"defines {len(swaps)} swap pairs, but the CSV contract has per-pair "
            f"columns (delta_p_N, current_N) for at most {_CSV_PAIRS}"
        )
    bath_keys = {"beta", "omega", "tau_eq", "gamma_minus"}
    allowed = {"engine": {"catalyst_dim"}, "hot": bath_keys, "cold": bath_keys}
    _check_known_keys(parser, {**allowed, **dict.fromkeys(swaps, {"u", "d", "g"})})
    for name in allowed:
        if name not in parser:
            raise ConfigError(f"missing section [{name}]")
    if not swaps:
        raise ConfigError("defines no [swap_1] section")

    engine = parser["engine"]
    return EngineSpec(
        catalyst_dim=_get_int(engine, "catalyst_dim") if "catalyst_dim" in engine else 1,
        hot=_bath(parser["hot"]),
        cold=_bath(parser["cold"]),
        swaps=tuple(_swap(parser[name]) for name in swaps),
    )


# ---------------------------------------------------------------------------
# row assembly


@functools.lru_cache(maxsize=64)
def _point(*fields) -> WorkingPoint:
    """The :class:`WorkingPoint` of ``fields``, built once for all the points
    of one coupling, whose engines share it and its hot bath."""
    return WorkingPoint(*fields)


def _spec(fixed: dict[str, float], token: str, eta: float, g_tau_eq: float) -> EngineSpec:
    """A built-in engine's spec at (eta, g_tau_eq)."""
    beta_h = fixed["beta_h_omega_h"] / fixed["omega_h"]
    g = g_tau_eq / fixed["tau_eq"]
    try:
        point = _point(beta_h, beta_h * fixed["beta_c_over_beta_h"], fixed["omega_h"],
                       fixed["tau_eq"], g)
        return point.spec_at(token, eta)
    except ValueError as exc:  # g or beta_h left double range, or exp(-beta*omega) is 0 past ~745
        keys, what = (
            ("'beta_h_omega_h' and 'omega_h'", "the hot inverse temperature")
            if not 0.0 < beta_h < math.inf
            else ("'g_tau_eq' and 'tau_eq'", "the coupling") if not 0.0 < g < math.inf
            else ("'beta_h_omega_h' and 'beta_c_over_beta_h'", "a bath")
        )
        raise ConfigError(
            f"keys {keys} put {what} of {token} out of double range at eta = {eta!r} ({exc})"
        ) from None


def _family_breakdown(spec: EngineSpec) -> analytic.TauBreakdown:
    g = spec.swaps[0].g
    if spec.catalyst_dim == 1:
        return analytic.otto_tau(spec.hot.big_gamma, spec.cold.big_gamma, g)
    constants = analytic.rate_constants(
        spec.hot.gamma_plus,
        spec.hot.gamma_minus,
        spec.cold.gamma_plus,
        spec.cold.gamma_minus,
    )
    return analytic.cat_tau(
        constants, g, spec.hot.gibbs_factor, spec.cold.gibbs_factor
    )


def _family_flow(spec: EngineSpec) -> float:
    """A built-in engine's closed-form flow per cycle."""
    a_h, a_c = spec.hot.gibbs_factor, spec.cold.gibbs_factor
    if spec.catalyst_dim == 1:
        return analytic.otto_delta_p(a_h, a_c)
    return analytic.cat_delta_p(a_h, a_c).value


def _columns(rows: list[_Row]) -> dict[str, list]:
    """Every column of :data:`_CONTRACT` over ``rows``, ``None`` (``NA``)
    where a row lacks the record the column reads."""
    fields = dict(zip(_Row._fields, zip(*rows)))  # each field's values, row by row
    return {name: [None if part is None else read(part) for part in fields[source]]
            for name, source, read in _CONTRACT}


def build_row(
    engine_token: str,
    spec: EngineSpec,
    eta: float | None,
    mode: str,
    report: continuous.SteadyStateReport | None,
) -> dict[str, object]:
    """One ResultRow, a run of one point: echoed inputs plus whatever
    ``mode`` (``"discrete"``, ``"continuous"``, or ``"both"``) computes, and
    ``None`` (``NA``) elsewhere.  ``report`` is the spec's steady state
    (``None`` in discrete mode)."""
    point = (engine_token, eta, None)
    records = _records((point,), [spec], mode, None if report is None else [report])
    return {name: values[0] for name, values in _columns(records).items()}


def _format_column(values: list) -> list[str]:
    """Each cell of a column: ``NA`` for ``None``, text as it is, a number
    with 17 significant digits; a NaN refuses the whole run."""
    cells = ["NA" if v is None else v if isinstance(v, str) else "%.17g" % v for v in values]
    if "nan" in cells and any(v != v for v in values if not isinstance(v, str)):
        raise CheckFailure("refusing to emit NaN; a computed quantity is invalid")
    return cells


def _write_csv(columns: dict[str, list], names: tuple[str, ...], output: str | None) -> None:
    cells = [_format_column(columns[name]) for name in names]

    def emit(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*cells))

    if output is None:
        emit(sys.stdout)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            emit(handle)


# ---------------------------------------------------------------------------
# subcommands


def _failure_at(point: tuple, spec: EngineSpec | None, exc: Exception) -> Exception:
    """``exc`` as the error that names ``point``: a failed check, or at a spec
    file a config error if it is a ``ConfigError`` or ``ValueError``."""
    token, eta, _ = point
    if eta is not None:
        return CheckFailure(f"{token} at eta = {eta}, g = {spec.swaps[0].g}: {exc}")
    error = ConfigError if isinstance(exc, (ConfigError, ValueError)) else CheckFailure
    return error(f"spec file {token}: {exc}")


def _emit(config: RunConfig, mode: str, output: str | None) -> int:
    """Write one row per point of ``config``, ``mode`` as for :func:`build_row`.

    Every point's spec is built first, then every record
    (:func:`_records`), then the columns; a failure at a point names it
    (:func:`_failure_at`).
    """
    if config.fixed is None:
        specs = []
        for point in config.points:
            try:
                specs.append(load_custom_spec(point[0]))
            except (ConfigError, ValueError) as exc:
                raise _failure_at(point, None, exc) from None
    else:
        specs = [_spec(config.fixed, *point) for point in config.points]
    _write_csv(_columns(_records(config.points, specs, mode)), config.columns, output)
    return 0


def _records(points: tuple, specs: list, mode: str, reports: list | None = None) -> list[_Row]:
    """Every point's :class:`_Row`: its :func:`~ottocat.mapping.rows` record,
    with the closed-form time breakdown of a built-in engine once the
    efficiency its mode emits, the cycle's in discrete mode and the steady
    state's otherwise, matches its design value; a failure names its point.
    Outside a sweep, whose bridge refuses it, a built-in engine's vanished
    flow is refused in its words."""
    picture = "two-stroke" if mode == "discrete" else "steady-state"
    records = []
    try:
        for point, spec, (report, cycle, bridge) in zip(points, specs, rows(specs, mode, reports)):
            token, eta, _ = point
            breakdown = None
            if token in FAMILIES:
                if mode != "both" and abs(_family_flow(spec)) < FLOW_EXCLUSION_TOL:
                    raise CheckFailure("mapping singular at equilibrium boundary: "
                                       "all pair flows vanish")
                breakdown = _family_breakdown(spec)
                efficiency = (cycle if mode == "discrete" else report).efficiency
                if efficiency is None or abs(efficiency - eta) > ETA_WIRING_TOL:
                    raise CheckFailure(f"emitted {picture} efficiency {efficiency} does not "
                                       f"match the design efficiency {eta!r} of {token}")
            records.append(_Row(point, spec, report, cycle, bridge, breakdown))
    except (CheckFailure, *BRIDGE_ERRORS) as exc:
        at = getattr(exc, "index", len(records))  # a failed stage's position, or the record's
        raise _failure_at(points[at], specs[at], exc) from None
    return records


def cmd_discrete(config: RunConfig, output: str | None = None) -> int:
    """One two-stroke cycle per configured engine."""
    return _emit(config, "discrete", output)


def cmd_continuous(config: RunConfig, output: str | None = None) -> int:
    """One steady-state solve per configured engine."""
    return _emit(config, "continuous", output)


def cmd_sweep(config: RunConfig, output: str | None = None) -> int:
    """Both-picture rows over the swept parameter, sorted by (value, engine)."""
    return _emit(config, "both", output)


def cmd_verify(seed: int, n_points: int, output: str | None = None) -> int:
    """Run the oracle suite; exit 0 only if every check passes."""
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if n_points < 1:
        raise ConfigError(f"--points must be >= 1, got {n_points}")
    from . import verify  # loaded only here: no other subcommand needs the suite

    try:
        results = verify.run_suite(seed=seed, n_points=n_points)
    except (ValueError, AssertionError) as exc:  # a grid point the solver cannot resolve, named
        raise CheckFailure(str(exc)) from None
    text = verify.format_report(results, seed, n_points)
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ottocat",
        description=(
            "Two-stroke and autonomous quantum Otto machines, bare or with a "
            "qubit catalyst: single runs, sweeps, and the self-audit suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("discrete", "run one two-stroke cycle per engine"),
        ("continuous", "solve one steady state per engine"),
        ("sweep", "sweep a parameter and emit both-picture rows"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, metavar="PATH")
        p.add_argument("--output", default=None, metavar="PATH")
        if name == "sweep":
            p.add_argument(
                "--threads",
                type=int,
                default=0,
                help="accepted for compatibility; has no effect",
            )
    v = sub.add_parser("verify", help="run the oracle suite")
    v.add_argument("--seed", type=int, default=1234)
    v.add_argument("--points", type=int, default=100, metavar="N")
    v.add_argument("--output", default=None, metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.seed, args.points, args.output)
        config = load_config(args.config, args.command)
        if args.command == "discrete":
            return cmd_discrete(config, args.output)
        if args.command == "continuous":
            return cmd_continuous(config, args.output)
        return cmd_sweep(config, args.output)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
