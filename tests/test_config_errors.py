"""Every single-fault run config and spec file keeps its exit code and its
error line.

``tests/data/config_errors.txt`` (run configs) and
``tests/data/spec_errors.txt`` (spec files) hold, for each case below, the
command, the case name, the exit code and the standard error of
``ottocat`` with the working directory masked.  The tables are never
regenerated to absorb a change: a refactor of a reader must leave every
line as it is, and a change of wording is made in the table by hand.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from ottocat import cli

DATA = Path(__file__).parent / "data"

FIXED = {
    "beta_h_omega_h": "0.1",
    "beta_c_over_beta_h": "10.0",
    "g_tau_eq": "10.0",
    "tau_eq": "1.0",
    "eta": "0.4",
}

#: The three valid configs the faults start from: (name, command, sections).
BASES = (
    ("point", ("discrete", "continuous"), {
        "run": {"engine": "otto, qubit_catalyst"},
        "fixed": dict(FIXED),
    }),
    ("eta-sweep", ("sweep",), {
        "run": {"engine": "otto, qubit_catalyst"},
        "fixed": {k: v for k, v in FIXED.items() if k != "eta"},
        "sweep": {"parameter": "eta", "start": "0.05", "stop": "0.85", "points": "5"},
    }),
    ("g-sweep", ("sweep",), {
        "run": {"engine": "otto, qubit_catalyst"},
        "fixed": {k: v for k, v in FIXED.items() if k != "g_tau_eq"},
        "sweep": {"parameter": "g_tau_eq", "start": "0.5", "stop": "8.0", "points": "5"},
    }),
)

#: A valid spec file (a qubit catalyst), by section.
SPEC = {
    "engine": {"catalyst_dim": "2"},
    "hot": {"beta": "0.1", "omega": "1.0", "tau_eq": "1.0"},
    "cold": {"beta": "1.0", "omega": "1.2", "tau_eq": "1.0"},
    "swap_1": {"u": "4", "d": "2", "g": "10.0"},
    "swap_2": {"u": "1", "d": "6", "g": "10.0"},
}

#: Single edits, by swept key, that leave a point the solver cannot
#: resolve: too weak a coupling hides a slow mode below the kernel
#: tolerance, too strong a one pulls the two steady-state routes apart.
UNRESOLVABLE = {
    None: (("fixed", "g_tau_eq", "1e-6"),),
    "eta": (("fixed", "g_tau_eq", "1e-6"), ("fixed", "g_tau_eq", "1e8")),
    "g_tau_eq": (("sweep", "start", "1e-6"),),
}

#: Values that break any key of [fixed], and the range faults of two keys.
BAD_NUMBERS = ("abc", "", "inf", "nan", "0", "-1")
OUT_OF_RANGE = {"beta_c_over_beta_h": ("1.0", "0.5"), "eta": ("1.0", "1.5")}


def _edit(sections: dict, section: str, key: str | None, value: str | None) -> dict:
    """A copy of ``sections`` with one key set to ``value``, or removed when
    ``value`` is ``None``; ``key=None`` removes the whole section."""
    edited = {name: dict(keys) for name, keys in sections.items()}
    if key is None:
        edited.pop(section)
    elif value is None:
        edited[section].pop(key)
    else:
        edited.setdefault(section, {})[key] = value
    return edited


def _faults(sections: dict, spec_file: str):
    """(case name, sections) for the clean base and each single fault."""
    yield "clean", sections
    fixed = sections["fixed"]
    swept = sections.get("sweep", {}).get("parameter")
    for section, key, value in UNRESOLVABLE[swept]:
        yield f"unresolvable: {section}.{key} = {value!r}", _edit(sections, section, key, value)
    for key in (*FIXED, "omega_h"):
        if key == swept:
            yield f"fixed.{key} left in while swept", _edit(sections, "fixed", key, FIXED[key])
            continue
        if key in fixed:
            yield f"fixed.{key} missing", _edit(sections, "fixed", key, None)
        for value in (*BAD_NUMBERS, *OUT_OF_RANGE.get(key, ())):
            yield f"fixed.{key} = {value!r}", _edit(sections, "fixed", key, value)
    yield "fixed.omega_h = '2.0'", _edit(sections, "fixed", "omega_h", "2.0")
    yield "no [fixed]", _edit(sections, "fixed", None, None)
    yield "no [run]", _edit(sections, "run", None, None)
    yield "run.engine missing", _edit(sections, "run", "engine", None)
    for engines in ("", " , ", "otto, otto", "stirling", f"otto, {spec_file}"):
        yield f"run.engine = {engines!r}", _edit(sections, "run", "engine", engines)
    yield "unknown section", _edit(sections, "extra", "x", "1")
    for section in sections:
        yield f"unknown key in [{section}]", _edit(sections, section, "gama", "3.0")
    for columns in ("engine, wattage", " , ", "engine, eta, work", "eta, eta"):
        yield f"output.columns = {columns!r}", _edit(sections, "output", "columns", columns)
    spec_only = {"run": {"engine": spec_file}}
    yield "spec file with [fixed]", {**spec_only, "fixed": dict(FIXED)}
    if swept is None:
        yield "[sweep] outside sweep", _edit(sections, "sweep", "parameter", "eta")
        yield "spec file", spec_only
        # beta_c omega_c = 700 * 1.01 * 1.4: only the catalyst's cold bath underflows.
        cold = _edit(sections, "fixed", "beta_h_omega_h", "700")
        cold = _edit(cold, "fixed", "beta_c_over_beta_h", "1.01")
        yield "cold bath underflows", _edit(cold, "fixed", "eta", "0.3")
        yield "hot baths underflow", _edit(sections, "fixed", "beta_h_omega_h", "800")
        # A value derived from two keys leaves double range: the two keys are named.
        for case, (key, value), (over, by) in (
            ("coupling overflows", ("g_tau_eq", "1e300"), ("tau_eq", "1e-10")),
            ("coupling underflows", ("g_tau_eq", "1e-300"), ("tau_eq", "1e300")),
            ("beta_h underflows", ("beta_h_omega_h", "1e-300"), ("omega_h", "1e300")),
        ):
            yield case, _edit(_edit(sections, "fixed", key, value), "fixed", over, by)
        return
    yield "spec file", {**spec_only, "sweep": sections["sweep"]}
    yield "no [sweep]", _edit(sections, "sweep", None, None)
    for key in ("parameter", "start", "stop", "points"):
        yield f"sweep.{key} missing", _edit(sections, "sweep", key, None)
    low, high = ("0", "1.0") if swept == "eta" else ("0", "-1")
    for key, values in (
        ("parameter", ("omega_h", "", "g")),
        ("start", ("abc", "inf", low, "-0.5", "9")),
        ("stop", ("abc", "nan", high, "0.01")),
        ("points", ("2.5", "abc", "0", "-1", "1")),
    ):
        for value in values:
            yield f"sweep.{key} = {value!r}", _edit(sections, "sweep", key, value)
    cold = _edit(sections, "fixed", "beta_h_omega_h", "700")
    yield "cold bath underflows", _edit(cold, "fixed", "beta_c_over_beta_h", "1.01")
    yield "hot baths underflow", _edit(sections, "fixed", "beta_h_omega_h", "800")


def _spec_faults():
    """(case name, spec files) for the clean spec file and each single fault;
    a file is its sections, its raw text, or ``None`` when it is missing."""
    yield "clean", [SPEC]
    yield "file missing", [None]
    yield "file unparsable", ["catalyst_dim = 2\n"]
    yield "duplicate section", ["[engine]\ncatalyst_dim = 2\n[engine]\n"]
    yield "duplicate key", ["[engine]\ncatalyst_dim = 2\ncatalyst_dim = 3\n"]
    yield "line not key = value", ["[engine]\ncatalyst_dim 2\n"]
    for section in ("engine", "hot", "cold"):
        yield f"no [{section}]", [_edit(SPEC, section, None, None)]
    yield "no [swap_1]", [_edit(_edit(SPEC, "swap_1", None, None), "swap_2", None, None)]
    yield "[swap_3]", [{**SPEC, "swap_3": {"u": "8", "d": "7", "g": "10.0"}}]
    yield "unknown section", [_edit(SPEC, "extra", "x", "1")]
    for section in ("engine", "hot", "cold", "swap_1"):
        yield f"unknown key in [{section}]", [_edit(SPEC, section, "gama", "3.0")]
    for value in ("2.5", "0", "5"):
        yield f"engine.catalyst_dim = {value!r}", [_edit(SPEC, "engine", "catalyst_dim", value)]
    for section in ("hot", "cold"):
        for key in ("beta", "omega"):
            yield f"{section}.{key} missing", [_edit(SPEC, section, key, None)]
            for value in ("abc", "inf", "-1"):
                yield f"{section}.{key} = {value!r}", [_edit(SPEC, section, key, value)]
    yield "hot.tau_eq and hot.gamma_minus", [_edit(SPEC, "hot", "gamma_minus", "1.0")]
    yield "hot.tau_eq missing", [_edit(SPEC, "hot", "tau_eq", None)]
    yield "hot.tau_eq = '0'", [_edit(SPEC, "hot", "tau_eq", "0")]
    for key, overlap in (("u", "2"), ("d", "4")):
        yield f"swap_2.{key} missing", [_edit(SPEC, "swap_2", key, None)]
        for value in ("x", "8", overlap):
            yield f"swap_2.{key} = {value!r}", [_edit(SPEC, "swap_2", key, value)]
    for value in ("0", "abc"):
        yield f"swap_1.g = {value!r}", [_edit(SPEC, "swap_1", "g", value)]
    yield "qutrit catalyst never reaches level 2", [_edit(SPEC, "engine", "catalyst_dim", "3")]
    no_catalyst = _edit(_edit(SPEC, "swap_2", "u", "6"), "swap_2", "d", "0")
    yield "swap set no catalyst balances", [no_catalyst]
    yield "second of two files lacks hot.beta", [SPEC, _edit(SPEC, "hot", "beta", None)]


def _render(sections: dict) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def _outcome(workdir: Path, command: str, config: Path, case: str) -> str:
    """One table line: ``ottocat <command>`` on ``config``, its exit code and
    standard error, with ``workdir`` masked."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(config)])
    return f"{command} | {case} | {code} | {err.getvalue()!r}".replace(str(workdir), "<dir>")


def outcome_table(workdir: Path) -> str:
    """One line per (command, run config case): exit code and standard error."""
    spec_file = workdir / "engine.ini"
    spec_file.write_text(_render(SPEC), encoding="utf-8")
    config = workdir / "run.ini"
    lines = []
    for base, commands, sections in BASES:
        for case, faulty in _faults(sections, str(spec_file)):
            config.write_text(_render(faulty), encoding="utf-8")
            lines += [_outcome(workdir, command, config, f"{base}: {case}") for command in commands]
    return "\n".join(lines) + "\n"


def spec_outcome_table(workdir: Path) -> str:
    """One line per (command, spec file case): exit code and standard error."""
    config = workdir / "run.ini"
    lines = []
    for case, files in _spec_faults():
        paths = [workdir / f"engine{i}.ini" for i in range(1, len(files) + 1)]
        for path, sections in zip(paths, files):
            path.unlink(missing_ok=True)
            if sections is not None:
                text = sections if isinstance(sections, str) else _render(sections)
                path.write_text(text, encoding="utf-8")
        config.write_text(f"[run]\nengine = {', '.join(map(str, paths))}\n", encoding="utf-8")
        lines += [_outcome(workdir, command, config, case) for command in ("discrete", "continuous")]
    return "\n".join(lines) + "\n"


def test_every_single_fault_config_keeps_its_pinned_outcome(tmp_path):
    assert outcome_table(tmp_path) == (DATA / "config_errors.txt").read_text(encoding="utf-8")


def test_every_single_fault_spec_file_keeps_its_pinned_outcome(tmp_path):
    pinned = (DATA / "spec_errors.txt").read_text(encoding="utf-8")
    assert spec_outcome_table(tmp_path) == pinned
