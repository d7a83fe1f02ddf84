"""Tests for the config-driven command line front door."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ottocat
from ottocat import analytic, cli, continuous, verify
from ottocat.discrete import run_cycle
from ottocat.engine_spec import EngineSpec, SwapPair
from spec_helpers import GOLDEN_CONFIG, golden_specs

BASE_CONFIG = """\
[run]
engine = otto, qubit_catalyst

[fixed]
beta_h_omega_h = 0.1
beta_c_over_beta_h = 10.0
g_tau_eq = 10.0
tau_eq = 1.0
eta = 0.4
"""

SWEEP_CONFIG = """\
[run]
engine = otto, qubit_catalyst

[fixed]
beta_h_omega_h = 0.1
beta_c_over_beta_h = 10.0
g_tau_eq = 10.0
tau_eq = 1.0

[sweep]
parameter = eta
start = 0.05
stop = 0.85
points = 5
"""

CUSTOM_SPEC = """\
[engine]
catalyst_dim = 2

[hot]
beta = 0.1
omega = 1.0
tau_eq = 1.0

[cold]
beta = 1.0
omega = 1.2
gamma_minus = 1.5

[swap_1]
u = 4
d = 2
g = 10.0

[swap_2]
u = 1
d = 6
g = 10.0
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestConfigParsing:
    def test_unknown_key_is_named_in_the_error(self, tmp_path, capsys):
        config = write(tmp_path / "run.ini", BASE_CONFIG + "gama = 3.0\n")
        code = cli.main(["discrete", "--config", config])
        assert code == 2
        err = capsys.readouterr().err
        assert "gama" in err and "[fixed]" in err

    def test_run_seed_is_an_unknown_key(self, tmp_path, capsys):
        config = write(
            tmp_path / "run.ini",
            BASE_CONFIG.replace("qubit_catalyst\n", "qubit_catalyst\nseed = 7\n"),
        )
        assert cli.main(["discrete", "--config", config]) == 2
        assert "unknown key 'seed' in section [run]" in capsys.readouterr().err

    def test_unknown_section_is_named(self, tmp_path, capsys):
        config = write(tmp_path / "run.ini", BASE_CONFIG + "\n[extra]\nx = 1\n")
        assert cli.main(["discrete", "--config", config]) == 2
        assert "extra" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["discrete", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, kind",
        [("discrete", "config"), ("discrete", "spec"), ("continuous", "config"),
         ("continuous", "spec"), ("sweep", "config")],
    )
    def test_a_directory_is_a_file_that_cannot_be_read(self, tmp_path, capsys, command, kind):
        # A file without read permission takes the same path, but cannot be
        # made unreadable to a test run as root.
        folder = tmp_path / "engine.ini"
        folder.mkdir()
        config = str(folder) if kind == "config" else write(
            tmp_path / "run.ini", f"[run]\nengine = {folder}\n"
        )
        assert cli.main([command, "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: {kind} file {folder}: cannot read: Is a directory\n"
        )

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("eta = 0.4\n", "line 1: File contains no section headers."),
            (BASE_CONFIG + "[run]\n", "line 10: Section 'run' already exists"),
            (BASE_CONFIG + "eta = 0.5\n",
             "line 10: Option 'eta' in section 'fixed' already exists"),
            (BASE_CONFIG + "eta\n", "line 10: 'eta\\n'"),
        ],
        ids=["no-section-header", "duplicate-section", "duplicate-key", "not-key-value"],
    )
    def test_an_unparsable_config_is_named_once_with_its_line(self, tmp_path, capsys, text, fault):
        # tests/data/spec_errors.txt pins the same four faults in a spec file.
        path = write(tmp_path / "run.ini", text)
        assert cli.main(["discrete", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: config file {path}: cannot parse {fault}\n"

    def test_sweep_section_is_rejected_outside_sweep(self, tmp_path):
        config = write(tmp_path / "run.ini", BASE_CONFIG + "\n[sweep]\nparameter = eta\nstart = 0.1\nstop = 0.2\npoints = 2\n")
        assert cli.main(["discrete", "--config", config]) == 2

    def test_swept_parameter_must_leave_the_fixed_section(self, tmp_path, capsys):
        config = write(tmp_path / "run.ini", SWEEP_CONFIG + "\n")
        fixed_eta = config.replace("run.ini", "bad.ini")
        write(tmp_path / "bad.ini", SWEEP_CONFIG.replace(
            "tau_eq = 1.0", "tau_eq = 1.0\neta = 0.4"
        ))
        assert cli.main(["sweep", "--config", fixed_eta]) == 2
        assert "being swept" in capsys.readouterr().err

    def test_eta_sweep_range_must_stay_inside_the_unit_interval(self, tmp_path):
        config = write(tmp_path / "run.ini", SWEEP_CONFIG.replace("stop = 0.85", "stop = 1.0"))
        assert cli.main(["sweep", "--config", config]) == 2

    def test_zero_points_is_rejected(self, tmp_path):
        config = write(tmp_path / "run.ini", SWEEP_CONFIG.replace("points = 5", "points = 0"))
        assert cli.main(["sweep", "--config", config]) == 2

    @pytest.mark.parametrize(
        "command, beta_h_omega_h, ratio, eta, engine",
        [
            # beta_c omega_c = 700 * 1.01 * 1.4: only the catalyst's cold bath underflows.
            ("continuous", "700", "1.01", "0.3", "qubit_catalyst"),
            ("discrete", "800", "10.0", "0.4", "otto"),  # both hot baths underflow
        ],
    )
    def test_a_bath_whose_gibbs_factor_underflows_is_a_config_error(
        self, tmp_path, capsys, command, beta_h_omega_h, ratio, eta, engine
    ):
        text = BASE_CONFIG.replace("beta_h_omega_h = 0.1", f"beta_h_omega_h = {beta_h_omega_h}")
        text = text.replace("beta_c_over_beta_h = 10.0", f"beta_c_over_beta_h = {ratio}")
        config = write(tmp_path / "run.ini", text.replace("eta = 0.4", f"eta = {eta}"))
        assert cli.main([command, "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: keys 'beta_h_omega_h' and 'beta_c_over_beta_h' put a bath of "
            f"{engine} out of double range at eta = {eta} (bath rates must be positive)\n"
        )

    def test_an_eta_sweep_is_checked_at_its_lowest_eta(self, tmp_path, capsys):
        # The catalyst's cold bath underflows at the sweep's first values only.
        text = SWEEP_CONFIG.replace("beta_h_omega_h = 0.1", "beta_h_omega_h = 700").replace(
            "beta_c_over_beta_h = 10.0", "beta_c_over_beta_h = 1.01"
        )
        config = write(tmp_path / "run.ini", text)
        assert cli.main(["sweep", "--config", config]) == 2
        assert "qubit_catalyst out of double range at eta = 0.05 " in capsys.readouterr().err

    def test_a_subnormal_gibbs_factor_still_emits_its_row(self, tmp_path):
        text = BASE_CONFIG.replace("beta_h_omega_h = 0.1", "beta_h_omega_h = 720")
        text = text.replace("beta_c_over_beta_h = 10.0", "beta_c_over_beta_h = 1.01")
        config = write(tmp_path / "run.ini", text.replace("eta = 0.4", "eta = 0.99"))
        assert 0.0 < math.exp(-720.0) < sys.float_info.min
        for command, energy in (("discrete", "work"), ("continuous", "power")):
            out = tmp_path / f"{command}.csv"
            assert cli.main([command, "--config", config, "--output", str(out)]) == 0
            rows = read_rows(out)
            assert [row["engine"] for row in rows] == ["otto", "qubit_catalyst"]
            assert all(row[energy] != "NA" for row in rows)

    def test_custom_and_family_engines_cannot_mix(self, tmp_path):
        spec = write(tmp_path / "engine.ini", CUSTOM_SPEC)
        config = write(
            tmp_path / "run.ini",
            BASE_CONFIG.replace("otto, qubit_catalyst", f"otto, {spec}"),
        )
        assert cli.main(["discrete", "--config", config]) == 2

    def test_unknown_output_column_is_rejected(self, tmp_path, capsys):
        config = write(
            tmp_path / "run.ini", BASE_CONFIG + "\n[output]\ncolumns = engine, wattage\n"
        )
        assert cli.main(["discrete", "--config", config]) == 2
        assert "wattage" in capsys.readouterr().err


class TestPointCommands:
    def test_discrete_fills_only_cycle_columns(self, tmp_path):
        config = write(tmp_path / "run.ini", BASE_CONFIG)
        out = tmp_path / "rows.csv"
        assert cli.main(["discrete", "--config", config, "--output", str(out)]) == 0
        rows = read_rows(out)
        assert [row["engine"] for row in rows] == ["otto", "qubit_catalyst"]
        for row in rows:
            assert row["q_hot"] != "NA" and row["work"] != "NA"
            assert row["power"] == "NA" and row["eta_continuous"] == "NA"
            assert row["tau"] == "NA"
            assert float(row["eta_discrete"]) == pytest.approx(0.4, rel=1e-12)

    def test_continuous_fills_only_steady_state_columns(self, tmp_path):
        config = write(tmp_path / "run.ini", BASE_CONFIG)
        out = tmp_path / "rows.csv"
        assert cli.main(["continuous", "--config", config, "--output", str(out)]) == 0
        for row in read_rows(out):
            assert row["power"] != "NA" and row["j_hot"] != "NA"
            assert row["q_hot"] == "NA" and row["eta_discrete"] == "NA"
            assert float(row["eta_continuous"]) == pytest.approx(0.4, rel=1e-9)

    def test_custom_spec_file_runs_and_echoes_na_efficiency(self, tmp_path):
        spec = write(tmp_path / "engine.ini", CUSTOM_SPEC)
        config = write(tmp_path / "run.ini", f"[run]\nengine = {spec}\n")
        out = tmp_path / "rows.csv"
        assert cli.main(["continuous", "--config", config, "--output", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["engine"] == spec
        assert row["eta"] == "NA"
        assert float(row["eta_continuous"]) == pytest.approx(0.4, rel=1e-9)
        assert float(row["tau_eq_c"]) == pytest.approx(
            2.0 / (1.5 * (1.0 + math.exp(-1.2))), rel=1e-12
        )

    def test_custom_spec_with_more_pairs_than_columns_is_rejected(self, tmp_path, capsys):
        qutrit = (
            CUSTOM_SPEC.replace("catalyst_dim = 2", "catalyst_dim = 3")
            + "\n[swap_3]\nu = 8\nd = 7\ng = 10.0\n"
        )
        spec = write(tmp_path / "engine.ini", qutrit)
        config = write(tmp_path / "run.ini", f"[run]\nengine = {spec}\n")
        out = tmp_path / "rows.csv"
        assert cli.main(["continuous", "--config", config, "--output", str(out)]) == 2
        assert "3 swap pairs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "swap_2, message",
        [
            ((2, 6), "swap 1: index 2 appears in more than one pair"),
            ((1, 8), "swap 1: index 8 out of range for dimension 8"),
            # A valid swap set whose flows no catalyst can balance.
            ((6, 0), "no simple-permutation catalyst exists for this spec "
             "(linear system residual 3.834e-02)"),
        ],
        ids=["overlapping", "out-of-range", "no-catalyst"],
    )
    def test_a_bad_swap_set_reads_the_same_on_every_path(
        self, tmp_path, capsys, swap_2, message
    ):
        text = CUSTOM_SPEC.replace("u = 1\nd = 6", "u = {}\nd = {}".format(*swap_2))
        spec_file = write(tmp_path / "engine.ini", text)
        config = write(tmp_path / "run.ini", f"[run]\nengine = {spec_file}\n")
        out = tmp_path / "rows.csv"
        assert cli.main(["discrete", "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: spec file {spec_file}: {message}\n"
        assert not out.exists()
        good = cli.load_custom_spec(write(tmp_path / "good.ini", CUSTOM_SPEC))
        swaps = (good.swaps[0], SwapPair(*swap_2, 10.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_cycle(EngineSpec(catalyst_dim=2, hot=good.hot, cold=good.cold, swaps=swaps))

    @pytest.mark.parametrize(
        "command, message",
        [
            ("continuous", "non-ergodic Liouvillian: steady state not unique"),
            ("discrete", "the simple-permutation catalyst of this spec is not unique "
             "(linear system rank 2 < catalyst dimension 3)"),
        ],
    )
    def test_a_non_ergodic_spec_file_is_a_config_error(self, tmp_path, capsys, command, message):
        # Two swaps on a qutrit catalyst never reach its level 2.
        text = CUSTOM_SPEC.replace("catalyst_dim = 2", "catalyst_dim = 3")
        spec_file = write(tmp_path / "engine.ini", text)
        config = write(tmp_path / "run.ini", f"[run]\nengine = {spec_file}\n")
        out = tmp_path / "rows.csv"
        assert cli.main([command, "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: spec file {spec_file}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["discrete", "continuous"])
    @pytest.mark.parametrize("catalyst_dim", [5, 100_000])
    def test_a_catalyst_level_no_swap_reaches_is_refused_before_any_work(
        self, tmp_path, capsys, command, catalyst_dim
    ):
        # Two swaps touch at most four catalyst levels.  Unchecked, d = 100
        # took 6.6 s to fail as non-ergodic and d = 100000 ran out of memory.
        text = CUSTOM_SPEC.replace("catalyst_dim = 2", f"catalyst_dim = {catalyst_dim}")
        spec_file = write(tmp_path / "engine.ini", text)
        config = write(tmp_path / "run.ini", f"[run]\nengine = {spec_file}\n")
        start = time.perf_counter()
        assert cli.main([command, "--config", config]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: spec file {spec_file}: catalyst_dim {catalyst_dim} exceeds the 4 "
            "catalyst levels that 2 swap pair(s) can touch\n"
        )

    def test_spec_files_are_solved_in_one_call_and_a_failure_names_its_file(
        self, tmp_path, capsys, monkeypatch
    ):
        good = write(tmp_path / "engine1.ini", CUSTOM_SPEC)
        qutrit = CUSTOM_SPEC.replace("catalyst_dim = 2", "catalyst_dim = 3")
        bad = write(tmp_path / "engine2.ini", qutrit)
        config = write(tmp_path / "run.ini", f"[run]\nengine = {good}, {bad}\n")
        calls = []
        solve = continuous.steady_state_reports

        def counted(specs):
            calls.append(len(specs))
            return solve(specs)

        monkeypatch.setattr(continuous, "steady_state_reports", counted)
        out = tmp_path / "rows.csv"
        assert cli.main(["continuous", "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: spec file {bad}: non-ergodic Liouvillian: steady state not unique\n"
        )
        assert calls == [2]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, engines",
        [("discrete", "built-in"), ("continuous", "built-in"), ("sweep", "built-in"),
         ("discrete", "spec file"), ("continuous", "spec file")],
    )
    def test_each_command_fills_exactly_the_columns_of_its_records(
        self, tmp_path, command, engines
    ):
        inputs = {"engine", "eta", "beta_h", "beta_c", "omega_h", "omega_c", "tau_eq_h",
                  "tau_eq_c", "g", "zeta", "kappa"}
        cycle = {"delta_p_1", "delta_p_2", "q_hot", "q_cold", "work", "eta_discrete",
                 "clausius_discrete", "catalyst_residual", "regime_discrete"}
        steady = {"current_1", "current_2", "j_hot", "j_cold", "power", "eta_continuous",
                  "clausius_continuous", "entropy_production", "first_law_residual",
                  "int_vanish_hot", "int_vanish_cold", "catalysis_residual_max",
                  "regime_continuous"}
        bridge = {"tau", "tau_spread"}
        filled = inputs | {"discrete": cycle, "continuous": steady,
                           "sweep": cycle | steady | bridge}[command]
        if engines == "spec file":
            spec = write(tmp_path / "engine.ini", CUSTOM_SPEC)
            text = f"[run]\nengine = {spec}\n"
        elif command == "sweep":
            text = SWEEP_CONFIG.replace("points = 5", "points = 2")
        else:
            text = BASE_CONFIG
        out = tmp_path / "rows.csv"
        assert cli.main([command, "--config", write(tmp_path / "run.ini", text),
                         "--output", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == (1 if engines == "spec file" else 4 if command == "sweep" else 2)
        for row in rows:
            assert set(row) == inputs | cycle | steady | bridge
            na = set(row) - filled
            if row["engine"] == "otto":
                na |= {"delta_p_2", "current_2"}
            if engines == "spec file":
                na |= {"eta", "zeta", "kappa"}
            assert {name for name, cell in row.items() if cell == "NA"} == na, row["engine"]

    def test_column_selection_is_respected(self, tmp_path):
        config = write(
            tmp_path / "run.ini", BASE_CONFIG + "\n[output]\ncolumns = engine, eta, work\n"
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["discrete", "--config", config, "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "engine,eta,work"


class TestSweep:
    def test_csv_bytes_do_not_depend_on_thread_count(self, tmp_path):
        config = write(tmp_path / "run.ini", SWEEP_CONFIG)
        outputs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"rows_{threads}.csv"
            code = cli.main([
                "sweep", "--config", config, "--output", str(out), "--threads", threads,
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rows_are_sorted_by_sweep_value_then_engine(self, tmp_path):
        config = write(tmp_path / "run.ini", SWEEP_CONFIG)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 10
        keys = [(float(row["eta"]), row["engine"]) for row in rows]
        assert keys == sorted(keys)

    def test_rows_are_sorted_whatever_the_engine_order_in_the_config(self, tmp_path):
        config = write(
            tmp_path / "run.ini",
            SWEEP_CONFIG.replace("engine = otto, qubit_catalyst", "engine = qubit_catalyst, otto"),
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        keys = [(float(row["eta"]), row["engine"]) for row in read_rows(out)]
        assert len(keys) == 10
        assert keys == sorted(keys)

    def test_repeated_sweep_values_group_rows_by_engine(self, tmp_path):
        # start == stop with several points repeats one value; rows stay
        # sorted by (value, engine), so each engine's rows come together.
        config = write(
            tmp_path / "run.ini",
            SWEEP_CONFIG.replace("start = 0.05", "start = 0.4")
            .replace("stop = 0.85", "stop = 0.4")
            .replace("points = 5", "points = 2"),
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        engines = [row["engine"] for row in read_rows(out)]
        assert engines == ["otto", "otto", "qubit_catalyst", "qubit_catalyst"]

    def test_single_point_sweep_emits_header_plus_one_row_per_engine(self, tmp_path):
        config = write(
            tmp_path / "run.ini",
            SWEEP_CONFIG.replace("start = 0.05", "start = 0.4")
            .replace("stop = 0.85", "stop = 0.4")
            .replace("points = 5", "points = 1"),
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_the_last_sweep_point_is_stop_even_where_the_steps_round_past_it(self, tmp_path):
        # start + 250 * step rounds to 1.0 here, one ulp past stop.
        config = write(
            tmp_path / "run.ini",
            SWEEP_CONFIG.replace("engine = otto, qubit_catalyst", "engine = otto")
            .replace("start = 0.05", "start = 0.20793426282712518")
            .replace("stop = 0.85", "stop = 0.9999999999999999")
            .replace("points = 5", "points = 251"),
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 251
        assert float(rows[-1]["eta"]) == 0.9999999999999999

    def test_sweep_rows_carry_both_pictures_and_the_bridge(self, tmp_path):
        config = write(tmp_path / "run.ini", SWEEP_CONFIG)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        for row in read_rows(out):
            assert row["work"] != "NA" and row["power"] != "NA" and row["tau"] != "NA"
            work = float(row["work"])
            assert float(row["power"]) * float(row["tau"]) == pytest.approx(
                work, rel=1e-9
            )

    def test_a_sweep_across_carnot_reads_one_regime_in_both_pictures(self, tmp_path):
        # eta_C = 1 - beta_h/beta_c = 0.9, between the second and third
        # points: past it both machines run backwards at their design
        # efficiency, drawing work and hot heat and giving up cold heat.
        config = write(
            tmp_path / "run.ini",
            SWEEP_CONFIG.replace("start = 0.05", "start = 0.86")
            .replace("stop = 0.85", "stop = 0.94")
            .replace("points = 5", "points = 4"),
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        rows = read_rows(out)
        assert [float(row["eta"]) > 0.9 for row in rows] == [False] * 4 + [True] * 4
        for row in rows:
            assert row["regime_discrete"] == row["regime_continuous"]
            if float(row["eta"]) < 0.9:
                assert row["regime_discrete"] == "engine"
                continue
            assert row["regime_discrete"] == "non_engine"
            for work, hot, cold in (("work", "q_hot", "q_cold"), ("power", "j_hot", "j_cold")):
                assert float(row[work]) < 0 and float(row[hot]) < 0 and float(row[cold]) > 0

    def test_coupling_sweep_uses_the_fixed_efficiency(self, tmp_path):
        config = write(
            tmp_path / "run.ini",
            SWEEP_CONFIG.replace("parameter = eta", "parameter = g_tau_eq")
            .replace("start = 0.05", "start = 0.5")
            .replace("stop = 0.85", "stop = 8.0")
            .replace("tau_eq = 1.0", "tau_eq = 1.0\neta = 0.4")
            .replace("g_tau_eq = 10.0\n", ""),
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 0
        rows = read_rows(out)
        assert {row["eta"] for row in rows} == {f"{0.4:.17g}"}
        assert [float(r["g"]) for r in rows if r["engine"] == "otto"] == [
            0.5, 2.375, 4.25, 6.125, 8.0,
        ]

    def test_the_golden_coupling_sweep_regenerates_byte_for_byte(self, tmp_path):
        # Made once; like the golden eta sweep it is never regenerated to absorb a change.
        config = GOLDEN_CONFIG.with_name("golden_g_sweep.ini")
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
        assert out.read_bytes() == config.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_the_stiff_coupling_sweeps_regenerate_byte_for_byte(self, tmp_path, seed):
        # g tau_eq from 0.01 to 1000 at a working point drawn from the seed; the
        # configs were made once by bench/workloads.py's stiff_config_text, and
        # like the golden sweeps the CSVs are never regenerated to absorb a change.
        config = GOLDEN_CONFIG.with_name(f"stiff_g_sweep_seed{seed}.ini")
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
        assert out.read_bytes() == config.with_suffix(".csv").read_bytes()

    def test_line_endings_are_bare_line_feeds(self, tmp_path):
        config = write(tmp_path / "run.ini", SWEEP_CONFIG)
        out = tmp_path / "rows.csv"
        cli.main(["sweep", "--config", config, "--output", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestWiringGuard:
    @pytest.mark.parametrize(
        "command, picture", [("continuous", "steady-state"), ("discrete", "two-stroke")]
    )
    def test_emitted_efficiency_is_checked_against_the_design_value(
        self, tmp_path, capsys, monkeypatch, command, picture
    ):
        monkeypatch.setattr(cli, "ETA_WIRING_TOL", -1.0)
        config = write(tmp_path / "run.ini", BASE_CONFIG)
        assert cli.main([command, "--config", config]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"check failed: otto at eta = 0\.4, g = 10\.0: emitted {picture} "
            r"efficiency 0\.\d+ does not match the design efficiency 0\.4 of otto\n",
            err,
        ), err

    @pytest.mark.parametrize("command", ["discrete", "continuous"])
    @pytest.mark.parametrize("engines", ["otto, qubit_catalyst", "otto", "qubit_catalyst"])
    def test_discrete_and_continuous_refuse_the_carnot_efficiency_rather_than_emit_noise(
        self, tmp_path, capsys, command, engines
    ):
        # At eta = 1 - beta_h/beta_c = 0.9 every pair flow vanishes, so a row
        # would be rounding noise (Otto's at its design efficiency): refused
        # in the sweep's words.
        text = BASE_CONFIG.replace("eta = 0.4", "eta = 0.9")
        config = write(tmp_path / "run.ini", text.replace(
            "engine = otto, qubit_catalyst", f"engine = {engines}"))
        out = tmp_path / "rows.csv"
        assert cli.main([command, "--config", config, "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"check failed: {engines.split(',')[0]} at eta = 0.9, g = 10.0: mapping "
            "singular at equilibrium boundary: all pair flows vanish\n"
        )
        assert not out.exists()

    def test_a_sweep_ending_at_the_carnot_efficiency_fails_by_point(self, tmp_path, capsys):
        text = GOLDEN_CONFIG.read_text(encoding="utf-8")
        text = text.replace("stop = 0.89", "stop = 0.9").replace("points = 100", "points = 5")
        for engines in ("otto, qubit_catalyst", "qubit_catalyst"):
            config = write(
                tmp_path / "carnot.ini",
                text.replace("engine = otto, qubit_catalyst", f"engine = {engines}"),
            )
            out = tmp_path / "rows.csv"
            assert cli.main(["sweep", "--config", config, "--output", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"check failed: {engines.split(',')[0]} at eta = 0.9, g = 10.0: mapping "
                "singular at equilibrium boundary: all pair flows vanish\n"
            )
            assert not out.exists()

    def test_a_sweep_row_over_its_bridge_tolerance_fails_by_point(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(verify.mapping, "WORK_POWER_TOL", 1e-16)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(GOLDEN_CONFIG), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "check failed: otto at eta = 0.01, g = 10.0: bridge rows over their tolerance: "
        )
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_a_stack_that_fails_without_naming_a_row_is_named_by_its_point(self, tmp_path):
        # At g = 9e307 the stack is refused for leaving double range, with no
        # NumPy warning; one spec at a time, g = 4.5e307 fails first.
        config = write(tmp_path / "run.ini", (
            "[run]\nengine = otto\n\n"
            "[fixed]\nbeta_h_omega_h = 0.1\nbeta_c_over_beta_h = 10.0\ntau_eq = 1.0\neta = 0.4\n\n"
            "[sweep]\nparameter = g_tau_eq\nstart = 1.0\nstop = 9e307\npoints = 3\n"
        ))
        loaded = cli.load_config(config, "sweep")
        with pytest.raises(ValueError) as alone:
            continuous.steady_state_report(cli._spec(loaded.fixed, *loaded.points[1]))
        done = subprocess.run(
            [sys.executable, "-m", "ottocat.cli", "sweep", "--config", config],
            env={**os.environ, "PYTHONPATH": str(Path(ottocat.__file__).resolve().parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr == f"check failed: otto at eta = 0.4, g = 4.5e+307: {alone.value}\n"


class TestOutputFile:
    """An output file the run cannot write is refused before any solve, and
    no run creates its output file before it ends."""

    @pytest.mark.parametrize("command", ["discrete", "continuous", "sweep", "verify"])
    @pytest.mark.parametrize("where, reason", [
        ("out", "Is a directory"),
        ("missing/rows.csv", "No such file or directory"),
        ("run.ini/rows.csv", "Not a directory"),
    ])
    def test_an_output_that_cannot_be_written_is_refused_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, where, reason
    ):
        # A file without write permission takes the same path, but a test
        # run as root may write to it.
        monkeypatch.setattr(cli, "rows", lambda *args: pytest.fail("solved"))
        monkeypatch.setattr(verify, "run_suite", lambda **kwargs: pytest.fail("solved"))
        (tmp_path / "out").mkdir()
        config = write(tmp_path / "run.ini", SWEEP_CONFIG if command == "sweep" else BASE_CONFIG)
        output = tmp_path / where
        argv = [command] if command == "verify" else [command, "--config", config]
        assert cli.main([*argv, "--output", str(output)]) == 2
        assert capsys.readouterr().err == f"error: output file {output}: cannot write: {reason}\n"
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["out", "run.ini"]

    def test_an_output_refused_at_its_late_open_reads_the_same(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_check_output", lambda path: None)
        folder = tmp_path / "rows.csv"
        folder.mkdir()
        config = write(tmp_path / "run.ini", BASE_CONFIG)
        assert cli.main(["discrete", "--config", config, "--output", str(folder)]) == 2
        assert capsys.readouterr().err == (
            f"error: output file {folder}: cannot write: Is a directory\n"
        )

    def test_an_existing_output_file_is_only_written_once_the_run_ends(self, tmp_path):
        out = tmp_path / "rows.csv"
        out.write_text("kept\n", encoding="utf-8")
        config = write(tmp_path / "run.ini", BASE_CONFIG.replace("eta = 0.4", "eta = 0.9"))
        assert cli.main(["discrete", "--config", config, "--output", str(out)]) == 1
        assert out.read_text(encoding="utf-8") == "kept\n"
        assert cli.main(["discrete", "--config", write(tmp_path / "run.ini", BASE_CONFIG),
                         "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("engine,eta,")


class TestVerifySubcommand:
    def test_passing_suite_exits_zero_and_reports_every_check(self, tmp_path):
        out = tmp_path / "report.txt"
        code = cli.main(["verify", "--seed", "3", "--points", "1", "--output", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("PASS") >= 8
        assert "RESULT: PASS (8/8 checks)" in text
        assert "seed=3" in text and "points=1" in text

    def test_single_point_run_is_reproducible(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        cli.main(["verify", "--seed", "11", "--points", "1", "--output", str(first)])
        cli.main(["verify", "--seed", "11", "--points", "1", "--output", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_corrupted_constant_fails_by_name(self, tmp_path, monkeypatch):
        original = analytic.cat_population
        monkeypatch.setattr(
            analytic,
            "cat_population",
            lambda a_h, a_c: original(a_h, a_c) * (1.0 + 3e-9),
        )
        out = tmp_path / "report.txt"
        code = cli.main(["verify", "--seed", "3", "--points", "1", "--output", str(out)])
        assert code == 1
        text = out.read_text(encoding="utf-8")
        assert "FAIL  two_stroke_oracles" in text
        assert "RESULT: FAIL" in text

    def test_a_broken_bridge_fails_its_check_by_point_without_a_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        # Grid point 70 at seed 27 is a catalytic point whose pair terms
        # Omega_i delta_p_i nearly cancel; its work-power gap, 8.5e-12 of
        # their scale, is the only one above 2e-12 on the grid at this seed,
        # with its cold-heat and efficiency rows.  Tightened to 5e-12, the
        # grid's bridge breaks there and nowhere else, and check 5 breaks at
        # its near-limit catalyst, whose cold-heat row reads 5.3e-12.
        monkeypatch.setattr(verify.mapping, "WORK_POWER_TOL", 5e-12)
        out = tmp_path / "report.txt"
        code = cli.main(["verify", "--seed", "27", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ""
        lines = out.read_text(encoding="utf-8").splitlines()
        assert sum(line.startswith("PASS  ") for line in lines) == 6
        grid, power = [line for line in lines if line.startswith("FAIL  ")]
        assert grid.startswith("FAIL  time_bridge")
        assert "qubit_catalyst bridge failed at grid point 70, GridPoint(a_h=0.834" in grid
        assert ": bridge rows over their tolerance: heat_cold 8.5" in grid
        assert ", work_power 8.5" in grid and grid.endswith(" > 5.0e-12")
        assert power.startswith("FAIL  power_advantage")
        assert power.endswith(
            "  qubit_catalyst bridge failed at eta = 0.8999900000000001: "
            "bridge rows over their tolerance: heat_cold 5.321e-12 > 5.0e-12"
        )
        assert lines[-1] == "RESULT: FAIL (6/8 checks)"

    def test_a_bridge_row_over_its_tolerance_fails_checks_3_and_5_by_point(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(verify.mapping, "WORK_POWER_TOL", 1e-16)
        assert cli.main(["verify", "--seed", "3", "--points", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        failed = [line for line in captured.out.splitlines() if line.startswith("FAIL  ")]
        assert [line.split()[1] for line in failed] == ["time_bridge", "power_advantage"]
        assert "otto bridge failed at grid point 0, GridPoint(" in failed[0]
        assert failed[1].endswith(" > 1.0e-16")
        assert "  otto bridge failed at eta = 0.01: bridge rows over their tolerance: " in failed[1]

    def test_a_singular_bridge_fails_the_check_naming_its_point(self, monkeypatch):
        def singular(specs, cycles, reports):
            raise ValueError("mapping singular at equilibrium boundary")

        monkeypatch.setattr(verify.mapping, "_bridges", singular)
        grid = verify.sample_grid(np.random.Generator(np.random.PCG64(3)), 1)
        result = verify.check_time_bridge(grid)
        assert not result.passed and result.worst == math.inf
        assert result.detail == (
            f"otto bridge failed at grid point 0, {grid[0]!r}: "
            "mapping singular at equilibrium boundary"
        )

    def test_a_grid_point_the_solver_cannot_resolve_fails_by_name(self, capsys, monkeypatch):
        grid = verify.sample_grid(np.random.Generator(np.random.PCG64(3)), 2)
        chosen = grid[1].specs[1]  # flattened grid position 3
        solve = continuous._reports

        def failing(specs):
            if chosen in specs:
                exc = ValueError("non-ergodic Liouvillian: steady state not unique")
                exc.index = specs.index(chosen)
                raise exc
            return solve(specs)

        monkeypatch.setattr(continuous, "_reports", failing)
        assert cli.main(["verify", "--seed", "3", "--points", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"check failed: qubit_catalyst at grid point 1, {grid[1]!r}: "
            "non-ergodic Liouvillian: steady state not unique\n"
        )

    def test_zero_points_is_a_usage_error(self, capsys):
        assert cli.main(["verify", "--points", "0"]) == 2
        assert "points" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert cli.main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_the_points_of_one_coupling_share_one_hot_bath_across_engines():
    specs = golden_specs()
    assert {spec.catalyst_dim for spec in specs} == {1, 2}
    assert all(spec.hot is specs[0].hot for spec in specs)


def test_importing_the_cli_builds_no_cache_and_loads_no_scipy():
    # Every cached function of every ottocat module, by qualified name.
    probe = (
        "import sys, ottocat.cli\n"
        "caches = {f'{f.__module__}.{f.__qualname__}': f.cache_info().currsize\n"
        "          for name, module in list(sys.modules.items()) if name.startswith('ottocat')\n"
        "          for f in vars(module).values() if hasattr(f, 'cache_info')}\n"
        "print(sorted(caches.items()), 'scipy' in sys.modules, 'ottocat.verify' in sys.modules)\n"
    )
    src = str(Path(ottocat.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    names = (
        "ottocat.cli._point",
        "ottocat.continuous._bath_jumps",
        "ottocat.continuous._generator_plan",
        "ottocat.engine_spec._ladder_pairs",
        "ottocat.engine_spec.level_table",
        "ottocat.engine_spec.pair_table",
    )
    assert done.stdout.split("\n")[0] == f"{[(name, 0) for name in names]} False False"
