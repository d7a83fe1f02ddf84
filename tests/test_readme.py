"""The README's library example runs and prints what it claims, its
spec file example loads, and it lists the CSV columns in their order."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from ottocat.cli import COLUMNS, load_custom_spec
from ottocat.engine_spec import BathParams, ladder_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_example_prints_its_design_efficiency_and_a_closed_heat_row():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    efficiencies, heat_hot = out.getvalue().splitlines()
    eta_discrete, eta_continuous, _ = map(float, efficiencies.split())
    assert abs(eta_discrete - 0.4) <= 1e-9 and abs(eta_continuous - 0.4) <= 1e-9
    assert float(heat_hot) <= 1e-9


def test_the_readme_spec_file_loads_as_the_qubit_catalyst_ladder(tmp_path):
    [example] = re.findall(r"```ini\n(\[engine\].*?)```", README.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "engine.ini"
    path.write_text(example, encoding="utf-8")
    spec = load_custom_spec(str(path))
    assert spec == ladder_spec(2, spec.hot, spec.cold, 10.0)
    assert spec.hot == BathParams.from_relaxation_time(0.1, 1.0, 1.0)


def test_the_readme_lists_the_csv_columns_in_their_order():
    text = README.read_text(encoding="utf-8")
    [paragraph] = re.findall(r"Columns, in order:(.*?)\n\n", text, re.S)
    names = [name for name in re.findall(r"`([^`]+)`", paragraph) if "." not in name]
    assert tuple(names) == COLUMNS
