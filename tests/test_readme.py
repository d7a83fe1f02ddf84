"""The README's library example runs and prints what it claims."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

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
