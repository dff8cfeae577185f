"""README's quick-start block runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and float(printed[0]) >= 0.0


def test_readme_custom_drift_runs_in_the_engine():
    # the custom-model block defines a components-first drift that batch_flows can step
    import numpy as np

    from switchsde import LevyMeasureSpec, batch_flows, sample_batch_noise, validate_model

    text = README.read_text()
    section = text[text.index("A custom") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {"np": np}
    exec("from switchsde import ModelSpec, no_switching", scope)
    exec(compile(block, str(README), "exec"), scope)
    model = scope["model"]
    assert validate_model(model) < 1e-5
    noise = sample_batch_noise(model, LevyMeasureSpec(alpha=1.0), 1.0, 16, 5, seed=0)
    res = batch_flows(model, noise, record=True)
    assert res.X.shape == (5, 2) and res.X_path.shape == (5, 17, 2)
    assert np.array_equal(res.X, res.X_path[:, -1])
