"""The public names other code is documented or measured against still resolve.

``BENCHMARK.json`` lists per-layer metrics ``<layer>.<function>.calls`` and
``<layer>.<function>.s``; the benchmark's tracer wraps only functions that
the layer module defines and lists in its ``__all__``, and fails on a listed
name it did not wrap. README's "Library sketch" is the documented way in.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from dtekit.simulation import DgpConfig, generate

ROOT = Path(__file__).resolve().parents[1]


def _traced_functions() -> list[tuple[str, str]]:
    """Every (layer, function) that a per-layer call count or self time names."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = []
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("calls", "s"):
            names.append((parts[0], parts[1]))
    return sorted(set(names))


def test_benchmark_names_functions():
    assert len(_traced_functions()) >= 10


@pytest.mark.parametrize(("layer", "name"), _traced_functions(), ids=".".join)
def test_benchmark_function_is_public_in_its_layer(layer, name):
    module = importlib.import_module(f"dtekit.{layer}")
    assert name in module.__all__
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__


def test_readme_library_sketch_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library sketch\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert match, "README has no python block under its Library sketch heading"
    data = generate(DgpConfig(n_units=400))
    namespace = {"x": data.covariates, "w": data.arms, "y": data.outcomes}
    exec(compile(match.group(1), "README.md", "exec"), namespace)
    band = namespace["band"]
    assert band.kind == "dte" and band.se.shape == (19,)
    assert capsys.readouterr().out.strip()
