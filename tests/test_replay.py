"""Replay a committed corpus of real manifests, byte for byte.

Each entry of ``tests/replay/corpus.json`` names a ``manifest.json`` that a
named commit wrote, kept verbatim as ``tests/replay/<name>.json``, with the
sha256 of every output file of that run and the config block a replay writes
back. All entries replay in one subprocess under the pins the corpus was
written with, the OpenBLAS kernel and thread count and NumPy's CPU features,
since each of them moves output bytes (README, "Reproducibility"). A host
whose machine or versions differ from the recorded ones fails, naming both.
A versioned change adds entries and keeps the old ones.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtekit
from dtekit.inference import _CHUNK_UNITS
from dtekit.learners import LEARNER_KINDS

CORPUS = Path(__file__).parent / "replay"
INDEX = json.loads((CORPUS / "corpus.json").read_text())
ENTRIES = {entry["name"]: entry for entry in INDEX["entries"]}
# the experiment CSVs the manifests name, relative to the replay directory, by row count
INPUTS = {"inputs/small.csv": 240, "inputs/wide.csv": 9000}

# prints the host's machine and versions, then replays each (mode, manifest, out)
REPLAY = """
import json, platform, sys
import numpy, scipy
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1, which the version check names
    __cpu_features__ = {}
from dtekit.cli import main
print(json.dumps({
    "machine": platform.machine(), "avx2": __cpu_features__.get("AVX2", False),
    "numpy": numpy.__version__, "scipy": scipy.__version__,
    "openblas": numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"],
}), flush=True)
for mode, manifest, out in json.loads(sys.argv[1]):
    main([mode, "--from-manifest", manifest, "--out", out])
"""


def _decimal(millionths: int) -> str:
    return f"{'-' * (millionths < 0)}{abs(millionths) // 10**6}.{abs(millionths) % 10**6:06d}"


def experiment_csv(n_units: int) -> str:
    """Two alternating arms, two covariates and an outcome, from integer arithmetic only.

    Every value is a whole number of millionths from a 64-bit linear
    congruential generator (Knuth's MMIX constants), written as a decimal, so
    the file is the same on every host.
    """
    state = 2024

    def uniform() -> int:
        nonlocal state
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        return (state >> 33) % 10**6

    lines = ["arm,outcome,x1,x2"]
    for i in range(n_units):
        x1, x2 = uniform(), uniform()
        noise = uniform() + uniform() + uniform() - 1_500_000
        outcome = x1 + x2 + 500_000 * (i % 2) + noise
        lines.append(f"{('control', 'treated')[i % 2]},{_decimal(outcome)},{_decimal(x1)},{_decimal(x2)}")
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path) -> None:
    for name, n_units in INPUTS.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(experiment_csv(n_units))


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """The replay directory and the host the subprocess reported."""
    directory = tmp_path_factory.mktemp("replay")
    write_inputs(directory)
    jobs = [(entry["config"]["mode"], str(CORPUS / f"{name}.json"), entry["config"]["out"])
            for name, entry in ENTRIES.items()]
    source = str(Path(dtekit.__file__).parents[1])
    env = dict(os.environ, **INDEX["pins"], PYTHONPATH=os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]))
    process = subprocess.run([sys.executable, "-c", REPLAY, json.dumps(jobs)], cwd=directory, env=env,
                             capture_output=True, text=True)
    host = json.loads(process.stdout.splitlines()[0]) if process.stdout else {}
    return directory, host, process


def test_host_matches_the_corpus(replayed):
    _, host, _ = replayed
    differ = [f"{key}: corpus {value!r}, this host {host.get(key)!r}"
              for key, value in INDEX["host"].items() if host.get(key) != value]
    assert not differ, "the corpus replays byte for byte only on its recorded host; " + "; ".join(differ)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_replays_byte_for_byte(replayed, name):
    directory, _, process = replayed
    entry = ENTRIES[name]
    out = directory / entry["config"]["out"]
    assert (out / "manifest.json").exists(), f"{name} did not replay:\n{process.stderr}"
    written = json.loads((out / "manifest.json").read_text())
    assert written["config"] == entry["config"]
    assert written["outputs"] == sorted(entry["outputs"])
    assert sorted(path.name for path in out.iterdir()) == sorted([*entry["outputs"], "manifest.json"])
    hashes = {file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in entry["outputs"]}
    assert hashes == entry["outputs"]


def test_corpus_covers_every_engine_a_manifest_reaches():
    """An entry cannot drop out of the corpus without this test naming what it covered."""
    configs = {name: entry["config"] for name, entry in ENTRIES.items()}
    recorded = {name: json.loads((CORPUS / f"{name}.json").read_text())["config"] for name in ENTRIES}
    assert {config["mode"] for config in configs.values()} == {"simulate", "estimate", "bootstrap-band"}
    learners = {config["learner"] for config in configs.values() if config["mode"] != "simulate"}
    learners |= {name for config in configs.values() if config["mode"] == "simulate" for name in config["methods"]}
    assert learners >= set(LEARNER_KINDS)
    assert any(config["precision"] == "float32" for config in configs.values())
    assert any("precision" not in recorded[name] and config["precision"] == "float64"
               for name, config in configs.items())
    assert any("threads" in config for config in recorded.values())
    # a study manifest from when simulate took every mode's flags
    assert any(config["mode"] == "simulate" and config["learner"] not in config["methods"]
               for config in configs.values())
    # schemes 1 (no key) to 4 past one multiplier chunk, each with bands of its own
    wide = [name for name, config in configs.items()
            if config["mode"] == "bootstrap-band" and INPUTS[config["input"]] > _CHUNK_UNITS]
    bands = {configs[name]["multiplier_scheme"]: ENTRIES[name]["outputs"]["band_empirical.csv"] for name in wide}
    assert sorted(bands) == [1, 2, 3, 4]
    assert len(set(bands.values())) == 4
    assert any("multiplier_scheme" not in recorded[name] and configs[name]["multiplier_scheme"] == 1
               for name in wide)
