"""Benchmark workloads: each one's generated input is a pure function of its seed.

The program under test receives only the generated config file. The
training workloads are INI configs derived from the shipped
``configs/*.ini``; ``grad_oracle`` is a JSON naming the fixture seed.
"""

from __future__ import annotations

import configparser
import io
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("train_default", "many_clients", "grad_oracle")

MANY_CLIENTS = 32
MANY_CLIENTS_SAMPLES = 10
GRAD_FIXTURES = 6

# Final mean test IoU a correct training run reaches, and how far any seed may
# stray from it. Measured over seeds 0..9 with fedsim 0.1.0: train_default
# spans 0.103..0.186 and many_clients 0.163..0.201.
REFERENCE_IOU = {
    "train_default": (0.15, 0.10),
    "many_clients": (0.18, 0.10),
}
MAX_GRAD_REL_ERROR = 1e-4
# The timed check uses criterion 03's step, h = 1e-5. A fixture that misses the
# bound there is checked again, untimed, at this smaller step (see checks.py).
GRAD_RECHECK_STEP = 1e-6


@dataclass(frozen=True)
class Generated:
    """A workload's input: the file name to write it under, and its text."""

    filename: str
    text: str


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(path.read_text(encoding="utf-8"))
    return parser


def _ini_text(parser: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def generate(workload: str, seed: int, configs_dir: Path) -> Generated:
    """The input for one run of ``workload`` at ``seed``, built from the shipped configs."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workload == "train_default":
        # configs/default.ini as shipped; only the run seed (which also seeds
        # the federation) comes from the benchmark.
        parser = _read_ini(configs_dir / "default.ini")
        parser["run"]["seed"] = str(seed)
        return Generated(f"train_default-{seed}.ini", _ini_text(parser))
    if workload == "many_clients":
        # demo.ini's two clusters, alternated over 32 ten-sample clients,
        # with the full adapter stack uploaded every round. The knobs that
        # define the workload are set here; the rest come from demo.ini.
        parser = _read_ini(configs_dir / "demo.ini")
        parser["run"]["rounds"] = "30"
        parser["run"]["seed"] = str(seed)
        parser["run"]["aggregator"] = "sgca"
        parser["model"]["num_blocks"] = "6"
        parser["model"]["feature_dim"] = "256"
        parser["model"]["bottleneck_dim"] = "16"
        parser["client"]["learning_rate"] = "0.01"
        parser["client"]["batch_size"] = "32"
        parser["client"]["low_layers"] = "6"
        parser["sgca"]["alpha"] = "1.0"
        parser["sgca"]["metric"] = "l2_based"
        fed = parser["federation"]
        fed["client_sizes"] = ", ".join([str(MANY_CLIENTS_SAMPLES)] * MANY_CLIENTS)
        fed["clusters"] = ", ".join(str(i % 2) for i in range(MANY_CLIENTS))
        return Generated(f"many_clients-{seed}.ini", _ini_text(parser))
    if workload == "grad_oracle":
        spec = {"fixture_seed": seed, "num_fixtures": GRAD_FIXTURES}
        return Generated(f"grad_oracle-{seed}.json", json.dumps(spec, sort_keys=True) + "\n")
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def read_ini_numbers(text: str) -> dict:
    """The config values the correctness checks need, read without fedsim."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    sizes = [int(v) for v in parser["federation"]["client_sizes"].split(",")]
    return {
        "rounds": parser.getint("run", "rounds"),
        "num_clients": len(sizes),
        "low_layers": parser.getint("client", "low_layers"),
        "feature_dim": parser.getint("model", "feature_dim"),
        "bottleneck_dim": parser.getint("model", "bottleneck_dim"),
    }


def expected_comm_total(numbers: dict) -> int:
    """Scalars on the wire: a broadcast and an upload of L layers of 2*d*b per client per round."""
    per_layer = 2 * numbers["feature_dim"] * numbers["bottleneck_dim"]
    return 2 * numbers["rounds"] * numbers["num_clients"] * numbers["low_layers"] * per_layer


def grad_loss_evaluations(fixtures: list[dict]) -> int:
    """Central differences evaluate the loss twice per adapter parameter."""
    return sum(
        2 * fx["num_blocks"] * 2 * fx["feature_dim"] * fx["bottleneck_dim"] for fx in fixtures
    )
