"""The benchmark's tracer targets and beat functions resolve against this fedsim.

bench/tracer.py wraps fedsim functions and methods by name, and bench/worker.py
cuts the filtered run time at one repeated call per workload, its beat. A
rename in src/fedsim would make `bench/run.py --trace 1` fail with a KeyError,
or leave the beat recorder patching a name nobody calls. Both files are
imported here by path and left unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim import adapter_net, fed_client
from fedsim.config import parse_config_text
from fedsim.datagen import generate_federation
from fedsim.oracles import _build_fixture, gradient_fixtures
from fedsim.orchestrator import _init_states

REPO = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
worker = _load("worker")


def test_fedsim_is_this_checkout():
    assert Path(fedsim.__file__).resolve().parent == REPO / "src" / "fedsim"


# Names bench/worker.py and bench/tests read off the package itself.
PACKAGE_NAMES = (
    "load_config",
    "parse_config_text",
    "generate_federation",
    "build_model",
    "RngStream",
    "derive_stream_id",
    "run_experiment",
)


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_resolves(name):
    assert callable(getattr(fedsim, name))


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t.name)
def test_tracer_target_resolves(target):
    owner = importlib.import_module(target.module)
    *owner_path, attr = target.qualname.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert callable(raw)


@pytest.mark.parametrize(
    "beat, defined_in",
    [(worker.TRAINING_BEAT, fed_client), (worker.GRAD_BEAT, adapter_net)],
    ids=["training", "grad_oracle"],
)
def test_beat_is_the_function_its_caller_calls(beat, defined_in):
    module, attr, _, stride = beat
    # The recorder patches the caller's by-name import, which must be the real function.
    assert getattr(importlib.import_module(module), attr) is getattr(defined_in, attr)
    assert stride >= 1


def test_beat_keys_read_real_arguments(small_config_text):
    cfg = parse_config_text(small_config_text)
    _, states = _init_states(cfg, generate_federation(cfg.federation))
    state = states[0]
    assert worker.TRAINING_BEAT[2]((state, 1)) == (len(state.dataset.train), True)
    model, images, masks, theta_ref = _build_fixture(gradient_fixtures()[0])
    key = worker.GRAD_BEAT[2]((images, masks, model, theta_ref, 0.05))
    assert key == (images.shape, model.num_blocks)
    assert np.isfinite(adapter_net.objective(images, masks, model, theta_ref, 0.05))


def test_the_round_loop_calls_the_training_beat_once_per_client_per_round(
    small_config_text, monkeypatch
):
    # A loop that bypassed this binding would leave the beat recorder counting
    # nothing, and the benchmark's filtered run time would fall back to wall time.
    module, attr, _, _ = worker.TRAINING_BEAT
    owner = importlib.import_module(module)
    real = getattr(owner, attr)
    calls = []

    def counted(state, round_index):
        calls.append((round_index, state.client_id))
        return real(state, round_index)

    monkeypatch.setattr(owner, attr, counted)
    cfg = parse_config_text(small_config_text)
    fedsim.run_experiment(cfg)
    clients = range(cfg.federation.num_clients)
    assert calls == [(r, i) for r in range(1, cfg.rounds + 1) for i in clients]
