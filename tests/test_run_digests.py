"""Pinned run directories: a change that keeps a run's arithmetic keeps every byte it writes.

A run's digest is SHA-256 over every file of its saved directory, each as its
relative path, a NUL byte and its contents, in sorted path order; the first
16 hex digits are pinned. numpy's bundled OpenBLAS is a DYNAMIC_ARCH build
that picks its kernels for the CPU it runs on, and another kernel may sum in
another order, so the pins are checked only with the OpenBLAS build and the
kernel set they were measured with.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from fedsim.config import parse_config_text
from fedsim.orchestrator import run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# show_config names the build's own core; the kernels a run takes are the run-time core's.
PINNED_BLAS = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"
PINNED_CORE = "SkylakeX"


def openblas_core() -> str | None:
    """The core whose kernels numpy's bundled OpenBLAS runs on this CPU, or None without it."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def pinned_blas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        blas.get("name") == "scipy-openblas"
        and blas.get("openblas configuration") == PINNED_BLAS
        and openblas_core() == PINNED_CORE
    )


def dir_digest(root: Path) -> str:
    """The first 16 hex digits of SHA-256 over every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def demo_text(aggregator: str) -> str:
    text = (CONFIGS / "demo.ini").read_text(encoding="utf-8")
    return text.replace("aggregator = sgca", f"aggregator = {aggregator}")


def many_clients_text() -> str:
    """demo.ini at seed 47, all 6 layers shared by 32 ten-sample clients in clusters 0, 1, 0, ..."""
    edits = {
        "seed = 0": "seed = 47",
        "low_layers = 1": "low_layers = 6",
        "client_sizes = 100, 100, 100, 100": "client_sizes = " + ", ".join(["10"] * 32),
        "clusters = 0, 0, 1, 1": "clusters = " + ", ".join(str(i % 2) for i in range(32)),
    }
    text = (CONFIGS / "demo.ini").read_text(encoding="utf-8")
    for old, new in edits.items():
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


@pytest.mark.skipif(
    not pinned_blas(), reason=f"the pins hold for OpenBLAS 0.3.31 on {PINNED_CORE} kernels"
)
@pytest.mark.parametrize(
    "name, digest",
    [
        ("small_config", "2c95fb5f08306880"),
        ("demo.ini", "240bae61b600ce23"),
        ("demo.ini/fedavg", "188c281ab6f14f1b"),
        ("default.ini", "0cb395f597fef204"),
        ("many_clients", "09a13aa2e54186f4"),
    ],
)
def test_run_directory_digest_is_pinned(name, digest, small_config_text, tmp_path):
    texts = {
        "small_config": small_config_text,
        "demo.ini": demo_text("sgca"),
        "demo.ini/fedavg": demo_text("fedavg"),
        "default.ini": (CONFIGS / "default.ini").read_text(encoding="utf-8"),
        "many_clients": many_clients_text(),
    }
    run_experiment(parse_config_text(texts[name]), tmp_path)
    assert dir_digest(tmp_path) == digest
