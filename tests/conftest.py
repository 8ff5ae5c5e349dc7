import hashlib

import numpy as np
import pytest

from fedsim import adapter_net
from fedsim.numerics import FlatParams

SMALL_CONFIG = """
[run]
rounds = 3
seed = 0
aggregator = sgca

[model]
num_blocks = 3
feature_dim = 64
bottleneck_dim = 4

[client]
learning_rate = 0.01
batch_size = 16
local_epochs = 1
beta = 0.01
low_layers = 1

[sgca]
alpha = 1.0
metric = l2_based

[federation]
client_sizes = 12, 10, 14, 16
clusters = 0, 0, 1, 1
mask_side = 8

[cluster.0]
gain = 1.5
noise = 0.05
radius = 1.5, 2.5
blob_count = 1, 2

[cluster.1]
gain = 0.5
noise = 0.05
radius = 1.5, 2.5
blob_count = 1, 2
"""


@pytest.fixture
def small_config_text():
    return SMALL_CONFIG


# Test-only FlatParams helpers. They are fixtures because a second conftest
# module (bench/tests) shadows `import conftest` during a tier-1 run.


@pytest.fixture
def from_layers():
    """Build a FlatParams from (layer index, values) pairs, concatenated in order."""

    def build(parts):
        parts = [(int(k), np.asarray(v, dtype=np.float64).ravel()) for k, v in parts]
        values = np.concatenate([v for _, v in parts]) if parts else np.zeros(0)
        return FlatParams(values, tuple((k, v.size) for k, v in parts))

    return build


@pytest.fixture
def same_params():
    """Equality of two FlatParams: the same manifest and equal values."""
    return lambda a, b: a.manifest == b.manifest and np.array_equal(a.values, b.values)


@pytest.fixture
def frozen_digest():
    """SHA-256 over a model's frozen weights and biases, blocks then head."""

    def digest(model):
        h = hashlib.sha256()
        for block in [*model.blocks, model.head]:
            h.update(block.weight.tobytes())
            h.update(block.bias.tobytes())
        return h.hexdigest()

    return digest


@pytest.fixture
def set_blas_threads():
    """The setter of numpy's bundled OpenBLAS thread count, restored after the test.

    Skips the test when that library is not found.
    """
    threads = adapter_net._openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, set_ = threads
    previous = get()
    yield set_
    set_(previous)
