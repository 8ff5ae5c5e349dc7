import pytest

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
