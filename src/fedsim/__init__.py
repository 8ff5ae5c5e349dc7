"""Deterministic desk-scale simulator of federated adapter tuning.

Clients with a shared frozen backbone train bottleneck adapters on
synthetic non-IID segmentation tasks, transmit only the low-level
adapters, and the server mixes them per client through a
similarity-guided quadratic program over the probability simplex.
"""

__version__ = "0.1.0"

# The names scripts outside the package use; everything else is imported
# from its submodule.
from .adapter_net import build_model
from .config import load_config, parse_config_text
from .datagen import generate_federation
from .numerics import RngStream, derive_stream_id
from .orchestrator import run_experiment
