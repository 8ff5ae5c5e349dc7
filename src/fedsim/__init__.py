"""Deterministic desk-scale simulator of federated adapter tuning.

Clients with a shared frozen backbone train bottleneck adapters on
synthetic non-IID segmentation tasks, transmit only the low-level
adapters, and the server mixes them per client through a
similarity-guided quadratic program over the probability simplex.
"""

__version__ = "0.1.0"

from .adapter_net import (
    AdamState,
    AdapterParams,
    FrozenBlock,
    ToyFM,
    adam_step,
    adapter_forward,
    build_model,
    model_forward,
    objective,
    reg_loss,
    seg_loss,
)
from .config import ExperimentConfig, ModelConfig, load_config, parse_config_text
from .datagen import (
    ClientDataset,
    ClusterParams,
    FederationSpec,
    Sample,
    generate_client_dataset,
    generate_federation,
    load_federation,
    save_federation,
    split_train_test,
)
from .errors import (
    ConfigError,
    DecodeError,
    FedsimError,
    InvalidArgumentError,
    InvalidStateError,
    NumericError,
    ProtocolError,
)
from .fed_client import (
    ClientConfig,
    ClientState,
    ClientUpdate,
    evaluate,
    install_low_adapters,
    iou_dice,
    local_train_round,
    measure_param_shift,
)
from .numerics import (
    FlatParams,
    RngStream,
    derive_stream_id,
    finite_diff_grad,
    rng_draw_gaussian,
    simplex_project,
)
from .orchestrator import (
    ResultsStore,
    RoundRecord,
    export_store,
    run_experiment,
    run_sweep,
)
from .server import (
    CollaborationMatrix,
    SgcaConfig,
    aggregate,
    fedavg_aggregate,
    pairwise_similarity,
    solve_row,
    update_matrix,
)
from .transport import (
    CommLedger,
    WireMessage,
    deserialize_params,
    read_params_file,
    select_for_transmission,
    serialize_params,
    write_params_file,
)
