"""Experiment configuration: dataclasses plus the INI-style config file parser.

The file format is flat key = value pairs under sections mirroring the
config structure ([run], [model], [client], [sgca], [federation], and one
[cluster.<id>] section per cluster). Unknown sections or keys are errors.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, replace

from .datagen import ClusterParams, FederationSpec
from .errors import ConfigError, InvalidArgumentError
from .fed_client import ClientConfig
from .server import SgcaConfig

AGGREGATORS = ("sgca", "fedavg")
SWEEP_AXES = ("L", "beta", "alpha", "metric", "aggregator")


@dataclass
class ModelConfig:
    num_blocks: int = 6
    feature_dim: int = 256
    bottleneck_dim: int = 16

    def validate(self) -> None:
        if self.num_blocks < 2:
            raise ConfigError("model.num_blocks must be >= 2")
        if not 1 <= self.bottleneck_dim < self.feature_dim:
            raise ConfigError("model.bottleneck_dim must be in 1..feature_dim-1")


@dataclass
class ExperimentConfig:
    federation: FederationSpec
    client: ClientConfig = field(default_factory=ClientConfig)
    sgca: SgcaConfig = field(default_factory=SgcaConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    aggregator: str = "sgca"
    rounds: int = 100
    seed: int = 0
    # Parsed, validated and hashed, but clients always run one after another.
    workers: int = 1

    def validate(self) -> None:
        if self.rounds < 1:
            raise ConfigError("run.rounds must be >= 1")
        if self.workers < 1:
            raise ConfigError("run.workers must be >= 1")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"run.aggregator must be one of {AGGREGATORS}")
        self.model.validate()
        if self.model.feature_dim != self.federation.mask_side**2:
            raise ConfigError(
                f"model.feature_dim ({self.model.feature_dim}) must equal "
                f"mask_side^2 ({self.federation.mask_side**2})"
            )
        try:
            self.federation.validate()
            self.client.validate(self.model.num_blocks)
            self.sgca.validate()
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "run": {
                "rounds": self.rounds,
                "seed": self.seed,
                "aggregator": self.aggregator,
                "workers": self.workers,
            },
            "model": {
                "num_blocks": self.model.num_blocks,
                "feature_dim": self.model.feature_dim,
                "bottleneck_dim": self.model.bottleneck_dim,
            },
            "client": {
                "learning_rate": self.client.learning_rate,
                "batch_size": self.client.batch_size,
                "local_epochs": self.client.local_epochs,
                "beta": self.client.beta,
                "low_layers": self.client.low_layers,
            },
            "sgca": {
                "alpha": self.sgca.alpha,
                "metric": self.sgca.metric,
                "normalization": self.sgca.normalization,
                "m_mode": self.sgca.m_mode,
            },
            "federation": {
                "client_sizes": list(self.federation.client_sizes),
                "clusters": list(self.federation.cluster_of),
                "mask_side": self.federation.mask_side,
                "seed": self.federation.seed,
            },
            "cluster_params": {
                str(cid): {
                    "blob_count": list(params.blob_count),
                    "radius": list(params.radius),
                    "gain": params.gain,
                    "noise": params.noise,
                    "offset": list(params.offset),
                }
                for cid, params in sorted(self.federation.clusters.items())
            },
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "ExperimentConfig":
        cfg = replace(self, seed=seed)
        cfg.federation = replace(self.federation, seed=seed)
        return cfg


_KNOWN_KEYS = {
    "run": {"rounds", "seed", "aggregator", "workers"},
    "model": {"num_blocks", "feature_dim", "bottleneck_dim"},
    "client": {"learning_rate", "batch_size", "local_epochs", "beta", "low_layers"},
    "sgca": {"alpha", "metric", "normalization", "m_mode"},
    "federation": {"client_sizes", "clusters", "mask_side", "seed"},
}
_CLUSTER_KEYS = {"blob_count", "radius", "gain", "noise", "offset"}

DEFAULT_CLIENT_SIZES = (100, 40, 80, 120)
DEFAULT_CLUSTER_OF = (0, 0, 1, 1)


def _parse_scalar(section: str, key: str, raw: str, kind: type):
    try:
        if kind is bool:
            raise TypeError
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from exc


def _parse_tuple(section: str, key: str, raw: str, kind: type, arity: int | None = None):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if arity is not None and len(parts) != arity:
        raise ConfigError(f"[{section}] {key}: expected {arity} comma-separated values")
    return tuple(_parse_scalar(section, key, p, kind) for p in parts)


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    cluster_params: dict[int, ClusterParams] = {}
    plain: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section.startswith("cluster."):
            try:
                cid = int(section.split(".", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad cluster section name [{section}]") from exc
            params = ClusterParams()
            for key, raw in parser.items(section):
                if key not in _CLUSTER_KEYS:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                if key == "blob_count":
                    params = replace(params, blob_count=_parse_tuple(section, key, raw, int, 2))
                elif key == "radius":
                    params = replace(params, radius=_parse_tuple(section, key, raw, float, 2))
                elif key == "gain":
                    params = replace(params, gain=_parse_scalar(section, key, raw, float))
                elif key == "noise":
                    params = replace(params, noise=_parse_scalar(section, key, raw, float))
                elif key == "offset":
                    params = replace(params, offset=_parse_tuple(section, key, raw, float, 2))
            cluster_params[cid] = params
        elif section in _KNOWN_KEYS:
            for key in parser.options(section):
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
            plain[section] = dict(parser.items(section))
        else:
            raise ConfigError(f"unknown section [{section}]")

    def get(section: str, key: str, default):
        return plain.get(section, {}).get(key, default)

    run_seed = _parse_scalar("run", "seed", str(get("run", "seed", 0)), int)

    sizes_raw = get("federation", "client_sizes", None)
    client_sizes = (
        _parse_tuple("federation", "client_sizes", sizes_raw, int)
        if sizes_raw is not None
        else DEFAULT_CLIENT_SIZES
    )
    clusters_raw = get("federation", "clusters", None)
    cluster_of = (
        _parse_tuple("federation", "clusters", clusters_raw, int)
        if clusters_raw is not None
        else DEFAULT_CLUSTER_OF[: len(client_sizes)]
    )
    if not cluster_params:
        cluster_params = {cid: ClusterParams() for cid in set(cluster_of)}
    for cid in set(cluster_of):
        if cid not in cluster_params:
            raise ConfigError(f"cluster {cid} referenced but no [cluster.{cid}] section given")

    mask_side = _parse_scalar(
        "federation", "mask_side", str(get("federation", "mask_side", 16)), int
    )
    fed_seed_raw = get("federation", "seed", None)
    federation = FederationSpec(
        client_sizes=client_sizes,
        cluster_of=cluster_of,
        clusters=cluster_params,
        mask_side=mask_side,
        seed=_parse_scalar("federation", "seed", fed_seed_raw, int)
        if fed_seed_raw is not None
        else run_seed,
    )

    model = ModelConfig(
        num_blocks=_parse_scalar("model", "num_blocks", str(get("model", "num_blocks", 6)), int),
        feature_dim=_parse_scalar(
            "model", "feature_dim", str(get("model", "feature_dim", mask_side**2)), int
        ),
        bottleneck_dim=_parse_scalar(
            "model", "bottleneck_dim", str(get("model", "bottleneck_dim", 16)), int
        ),
    )
    client = ClientConfig(
        learning_rate=_parse_scalar(
            "client", "learning_rate", str(get("client", "learning_rate", 1e-4)), float
        ),
        batch_size=_parse_scalar("client", "batch_size", str(get("client", "batch_size", 32)), int),
        local_epochs=_parse_scalar(
            "client", "local_epochs", str(get("client", "local_epochs", 1)), int
        ),
        beta=_parse_scalar("client", "beta", str(get("client", "beta", 0.01)), float),
        low_layers=_parse_scalar("client", "low_layers", str(get("client", "low_layers", 1)), int),
    )
    sgca = SgcaConfig(
        alpha=_parse_scalar("sgca", "alpha", str(get("sgca", "alpha", 1.0)), float),
        metric=str(get("sgca", "metric", "l2_based")),
        normalization=str(get("sgca", "normalization", "max_abs_row")),
        m_mode=str(get("sgca", "m_mode", "row_constant_mi")),
    )
    cfg = ExperimentConfig(
        federation=federation,
        client=client,
        sgca=sgca,
        model=model,
        aggregator=str(get("run", "aggregator", "sgca")),
        rounds=_parse_scalar("run", "rounds", str(get("run", "rounds", 100)), int),
        seed=run_seed,
        workers=_parse_scalar("run", "workers", str(get("run", "workers", 1)), int),
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_sweep_value(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """A copy of cfg with one sweep axis overridden."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    cfg = replace(cfg)
    if axis == "L":
        cfg.client = replace(cfg.client, low_layers=_parse_scalar("sweep", "L", value, int))
    elif axis == "beta":
        cfg.client = replace(cfg.client, beta=_parse_scalar("sweep", "beta", value, float))
    elif axis == "alpha":
        cfg.sgca = replace(cfg.sgca, alpha=_parse_scalar("sweep", "alpha", value, float))
    elif axis == "metric":
        cfg.sgca = replace(cfg.sgca, metric=value)
    elif axis == "aggregator":
        cfg.aggregator = value
    cfg.validate()
    return cfg
