"""Experiment configuration: dataclasses plus the INI-style config file parser.

The file format is flat key = value pairs under sections mirroring the
config structure ([run], [model], [client], [sgca], [federation], and one
[cluster.<id>] section per cluster). Unknown sections or keys are errors.
The keys of [run], [model], [client], [sgca] and [cluster.<id>] are the
fields of their dataclasses; each field's default gives its value type,
and a tuple default also the number of comma-separated values.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .datagen import ClusterParams, FederationSpec
from .errors import ConfigError, InvalidArgumentError
from .fed_client import ClientConfig
from .server import SgcaConfig

AGGREGATORS = ("sgca", "fedavg")


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

    def validate(self) -> None:
        if self.rounds < 1:
            raise ConfigError("run.rounds must be >= 1")
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
        fed = self.federation
        return {
            "run": {name: getattr(self, name) for name in _defaults(ExperimentConfig)},
            "model": asdict(self.model),
            "client": asdict(self.client),
            "sgca": asdict(self.sgca),
            "federation": {
                "client_sizes": list(fed.client_sizes),
                "clusters": list(fed.cluster_of),
                "mask_side": fed.mask_side,
                "seed": fed.seed,
            },
            "cluster_params": {str(cid): asdict(p) for cid, p in sorted(fed.clusters.items())},
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "ExperimentConfig":
        cfg = replace(self, seed=seed)
        cfg.federation = replace(self.federation, seed=seed)
        return cfg


DEFAULT_CLIENT_SIZES = (100, 40, 80, 120)
DEFAULT_CLUSTER_OF = (0, 0, 1, 1)


def _defaults(cls) -> dict:
    """Each field of cls that has a plain default, mapped to that default."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _parse_scalar(section: str, key: str, raw: str, kind: type):
    try:
        if kind is bool:
            raise TypeError
        value = kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def _parse_tuple(section: str, key: str, raw: str, kind: type, arity: int | None = None):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if arity is not None and len(parts) != arity:
        raise ConfigError(f"[{section}] {key}: expected {arity} comma-separated values")
    return tuple(_parse_scalar(section, key, p, kind) for p in parts)


# [run] holds ExperimentConfig's own fields, the ones with a plain default.
_SECTIONS = {
    "run": ExperimentConfig,
    "model": ModelConfig,
    "client": ClientConfig,
    "sgca": SgcaConfig,
}
# [federation] keys and their parsers; all values are ints. clusters sets cluster_of.
_FEDERATION_KEYS = {
    "client_sizes": _parse_tuple,
    "clusters": _parse_tuple,
    "mask_side": _parse_scalar,
    "seed": _parse_scalar,
}
_SWEEP_FIELDS = {
    "L": ("client", "low_layers"),
    "beta": ("client", "beta"),
    "alpha": ("sgca", "alpha"),
    "metric": ("sgca", "metric"),
    "aggregator": ("run", "aggregator"),
}
SWEEP_AXES = tuple(_SWEEP_FIELDS)


def _parse_like(section: str, key: str, raw: str, default):
    """raw parsed to the type of default: a tuple default gives element type and arity."""
    if isinstance(default, tuple):
        return _parse_tuple(section, key, raw, type(default[0]), len(default))
    return _parse_scalar(section, key, raw, type(default))


def _check_keys(section: str, items: list[tuple[str, str]], known) -> None:
    for key, _ in items:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{section}]")


def _parse_section(section: str, items: list[tuple[str, str]], cls) -> dict:
    """The section's values keyed by field of cls, parsed to the types of its defaults."""
    defaults = _defaults(cls)
    _check_keys(section, items, defaults)
    return {key: _parse_like(section, key, raw, defaults[key]) for key, raw in items}


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    # configparser would merge [DEFAULT] into every other section.
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")

    cluster_params: dict[int, ClusterParams] = {}
    given: dict[str, dict] = {}
    fed: dict = {}
    for section in parser.sections():
        items = parser.items(section)
        if section.startswith("cluster."):
            try:
                cid = int(section.split(".", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad cluster section name [{section}]") from exc
            cluster_params[cid] = ClusterParams(**_parse_section(section, items, ClusterParams))
        elif section == "federation":
            _check_keys(section, items, _FEDERATION_KEYS)
            fed = {key: _FEDERATION_KEYS[key](section, key, raw, int) for key, raw in items}
        elif section in _SECTIONS:
            given[section] = _parse_section(section, items, _SECTIONS[section])
        else:
            raise ConfigError(f"unknown section [{section}]")

    run = {**_defaults(ExperimentConfig), **given.get("run", {})}
    client_sizes = fed.pop("client_sizes", DEFAULT_CLIENT_SIZES)
    cluster_of = fed.pop("clusters", DEFAULT_CLUSTER_OF[: len(client_sizes)])
    if not cluster_params:
        cluster_params = {cid: ClusterParams() for cid in set(cluster_of)}
    for cid in set(cluster_of):
        if cid not in cluster_params:
            raise ConfigError(f"cluster {cid} referenced but no [cluster.{cid}] section given")
    # The federation seed falls back to the run seed.
    federation = FederationSpec(
        client_sizes, cluster_of, cluster_params, **{"seed": run["seed"], **fed}
    )
    cfg = ExperimentConfig(
        federation=federation,
        client=ClientConfig(**given.get("client", {})),
        sgca=SgcaConfig(**given.get("sgca", {})),
        model=ModelConfig(**{"feature_dim": federation.mask_side**2, **given.get("model", {})}),
        **run,
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """The config in the UTF-8 file at path; text that is not UTF-8 is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


def apply_sweep_value(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """A copy of cfg with one sweep axis overridden."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    section, name = _SWEEP_FIELDS[axis]
    parsed = _parse_scalar("sweep", axis, value, type(_defaults(_SECTIONS[section])[name]))
    if section == "run":
        cfg = replace(cfg, **{name: parsed})
    else:
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{name: parsed})})
    cfg.validate()
    return cfg
