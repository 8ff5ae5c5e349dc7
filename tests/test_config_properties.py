"""Properties of the INI config parser (skipped when hypothesis is not installed).

Fuzzed text either parses or raises ConfigError; a valid config written
back to INI from its to_dict() parses to an equal config, dict and hash;
the shipped configs keep their pinned hashes.
"""

from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fedsim.config import (  # noqa: E402
    AGGREGATORS,
    ExperimentConfig,
    ModelConfig,
    load_config,
    parse_config_text,
)
from fedsim.datagen import ClusterParams, FederationSpec  # noqa: E402
from fedsim.errors import ConfigError  # noqa: E402
from fedsim.fed_client import ClientConfig  # noqa: E402
from fedsim.server import NORMALIZATIONS, SIMILARITY_METRICS, SgcaConfig  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DEFAULT_TEXT = (CONFIGS / "default.ini").read_text(encoding="utf-8")


def to_ini(d: dict) -> str:
    """INI text of an ExperimentConfig.to_dict(), one [cluster.<id>] per cluster_params entry."""
    sections = {name: d[name] for name in ("run", "model", "client", "sgca", "federation")}
    sections.update({f"cluster.{cid}": params for cid, params in d["cluster_params"].items()})
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in values.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def cluster_params(draw, side):
    lo = draw(st.integers(1, 3))
    r_lo = draw(finite(0.1, side / 4))
    return ClusterParams(
        blob_count=(lo, draw(st.integers(lo, lo + 2))),
        radius=(r_lo, draw(finite(r_lo, side / 2))),
        gain=draw(finite(1e-3, 5.0)),
        noise=draw(finite(0.0, 1.0)),
        offset=(draw(finite(-side / 2, side / 2)), draw(finite(-side / 2, side / 2))),
    )


@st.composite
def configs(draw):
    side = draw(st.integers(4, 8))
    num_blocks = draw(st.integers(2, 8))
    sizes = draw(st.lists(st.integers(2, 500), min_size=2, max_size=6))
    cluster_of = draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
    cfg = ExperimentConfig(
        federation=FederationSpec(
            client_sizes=sizes,
            cluster_of=cluster_of,
            clusters={cid: draw(cluster_params(side)) for cid in sorted(set(cluster_of))},
            mask_side=side,
            seed=draw(st.integers(0, 2**32)),
        ),
        client=ClientConfig(
            learning_rate=draw(finite(1e-8, 1.0)),
            batch_size=draw(st.integers(1, 64)),
            local_epochs=draw(st.integers(1, 5)),
            beta=draw(finite(0.0, 10.0)),
            low_layers=draw(st.integers(1, num_blocks)),
        ),
        sgca=SgcaConfig(
            alpha=draw(finite(0.0, 10.0)),
            metric=draw(st.sampled_from(SIMILARITY_METRICS)),
            normalization=draw(st.sampled_from(NORMALIZATIONS)),
        ),
        model=ModelConfig(
            num_blocks=num_blocks,
            feature_dim=side * side,
            bottleneck_dim=draw(st.integers(1, side * side - 1)),
        ),
        aggregator=draw(st.sampled_from(AGGREGATORS)),
        rounds=draw(st.integers(1, 1000)),
        seed=draw(st.integers(0, 2**32)),
    )
    cfg.validate()
    return cfg


@settings(deadline=None, database=None, max_examples=200)
@given(cfg=configs())
def test_config_written_from_its_dict_parses_back_to_it(cfg):
    parsed = parse_config_text(to_ini(cfg.to_dict()))
    assert parsed == cfg
    assert parsed.to_dict() == cfg.to_dict()
    assert parsed.config_hash() == cfg.config_hash()


def parses_or_config_error(text: str) -> None:
    try:
        parse_config_text(text)
    except ConfigError:
        pass


@settings(deadline=None, database=None, max_examples=300)
@given(text=st.text())
def test_arbitrary_text_raises_only_config_error(text):
    parses_or_config_error(text)


@settings(deadline=None, database=None, max_examples=300)
@given(
    start=st.integers(0, len(DEFAULT_TEXT)),
    cut=st.integers(0, 40),
    insert=st.text(alphabet=st.sampled_from("[]=,.:#;-_ \n0123456789aeinrstx\t"), max_size=12),
)
def test_edited_shipped_config_raises_only_config_error(start, cut, insert):
    parses_or_config_error(DEFAULT_TEXT[:start] + insert + DEFAULT_TEXT[start + cut :])


@pytest.mark.parametrize(
    "name, digest",
    [
        ("default.ini", "bfe4352685b049a76350e0ee35ef1bfd0a9ae3453243c31da6e41fb760ff52bd"),
        ("demo.ini", "e0cc718c6d1d05b1f25bcce022bce653b2c5c2b82d89c56cdb7c8fb4249f2756"),
    ],
)
def test_shipped_config_hash_is_pinned(name, digest):
    assert load_config(str(CONFIGS / name)).config_hash() == digest
