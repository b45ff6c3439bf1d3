"""Cross-release stability of the canonical configuration identity.

``config_key()`` addresses the engine's on-disk result cache and links
service-journal/bench documents across processes, so the prototype's
key is pinned here verbatim: it may only change together with a
deliberate ``CONFIG_SCHEMA_VERSION`` bump (which is what retires stale
caches), never by accident.
"""

from repro.config import CONFIG_SCHEMA_VERSION, ENV_SIM_MODE
from repro.engine.spec import CACHE_SCHEMA_VERSION
from repro.params import SystemParams

#: sha256 of the prototype's canonical sorted-key JSON document under
#: schema version 6.
PROTOTYPE_CONFIG_KEY = (
    "c075e5cb9338aa17127eafa97496367289da83833b1d2b20383689212445b8fa"
)


def test_prototype_config_key_is_pinned(monkeypatch):
    monkeypatch.delenv(ENV_SIM_MODE, raising=False)
    assert SystemParams().config_key() == PROTOTYPE_CONFIG_KEY


def test_schema_version_is_six(monkeypatch):
    monkeypatch.delenv(ENV_SIM_MODE, raising=False)
    assert CONFIG_SCHEMA_VERSION == 6
    assert SystemParams().to_dict()["schema_version"] == 6


def test_engine_cache_schema_tracks_config_schema():
    assert CACHE_SCHEMA_VERSION == CONFIG_SCHEMA_VERSION


def test_document_shape_is_nested_and_sorted(monkeypatch):
    monkeypatch.delenv(ENV_SIM_MODE, raising=False)
    doc = SystemParams().to_dict()
    assert set(doc) == {
        "schema_version",
        "topology",
        "sdram",
        "sram",
        "cache_line_words",
        "max_transactions",
        "num_vector_contexts",
        "request_fifo_depth",
        "fhc_latency",
        "bus_turnaround",
        "bypass_paths",
        "row_policy",
        "issue_interval",
        "sim_mode",
    }
    assert doc["topology"] == {
        "num_channels": 1,
        "ranks_per_channel": 1,
        "banks_per_rank": 16,
    }
