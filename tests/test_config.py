"""Pipeline configuration: defaults, validation, JSON documents."""

import json

import pytest

from apivet.config import (
    PipelineConfig,
    ProviderConfig,
    config_from_dict,
    load_config,
)
from apivet.errors import ConfigError


class TestDefaults:
    def test_default_values(self):
        config = PipelineConfig()
        assert config.min_value_overlap == 0.9
        assert config.min_sequence_score == 0.05
        assert config.min_env_coverage == 0.99
        assert config.delta_ms == 60000
        assert config.max_refine_rounds == 3
        assert config.violation_samples == 5
        assert config.sequence_model == "markov"
        assert config.markov_alpha == 1.0
        assert config.hmm_states is None
        assert config.hmm_seed == 0
        assert config.mode == "lenient"
        assert config.proposer == "stub"
        assert config.provider is None
        assert ("loginId", "userId") in config.synonym_pairs()


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"sequence_model": "hmm", "hmm_states": "3"},
        {"min_value_overlap": 1.5},
        {"min_sequence_score": -0.1},
        {"min_env_coverage": "high"},
        {"delta_ms": 0},
        {"sequence_model": "hmm", "hmm_seed": "x"},
        {"max_refine_rounds": -1},
        {"violation_samples": 0},
        {"sequence_model": "rnn"},
        {"markov_alpha": -1.0},
        {"mode": "chill"},
        {"proposer": "psychic"},
        {"proposer": "remote"},  # no provider section
        {"synonyms": [["loginId"]]},
        {"synonyms": [["a", ""]]},
        {"synonyms": ["ab"]},
        {"synonyms": 5},
        {"synonyms": None},  # not the default pairs: a null list is refused
        {"hmm_states": 0},
        {"hmm_states": True},
        {"hmm_states": 2.0},
        {"hmm_seed": None},
        {"hmm_seed": False},
        {"hmm_seed": 1.5},
        {"hmm_seed": -1},
    ])
    def test_bad_values_raise(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**overrides)
        with pytest.raises(ConfigError):
            config_from_dict(overrides)

    @pytest.mark.parametrize("field_name, value", [
        ("violation_samples", 2.5),
        ("violation_samples", True),
        ("max_refine_rounds", 1.5),
        ("max_refine_rounds", False),
        ("max_refine_rounds", None),
        ("delta_ms", True),
        ("delta_ms", 1.5),
        ("delta_ms", "60000"),
        ("markov_alpha", True),
        ("markov_alpha", "1"),
        ("markov_alpha", None),
        ("markov_alpha", float("nan")),
        ("markov_alpha", float("inf")),
        ("min_value_overlap", True),
        ("min_sequence_score", False),
        ("min_env_coverage", None),
    ])
    def test_wrongly_typed_numbers_name_the_field(self, field_name, value):
        with pytest.raises(ConfigError, match=f"^{field_name} must be"):
            PipelineConfig(**{field_name: value})
        with pytest.raises(ConfigError, match=f"^{field_name} must be"):
            config_from_dict({field_name: value})

    def test_hmm_settings_are_fine(self):
        config = config_from_dict({"sequence_model": "hmm", "hmm_states": 1, "hmm_seed": 7})
        assert (config.hmm_states, config.hmm_seed) == (1, 7)

    def test_remote_with_provider_is_fine(self):
        provider = ProviderConfig(
            endpoint_url="https://example.invalid/v1/chat", model_name="m"
        )
        config = PipelineConfig(proposer="remote", provider=provider)
        assert config.provider.model_name == "m"


class TestProviderValidation:
    GOOD = {"endpoint_url": "https://example.invalid/v1/chat", "model_name": "m"}

    @pytest.mark.parametrize("overrides, field_name", [
        ({"retries": "2"}, "retries"),
        ({"retries": -1}, "retries"),
        ({"retries": True}, "retries"),
        ({"retries": 1.0}, "retries"),
        ({"timeout_ms": 0}, "timeout_ms"),
        ({"timeout_ms": -5}, "timeout_ms"),
        ({"timeout_ms": False}, "timeout_ms"),
        ({"timeout_ms": "100"}, "timeout_ms"),
        ({"endpoint_url": ""}, "endpoint_url"),
        ({"endpoint_url": None}, "endpoint_url"),
        ({"model_name": ""}, "model_name"),
        ({"model_name": 7}, "model_name"),
        ({"api_key_env_var": 5}, "api_key_env_var"),
        ({"api_key_env_var": ""}, "api_key_env_var"),
    ])
    def test_bad_provider_values_raise(self, overrides, field_name):
        with pytest.raises(ConfigError, match=f"provider {field_name}"):
            ProviderConfig(**{**self.GOOD, **overrides})
        with pytest.raises(ConfigError, match=f"provider {field_name}"):
            config_from_dict({"provider": {**self.GOOD, **overrides}})

    def test_edge_values_are_fine(self):
        provider = ProviderConfig(**self.GOOD, retries=0, timeout_ms=1)
        assert (provider.retries, provider.timeout_ms) == (0, 1)


class TestDictRoundTrip:
    def test_plain_roundtrip(self):
        config = PipelineConfig(delta_ms=10, markov_alpha=0.5)
        assert config_from_dict({"delta_ms": 10, "markov_alpha": 0.5}) == config

    def test_provider_roundtrip(self):
        config = PipelineConfig(
            proposer="remote",
            provider=ProviderConfig(
                endpoint_url="https://example.invalid/v1/chat",
                model_name="m",
                api_key_env_var="APIVET_KEY",
                retries=1,
            ),
        )
        data = {
            "proposer": "remote",
            "provider": {
                "endpoint_url": "https://example.invalid/v1/chat",
                "model_name": "m",
                "api_key_env_var": "APIVET_KEY",
                "retries": 1,
            },
        }
        assert config_from_dict(data) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            config_from_dict({"delta_ms": 10, "bogus": 1})
        with pytest.raises(ConfigError, match="unknown provider keys"):
            config_from_dict({"provider": {"endpoint_url": "x", "model_name": "m",
                                           "typo": 1}})

    @pytest.mark.parametrize("data, message", [
        ({"flatten_depth": 3}, "unknown configuration keys"),
        ({"window_size": 20}, "unknown configuration keys"),
        ({"jobs": 1}, "unknown configuration keys"),
        ({"provider": {"endpoint_url": "x", "model_name": "m", "max_in_flight": 4}},
         "unknown provider keys"),
    ], ids=["flatten_depth", "window_size", "jobs", "max_in_flight"])
    def test_removed_knobs_rejected(self, data, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)

    def test_provider_required_keys(self):
        with pytest.raises(ConfigError, match="provider requires keys"):
            config_from_dict({"provider": {"model_name": "m"}})
        with pytest.raises(ConfigError, match="provider must be a document"):
            config_from_dict({"provider": "remote"})

    def test_non_document_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])


class TestFiles:
    def test_save_and_load(self, tmp_path):
        config = PipelineConfig(violation_samples=4, mode="strict", hmm_states=3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"violation_samples": 4, "mode": "strict", "hmm_states": 3}))
        assert load_config(path) == config

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)

    @pytest.mark.parametrize("content,reason", [
        (b'{"delta_ms": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
        (b'{"mode": "\xff"}', "can't decode byte 0xff"),
    ], ids=["integer_past_the_digit_limit", "not_utf8"])
    def test_a_file_json_cannot_decode_is_a_config_error(self, tmp_path, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        with pytest.raises(ConfigError, match=f"^configuration is not valid JSON: .*{reason}"):
            load_config(bad)
