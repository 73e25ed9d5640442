"""Pipeline and provider configuration, loaded from JSON with strict validation.

`PipelineConfig` holds the pipeline's thresholds and modes; `ProviderConfig`
holds the remote proposer's endpoint, model, credential variable, timeout
and retry budget. Both are `values.Record`s that validate on construction
and raise `ConfigError`, and a key that names no field is rejected, so
every key a file sets is read by some stage.
This module imports nothing from the rest of the package but `errors`,
`fileio`, which reads the file and itself imports only `errors`, and
`values`, so loading a configuration loads no proposer, model or HTTP code.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError
from .fileio import read_json
from .values import Record

DEFAULT_SYNONYMS: tuple[tuple[str, str], ...] = (("loginId", "userId"),)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ProviderConfig(Record):
    __slots__ = ("endpoint_url", "model_name", "api_key_env_var", "timeout_ms", "retries")

    def __init__(
        self,
        endpoint_url: str,
        model_name: str,
        api_key_env_var: str | None = None,
        timeout_ms: int = 30000,
        retries: int = 2,
    ):
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.api_key_env_var = api_key_env_var
        self.timeout_ms = timeout_ms
        self.retries = retries
        for name in ("endpoint_url", "model_name"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ConfigError(
                    f"provider {name} must be a non-empty string, got {value!r}"
                )
        var = self.api_key_env_var
        if var is not None and (not isinstance(var, str) or not var):
            raise ConfigError(
                f"provider api_key_env_var must be null or a non-empty string, got {var!r}"
            )
        if not _is_int(self.timeout_ms) or self.timeout_ms <= 0:
            raise ConfigError(
                f"provider timeout_ms must be an int > 0, got {self.timeout_ms!r}"
            )
        if not _is_int(self.retries) or self.retries < 0:
            raise ConfigError(
                f"provider retries must be an int >= 0, got {self.retries!r}"
            )


class PipelineConfig(Record):
    __slots__ = (
        "min_value_overlap", "min_sequence_score", "min_env_coverage", "delta_ms",
        "max_refine_rounds", "violation_samples", "sequence_model", "markov_alpha",
        "hmm_states", "hmm_seed", "mode", "proposer", "synonyms", "provider",
    )

    def __init__(
        self,
        min_value_overlap: float = 0.9,
        min_sequence_score: float = 0.05,
        min_env_coverage: float = 0.99,
        delta_ms: int = 60000,
        max_refine_rounds: int = 3,
        violation_samples: int = 5,
        sequence_model: str = "markov",  # markov | hmm
        markov_alpha: float = 1.0,
        hmm_states: int | None = None,
        hmm_seed: int = 0,
        mode: str = "lenient",  # lenient | strict
        proposer: str = "stub",  # stub | remote
        synonyms: list = DEFAULT_SYNONYMS,  # the default pairs, as a fresh list of lists
        provider: ProviderConfig | None = None,
    ):
        self.min_value_overlap = min_value_overlap
        self.min_sequence_score = min_sequence_score
        self.min_env_coverage = min_env_coverage
        self.delta_ms = delta_ms
        self.max_refine_rounds = max_refine_rounds
        self.violation_samples = violation_samples
        self.sequence_model = sequence_model
        self.markov_alpha = markov_alpha
        self.hmm_states = hmm_states
        self.hmm_seed = hmm_seed
        self.mode = mode
        self.proposer = proposer
        self.synonyms = [list(p) for p in synonyms] if synonyms is DEFAULT_SYNONYMS else synonyms
        self.provider = provider
        for name in ("min_value_overlap", "min_sequence_score", "min_env_coverage"):
            value = getattr(self, name)
            if not _is_number(value) or not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")
        for name, low in (
            ("delta_ms", 1),
            ("max_refine_rounds", 0),
            ("violation_samples", 1),
        ):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
        if self.sequence_model not in ("markov", "hmm"):
            raise ConfigError(f"unknown sequence_model {self.sequence_model!r}")
        # NaN fails both comparisons; JSON documents may spell NaN and Infinity
        if not _is_number(self.markov_alpha) or not 0 <= self.markov_alpha < math.inf:
            raise ConfigError(
                f"markov_alpha must be a finite number >= 0, got {self.markov_alpha!r}"
            )
        if self.hmm_states is not None and (
            not _is_int(self.hmm_states) or self.hmm_states < 1
        ):
            raise ConfigError(
                f"hmm_states must be null or an int >= 1, got {self.hmm_states!r}"
            )
        if not _is_int(self.hmm_seed) or self.hmm_seed < 0:
            raise ConfigError(f"hmm_seed must be an int >= 0, got {self.hmm_seed!r}")
        if self.mode not in ("lenient", "strict"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.proposer not in ("stub", "remote"):
            raise ConfigError(f"unknown proposer {self.proposer!r}")
        if self.proposer == "remote" and self.provider is None:
            raise ConfigError("remote proposer requires a provider section")
        if not isinstance(self.synonyms, list):
            raise ConfigError(f"synonyms must be a list of string pairs, got {self.synonyms!r}")
        for pair in self.synonyms:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(x, str) and x for x in pair)
            ):
                raise ConfigError(f"synonym entries are string pairs, got {pair!r}")

    def synonym_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((a, b) for a, b in self.synonyms)


_CONFIG_FIELDS = set(PipelineConfig._fields)
_PROVIDER_FIELDS = set(ProviderConfig._fields)


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON document")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs = dict(data)
    provider = kwargs.pop("provider", None)
    if provider is not None:
        if not isinstance(provider, dict):
            raise ConfigError("provider must be a document")
        bad = set(provider) - _PROVIDER_FIELDS
        if bad:
            raise ConfigError(f"unknown provider keys: {sorted(bad)}")
        missing = {"endpoint_url", "model_name"} - set(provider)
        if missing:
            raise ConfigError(f"provider requires keys: {sorted(missing)}")
        provider = ProviderConfig(**provider)
    try:
        return PipelineConfig(provider=provider, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad configuration: {exc}")


def load_config(path: str) -> PipelineConfig:
    try:
        data = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc.msg}")
    except RecursionError:
        raise ConfigError("configuration is not valid JSON: nested too deeply")
    except ValueError as exc:  # not UTF-8, or an integer longer than int() takes
        raise ConfigError(f"configuration is not valid JSON: {exc}")
    return config_from_dict(data)
