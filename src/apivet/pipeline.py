"""End-to-end wiring: train models, infer relationships, generate invariants."""

from __future__ import annotations

from dataclasses import dataclass, field

from .binlog import TemporalTable, value_universe
from .config import PipelineConfig
from .errors import ConfigError
from .dsl import Invariant
from .joins import JoinStores, build_joined_groups, joined_schema_for
from .logstore import LogCorpus, session_sequences
from .proposer import ProposerContract, RemoteProposer, StubProposer
from .refine import CandidateOutcome, RefinementReport, refine_candidates, unique_id
from .relations import InferenceReport, Relationship, infer_relationships
from .schema import API, TABLE, SchemaBundle
from .seqmodel import train_hmm, train_markov


def make_proposer(config: PipelineConfig) -> ProposerContract:
    if config.proposer == "remote":
        if config.provider is None:
            raise ConfigError("remote proposer requires a provider section")
        return RemoteProposer(config.provider)
    return StubProposer(synonyms=config.synonym_pairs())


def train_sequence_model(corpus: LogCorpus, config: PipelineConfig):
    sequences = list(session_sequences(corpus.events).values())
    if config.sequence_model == "hmm":
        return train_hmm(sequences, n_states=config.hmm_states, seed=config.hmm_seed)
    return train_markov(sequences, alpha=config.markov_alpha)


def table_value_universes(
    bundle: SchemaBundle, tables: dict[str, TemporalTable]
) -> dict[str, dict[str, set]]:
    universes: dict[str, dict[str, set]] = {}
    for entity in bundle.of_kind(TABLE):
        universes[entity.name] = {
            attr.path: value_universe(tables, entity.name, attr.path)
            for attr in entity.attributes
        }
    return universes


def run_inference(
    bundle: SchemaBundle,
    corpus: LogCorpus,
    tables: dict[str, TemporalTable],
    config: PipelineConfig,
    proposer: ProposerContract | None = None,
    seq_model=None,
) -> InferenceReport:
    proposer = proposer or make_proposer(config)
    seq_model = seq_model or train_sequence_model(corpus, config)
    return infer_relationships(
        bundle,
        corpus,
        proposer,
        seq_model,
        table_value_universes(bundle, tables),
        min_overlap=config.min_value_overlap,
        min_sequence_score=config.min_sequence_score,
        min_env_coverage=config.min_env_coverage,
        delta_ms=config.delta_ms,
        mode=config.mode,
    )


@dataclass
class GenerationResult:
    invariants: list[Invariant] = field(default_factory=list)
    outcomes: list[tuple[str, CandidateOutcome]] = field(default_factory=list)
    proposals: int = 0
    refine_calls: int = 0


def run_generation(
    bundle: SchemaBundle,
    corpus: LogCorpus,
    tables: dict[str, TemporalTable],
    relationships: list[Relationship],
    config: PipelineConfig,
    proposer: ProposerContract | None = None,
) -> GenerationResult:
    """Propose and refine invariants for every API entity."""
    proposer = proposer or make_proposer(config)
    stores = JoinStores(bundle, corpus, tables)
    result = GenerationResult()
    used_ids: set[str] = set()
    for entity in sorted(bundle.of_kind(API), key=lambda e: e.name):
        schema = joined_schema_for(bundle, entity.name, relationships)
        groups = build_joined_groups(stores, schema)
        proposal = proposer.propose_invariants(schema)
        result.proposals += len(proposal.texts)
        report: RefinementReport = refine_candidates(
            proposal.texts,
            proposal.conversation,
            groups,
            entity.name,
            proposer,
            max_rounds=config.max_refine_rounds,
            sample_limit=config.violation_samples,
        )
        result.refine_calls += report.refine_calls
        for outcome in report.outcomes:
            result.outcomes.append((entity.name, outcome))
        for inv in report.accepted:
            inv = unique_id(inv, used_ids)
            used_ids.add(inv.id)
            result.invariants.append(inv)
    return result
