"""End-to-end wiring: train models, infer relationships, generate invariants.

Both training stages read the corpus and tables through one
joins.JoinStores each. Generation refines every API's candidates together,
one join sweep over all the APIs' calls per refinement round
(refine.sweep_check). Relationship inference loads neither the invariant
language nor refinement: they are imported where generation runs, as the
remote proposer (`remote`) is where a configuration selects it.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from .binlog import TemporalTable
from .config import PipelineConfig
from .joins import JoinStores, joined_schema_for
from .logstore import LogCorpus, session_sequences
from .proposer import ProposerContract, StubProposer
from .relations import InferenceReport, Relationship, admit_relationships, infer_relationships
from .schema import API, SchemaBundle
from .values import Record

if TYPE_CHECKING:
    from .dsl import Invariant
    from .refine import CandidateOutcome


def make_proposer(config: PipelineConfig) -> ProposerContract:
    if config.proposer == "remote":  # PipelineConfig requires its provider section
        from .remote import RemoteProposer

        return RemoteProposer(config.provider)
    return StubProposer(synonyms=config.synonym_pairs())


def train_sequence_model(corpus: LogCorpus, config: PipelineConfig):
    sequences = list(session_sequences(corpus.events).values())
    if config.sequence_model == "hmm":
        from .hmm import train_hmm

        return train_hmm(sequences, n_states=config.hmm_states, seed=config.hmm_seed)
    from .seqmodel import train_markov

    return train_markov(sequences, alpha=config.markov_alpha)


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
        JoinStores(bundle, corpus, tables),
        proposer,
        seq_model,
        min_overlap=config.min_value_overlap,
        min_sequence_score=config.min_sequence_score,
        min_env_coverage=config.min_env_coverage,
        delta_ms=config.delta_ms,
        mode=config.mode,
    )


class GenerationResult(Record):
    __slots__ = ("invariants", "outcomes", "proposals", "refine_calls")

    def __init__(
        self,
        invariants: list[Invariant] | None = None,
        outcomes: list[tuple[str, CandidateOutcome]] | None = None,
        proposals: int = 0,
        refine_calls: int = 0,
    ):
        self.invariants = [] if invariants is None else invariants
        self.outcomes = [] if outcomes is None else outcomes
        self.proposals = proposals
        self.refine_calls = refine_calls


def run_generation(
    bundle: SchemaBundle,
    corpus: LogCorpus,
    tables: dict[str, TemporalTable],
    relationships: list[Relationship],
    config: PipelineConfig,
    proposer: ProposerContract | None = None,
) -> GenerationResult:
    """Propose and refine invariants for every API entity, once
    `relations.admit_relationships` has vetted the relationships."""
    from .refine import refine_rounds, sweep_check

    admit_relationships(bundle, relationships)
    proposer = proposer or make_proposer(config)
    stores = JoinStores(bundle, corpus, tables)
    result = GenerationResult()
    apis = []
    for entity in sorted(bundle.of_kind(API), key=lambda e: e.name):
        schema = joined_schema_for(bundle, entity.name, relationships)
        proposal = proposer.propose_invariants(schema)
        result.proposals += len(proposal.texts)
        bound = {binding.name for binding in schema.bindings}
        apis.append((entity.name, bound, schema, proposal.texts, proposal.conversation))
    check = partial(sweep_check, stores, sample_limit=config.violation_samples)
    reports = refine_rounds(apis, check, proposer, max_rounds=config.max_refine_rounds)
    for (name, *_), report in zip(apis, reports):
        result.refine_calls += report.refine_calls
        result.outcomes.extend((name, outcome) for outcome in report.outcomes)
        result.invariants.extend(report.accepted)
    return result
