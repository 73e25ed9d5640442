"""Candidate refinement: keep an invariant only once training traffic is clean.

A candidate is vetted before it runs: it must parse, be about its focal API,
nest its quantifiers at most MAX_QUANTIFIER_DEPTH deep and quantify only over
names its API binds, so no check fails on an unbound name or runs for ever.
Candidates are then checked in rounds. A round checks the open candidates of
every API at once, counts each one's violations and explains only the first
few; a violated candidate goes back to the proposer with those samples, on
its own fork of the proposal conversation, and what comes back is checked in
the next round. After the round budget is spent, a still-violated candidate
is discarded. Accepted invariants therefore pass the whole training corpus
by construction.

Each candidate ends in one outcome: accepted, or discarded with a reason.
Acceptance is settled after the last round, in candidate order, so a
candidate that comes clean only after refinement still precedes a later one
with the same body. An accepted invariant is renamed, if it must be, to an
id no earlier acceptance of the run holds, so its outcome names the id that
is written.

Two checkers back the rounds. `sweep_check` runs each API's open candidates
as one batch of `joins.failing_calls`, the sweep detection runs, and builds
a group only for a violation it explains. `refine_candidates` checks one
API's candidates, one at a time, over a list of joined groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .dsl import (
    MAX_QUANTIFIER_DEPTH,
    Invariant,
    compile_invariant,
    evaluate,
    explain,
    parse_invariant,
    print_invariant,
    quantifiers,
)
from .errors import ExtractionError, ParseError, ProposalError
from .joins import failing_calls
from .proposer import Conversation, RefineRequest, ViolationSample

MAX_ROUNDS = 3
SAMPLE_LIMIT = 5


@dataclass
class CandidateOutcome:
    text: str
    status: str  # accepted | discarded
    attempts: int
    invariant: Invariant | None = None
    reason: str | None = None


@dataclass
class RefinementReport:
    accepted: list[Invariant] = field(default_factory=list)
    outcomes: list[CandidateOutcome] = field(default_factory=list)
    refine_calls: int = 0


@dataclass
class _Candidate:
    original: str
    fork: Conversation
    attempts: int = 0
    inv: Invariant | None = None  # the version to check
    reason: str | None = None  # set once discarded
    clean: bool = False  # no training violation: accepted unless a duplicate


def _admit(cand: _Candidate, text: str, focal_name: str, bound: set[str] | None) -> None:
    """Make `text` the candidate's version to check, or discard the candidate.

    `bound` holds the names its focal API binds; None admits any name.
    """
    try:
        inv = parse_invariant(text)
    except ParseError as exc:
        cand.reason = f"unparseable: {exc}"
        return
    if inv.focal != focal_name:
        cand.reason = f"wrong focal entity {inv.focal!r}"
        return
    found = list(quantifiers(inv.body))
    depth = max((d for _, d in found), default=0)
    if depth > MAX_QUANTIFIER_DEPTH:
        cand.reason = f"quantifiers nested {depth} deep, more than {MAX_QUANTIFIER_DEPTH}"
        return
    for name, _ in found:
        if bound is not None and name not in bound:
            cand.reason = f"unknown binding: entity {name!r} is not bound in this group"
            return
    cand.inv = inv


def refine_rounds(
    apis: list[tuple],
    check,
    proposer,
    max_rounds: int = MAX_ROUNDS,
    used_ids: set[str] | None = None,
) -> list[RefinementReport]:
    """Run the accept-or-refine loop for the candidates of several focal APIs.

    `apis` holds one (focal name, names it binds or None, its calls,
    candidate texts, proposal conversation) per API, in the order ids are
    settled. `check` takes a list of (calls, invariants) and gives, per
    batch and invariant, its violation count and explained samples.
    An accepted invariant takes the first id not in `used_ids`, which it then
    joins; pass one set across calls to keep ids unique over a run.
    """
    used_ids = set() if used_ids is None else used_ids
    reports = [RefinementReport() for _ in apis]
    candidates = []
    for focal_name, bound, _, texts, conversation in apis:
        own = [_Candidate(text, conversation.fork()) for text in texts]
        for cand in own:
            _admit(cand, cand.original, focal_name, bound)
        candidates.append(own)

    while True:
        # per API, its open candidates: those refined in the last round (all,
        # in the first)
        batches = []
        for k, own in enumerate(candidates):
            open_ = [cand for cand in own if cand.reason is None and not cand.clean]
            if open_:
                batches.append((k, open_))
        if not batches:
            break
        found = check([(apis[k][2], [c.inv for c in open_]) for k, open_ in batches])
        for (k, open_), results in zip(batches, found):
            focal_name, bound = apis[k][:2]
            for cand, (n_violations, samples) in zip(open_, results):
                if not n_violations:
                    cand.clean = True
                    continue
                if cand.attempts >= max_rounds:
                    cand.reason = (
                        f"{n_violations} training violation(s) after "
                        f"{cand.attempts} refinement(s)"
                    )
                    continue
                request = RefineRequest(
                    invariant_text=print_invariant(cand.inv), samples=samples
                )
                cand.attempts += 1
                reports[k].refine_calls += 1
                try:
                    text = proposer.refine_invariant(cand.fork, request)
                except (ProposalError, ExtractionError) as exc:
                    cand.reason = f"refinement failed: {exc}"
                    continue
                if not text.strip():
                    cand.reason = "proposer withdrew the candidate"
                    continue
                _admit(cand, text, focal_name, bound)

    for own, report in zip(candidates, reports):
        seen_bodies: set[str] = set()
        for cand in own:
            inv, reason = cand.inv, cand.reason
            if cand.clean:
                canonical = print_invariant(inv)
                if canonical in seen_bodies:
                    reason = "duplicate of an accepted invariant"
                else:
                    seen_bodies.add(canonical)
                    inv = unique_id(inv, used_ids)
                    used_ids.add(inv.id)
                    report.accepted.append(inv)
            report.outcomes.append(
                CandidateOutcome(
                    text=cand.original,
                    status="discarded" if reason else "accepted",
                    attempts=cand.attempts,
                    invariant=None if reason else inv,
                    reason=reason,
                )
            )
    return reports


def sweep_check(stores, batches: list[tuple], sample_limit: int = SAMPLE_LIMIT) -> list:
    """`refine_rounds`' check over a join store, for (joined schema,
    invariants) batches: the failing calls of `joins.failing_calls`, the
    sweep detection runs, counted per invariant. A failing call gets a group
    only while some invariant it fails has fewer than `sample_limit`
    samples, and is explained there, the way detection explains a
    violation, by one generated function that also gives its failing
    conjuncts (CompiledInvariant.diagnose).
    """
    compiled = [[compile_invariant(inv) for inv in invs] for _, invs in batches]
    counts = [[0] * len(invs) for _, invs in batches]
    samples = [[[] for _ in invs] for _, invs in batches]
    for k, log_id, _, failed, make_group in failing_calls(stores, batches):
        group = None
        counted = counts[k]
        for i in failed:
            counted[i] += 1
            if counted[i] > sample_limit:
                continue
            if group is None:
                group = make_group()
            samples[k][i].append(ViolationSample(log_id, *compiled[k][i].diagnose(group)))
    return [list(zip(ns, found)) for ns, found in zip(counts, samples)]


def _violations(inv: Invariant, groups, sample_limit: int):
    """Count the groups `inv` fails on; explain only the first `sample_limit`."""
    fn = compile_invariant(inv)
    violating = [group for group in groups if not fn(group)]
    samples = [
        ViolationSample(
            log_id=group.log_id,
            explanation=explain(evaluate(inv, group)),
            failing_clauses=fn.failing_conjuncts(group),
        )
        for group in violating[:sample_limit]
    ]
    return len(violating), samples


def refine_candidates(
    texts: list[str],
    conversation: Conversation,
    groups,
    focal_name: str,
    proposer,
    max_rounds: int = MAX_ROUNDS,
    sample_limit: int = SAMPLE_LIMIT,
    used_ids: set[str] | None = None,
) -> RefinementReport:
    """Run the accept-or-refine loop for one focal entity's candidates over
    a list of its joined groups.

    The names the API binds are those every group binds; with no groups
    nothing is evaluated, so any name is admitted. An accepted invariant
    takes the first id not in `used_ids`, which it then joins.
    """
    bound = set(groups[0].bindings).intersection(*(g.bindings for g in groups)) if groups else None

    def check(batches):
        return [[_violations(inv, calls, sample_limit) for inv in invs] for calls, invs in batches]

    apis = [(focal_name, bound, groups, texts, conversation)]
    return refine_rounds(apis, check, proposer, max_rounds, used_ids)[0]


def unique_id(inv: Invariant, used: set[str]) -> Invariant:
    """`inv`, renamed with the first free `_2`, `_3`, ... suffix if its id is taken."""
    if inv.id not in used:
        return inv
    n = 2
    while f"{inv.id}_{n}" in used:
        n += 1
    return replace(inv, id=f"{inv.id}_{n}")
