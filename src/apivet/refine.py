"""Candidate refinement: keep an invariant only once training traffic is clean.

Each candidate is compiled once and checked against every joined group. The
first few violations are explained and fed back to the proposer on a forked
conversation; after the round budget is spent, a still-violated candidate is
discarded. Accepted invariants therefore pass the whole training corpus by
construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from .dsl import (
    DslScopeError,
    DslSyntaxError,
    Invariant,
    compile_invariant,
    evaluate,
    explain,
    parse_invariant,
    print_invariant,
)
from .errors import EvaluationError, ExtractionError, ProposalError
from .proposer import Conversation, RefineRequest, ViolationSample

logger = logging.getLogger(__name__)

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
) -> RefinementReport:
    """Run the accept-or-refine loop for one focal entity's candidates."""
    report = RefinementReport()
    seen_bodies: set[str] = set()
    used_ids: set[str] = set()

    for original in texts:
        fork = conversation.fork()
        text = original
        attempts = 0
        while True:
            try:
                inv = parse_invariant(text)
            except (DslSyntaxError, DslScopeError) as exc:
                report.outcomes.append(
                    CandidateOutcome(
                        text=original,
                        status="discarded",
                        attempts=attempts,
                        reason=f"unparseable: {exc}",
                    )
                )
                break
            if inv.focal != focal_name:
                report.outcomes.append(
                    CandidateOutcome(
                        text=original,
                        status="discarded",
                        attempts=attempts,
                        reason=f"wrong focal entity {inv.focal!r}",
                    )
                )
                break
            try:
                n_violations, samples = _violations(inv, groups, sample_limit)
            except EvaluationError as exc:
                report.outcomes.append(
                    CandidateOutcome(
                        text=original,
                        status="discarded",
                        attempts=attempts,
                        reason=f"unknown binding: {exc}",
                    )
                )
                break
            if not n_violations:
                canonical = print_invariant(inv)
                if canonical in seen_bodies:
                    report.outcomes.append(
                        CandidateOutcome(
                            text=original,
                            status="discarded",
                            attempts=attempts,
                            reason="duplicate of an accepted invariant",
                        )
                    )
                    break
                seen_bodies.add(canonical)
                inv = unique_id(inv, used_ids)
                used_ids.add(inv.id)
                report.accepted.append(inv)
                report.outcomes.append(
                    CandidateOutcome(
                        text=original,
                        status="accepted",
                        attempts=attempts,
                        invariant=inv,
                    )
                )
                break
            if attempts >= max_rounds:
                report.outcomes.append(
                    CandidateOutcome(
                        text=original,
                        status="discarded",
                        attempts=attempts,
                        reason=f"{n_violations} training violation(s) after "
                        f"{attempts} refinement(s)",
                    )
                )
                break
            request = RefineRequest(invariant_text=print_invariant(inv), samples=samples)
            attempts += 1
            report.refine_calls += 1
            try:
                text = proposer.refine_invariant(fork, request)
            except (ProposalError, ExtractionError) as exc:
                report.outcomes.append(
                    CandidateOutcome(
                        text=original,
                        status="discarded",
                        attempts=attempts,
                        reason=f"refinement failed: {exc}",
                    )
                )
                break
            if not text.strip():
                report.outcomes.append(
                    CandidateOutcome(
                        text=original,
                        status="discarded",
                        attempts=attempts,
                        reason="proposer withdrew the candidate",
                    )
                )
                break
    return report


def unique_id(inv: Invariant, used: set[str]) -> Invariant:
    """`inv`, renamed with the first free `_2`, `_3`, ... suffix if its id is taken."""
    if inv.id not in used:
        return inv
    n = 2
    while f"{inv.id}_{n}" in used:
        n += 1
    return replace(inv, id=f"{inv.id}_{n}")
