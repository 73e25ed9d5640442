"""Remote proposer: a generic chat-completion JSON dialect over HTTP.

`RemoteProposer` implements `proposer.ProposerContract` against the endpoint
that `config.ProviderConfig` names, with bounded retries and fenced-block
extraction from each reply. `pipeline.make_proposer` imports this module only
for `"proposer": "remote"`, and `urllib.request` is imported only when a
request goes out, so a stub run loads neither.
"""

from __future__ import annotations

import json
import logging
import os

from .config import ProviderConfig
from .errors import ExtractionError, ProposalError
from .proposer import (
    Conversation,
    InvariantProposal,
    ProposerContract,
    RefineRequest,
    RelationshipCandidate,
    extract_fenced_blocks,
    render_invariant_prompt,
    render_refine_message,
    render_relationship_prompt,
)
from .schema import EntityType

logger = logging.getLogger(__name__)


def _http_transport(url: str, headers: dict, payload: dict, timeout_s: float) -> dict:
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return json.loads(response.read().decode("utf-8"))


class RemoteProposer(ProposerContract):
    """Chat-completion provider with bounded retries and fenced extraction."""

    def __init__(self, config: ProviderConfig, transport=None):
        self.config = config
        self.transport = transport or _http_transport

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        var = self.config.api_key_env_var
        if var:
            key = os.environ.get(var)
            if not key:
                raise ProposalError(f"credential variable {var!r} is not set")
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _chat(self, conversation: Conversation) -> str:
        payload = {
            "model": self.config.model_name,
            "messages": [
                {"role": m.role, "content": m.text} for m in conversation.messages
            ],
        }
        timeout_s = self.config.timeout_ms / 1000.0
        last_error: Exception | None = None
        for _ in range(self.config.retries + 1):
            try:
                data = self.transport(
                    self.config.endpoint_url, self._headers(), payload, timeout_s
                )
                text = data["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise KeyError("content")
                conversation.append("assistant", text)
                return text
            except (KeyError, IndexError, TypeError) as exc:
                raise ProposalError(f"malformed provider response: {exc!r}")
            except ProposalError:
                raise
            except Exception as exc:  # transport failures are retried
                last_error = exc
                logger.warning("provider call failed, retrying: %s", exc)
        raise ProposalError(f"provider unreachable after retries: {last_error!r}")

    def _ask(self, conversation: Conversation, tag: str, again: str) -> list[str]:
        """Chat and extract the `tag` blocks, asking `again` once if none came."""
        try:
            return extract_fenced_blocks(self._chat(conversation), tag)
        except ExtractionError:
            conversation.append("user", again)
            return extract_fenced_blocks(self._chat(conversation), tag)

    def propose_relationships(
        self, focal: EntityType, target: EntityType
    ) -> list[RelationshipCandidate]:
        conversation = Conversation()
        conversation.append("user", render_relationship_prompt(focal, target))
        blocks = self._ask(
            conversation, "json", "Reply again with exactly one fenced block tagged json."
        )
        try:
            data = json.loads(blocks[-1])
            raw = data["relationships"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ProposalError(f"unparseable relationship proposal: {exc!r}")
        out = []
        for item in raw if isinstance(raw, list) else [raw]:
            if not isinstance(item, dict) or "from_column" not in item:
                raise ProposalError(f"unparseable relationship item: {item!r}")
            out.append(
                RelationshipCandidate(
                    from_attr=str(item["from_column"]),
                    to_attr=(
                        str(item["to_column"])
                        if item.get("to_column") is not None
                        else None
                    ),
                )
            )
        return out

    def propose_invariants(self, joined_schema) -> InvariantProposal:
        conversation = Conversation()
        conversation.append("user", render_invariant_prompt(joined_schema))
        blocks = self._ask(
            conversation,
            "invariant",
            "Reply again with each invariant in a fenced block tagged invariant.",
        )
        texts = [block for block in blocks if block.strip()]
        return InvariantProposal(texts=texts, conversation=conversation)

    def refine_invariant(self, conversation: Conversation, request: RefineRequest) -> str:
        conversation.append("user", render_refine_message(request))
        text = self._chat(conversation)
        try:
            blocks = extract_fenced_blocks(text, "invariant")
        except ExtractionError:
            return ""
        block = blocks[-1].strip()
        return block
