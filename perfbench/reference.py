"""Reference job: fixed interpreter work that shares no code with apivet.

    python3 perfbench/reference.py

The end-to-end run times this job between consecutive timed commands and
divides their times by it, so that the host's speed, which on a shared
machine drifts by a third or more within minutes, cancels out. It parses,
groups and serialises records with the standard library only, the kind of
work that dominates apivet's commands, and starts a fresh interpreter as
they do. It must not change: adjusted times are only comparable between
runs of the same job.
"""

import json

ROUNDS = 20

rows = [
    {"id": i, "user": f"u{i % 97}", "amount": (i * 7919) % 1000, "tags": [f"t{i % 5}", "x"]}
    for i in range(4000)
]
doc = json.dumps(rows)
for _ in range(ROUNDS):
    groups: dict[tuple[str, int], list[int]] = {}
    for row in json.loads(doc):
        groups.setdefault((row["user"], row["amount"] % 13), []).append(row["id"])
    out = json.dumps(sorted((f"{user}:{bucket}", len(ids)) for (user, bucket), ids in groups.items()))
assert len(out) > 0
