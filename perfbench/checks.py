"""Output checks: a run counts only if the service did what it claims.

Each function returns a list of failure descriptions (empty = passed), so
one run can report every problem at once.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping

from repro.durable.recovery import DurabilityConfig, NodeDurability
from repro.frontend.socket import ClientReply


def check_digest(digest: Any, expected: Iterable[tuple]) -> list[str]:
    """Every expected command appears exactly once in the agreed digest,
    and the digest holds nothing else."""
    if digest is None:
        return ["no agreed digest"]
    seen: Counter = Counter()
    for _, batches in digest:
        for batch in batches:
            seen.update(batch)
    wanted = set(expected)
    failures = []
    missing = wanted - set(seen)
    duplicated = [cmd for cmd, k in seen.items() if k > 1]
    foreign = set(seen) - wanted
    if missing:
        failures.append(f"{len(missing)} accepted command(s) missing from digest")
    if duplicated:
        failures.append(f"{len(duplicated)} command(s) decided more than once")
    if foreign:
        failures.append(f"{len(foreign)} command(s) in digest never submitted")
    return failures


def replay(digest: Any) -> dict[int, dict[str, int]]:
    """Per-shard key/value state from applying the digest's ``set`` commands
    in slot order."""
    states: dict[int, dict[str, int]] = {}
    for shard, batches in digest:
        state: dict[str, int] = {}
        for batch in batches:
            for _, key, value in batch:
                state[key] = value
        states[shard] = state
    return states


def check_report(
    report: Any,
    expected: Iterable[tuple],
    faulty: Iterable[int],
) -> list[str]:
    """Divergence, timeouts, exit codes and digest membership of one
    :class:`~repro.shard.service.ShardReport`."""
    failures: list[str] = []
    result = report.result
    if report.divergence:
        failures.append("replicas diverged or a correct replica did not decide")
    if getattr(result, "timed_out", False):
        failures.append("run timed out")
    faulty = set(faulty)
    for pid, code in getattr(result, "exit_codes", {}).items():
        if pid not in faulty and code != 0:
            failures.append(f"replica {pid} exited {code}")
    for hub, code in getattr(result, "hub_exit_codes", {}).items():
        if code != 0:
            failures.append(f"hub {hub} exited {code}")
    failures.extend(check_digest(report.digest, expected))
    return failures


def check_replica_state(
    config: DurabilityConfig, replicas: Iterable[int], shards: int, digest: Any
) -> list[str]:
    """What each replica kept on disk agrees with the agreed digest.

    ``NodeDurability.recover`` folds a replica's snapshot and WAL into the
    batches it applied: they must be the digest's, slot for slot.  The
    key/value state in its last snapshot must equal replaying the digest
    up to that snapshot's frontier."""
    if digest is None:
        return []
    agreed = {shard: tuple(batches) for shard, batches in digest}
    failures: list[str] = []
    for pid in replicas:
        node = NodeDurability(config, pid)
        try:
            state = node.recover(shards)
            snapshot = node.snapshots.load()
        finally:
            node.close()
        if state is None:
            failures.append(f"replica {pid} kept no durable state")
            continue
        if {s: tuple(b) for s, b in state.applied.items()} != agreed:
            failures.append(f"replica {pid} applied batches that differ from the digest")
        if snapshot is not None:
            prefix = [
                (shard, batches[: len(snapshot.applied.get(shard, ()))])
                for shard, batches in agreed.items()
            ]
            if replay(prefix) != {s: dict(kv) for s, kv in snapshot.kv.items()}:
                failures.append(
                    f"replica {pid} snapshot key/value state differs from the "
                    "replayed digest"
                )
    return failures


def placements(digest: Any) -> dict[tuple, tuple[int, int]]:
    """Command -> ``(shard, slot)`` it was decided in."""
    out: dict[tuple, tuple[int, int]] = {}
    for shard, batches in digest or ():
        for slot, batch in enumerate(batches):
            for command in batch:
                out[command] = (shard, slot)
    return out


def check_replies(
    outcomes: Mapping[int, Any],
    submitted: list[tuple],
    digest: Any,
) -> list[str]:
    """One ``ClientReply`` per decided command, each naming the
    ``(shard, slot)`` the digest placed it in; every other submission got
    a rejection."""
    placed = placements(digest)
    failures: list[str] = []
    replies = 0
    for request_id, command in enumerate(submitted):
        outcome = outcomes.get(request_id)
        if outcome is None:
            failures.append(f"request {request_id} got no answer")
        elif isinstance(outcome, ClientReply):
            replies += 1
            if placed.get(command) != (outcome.shard, outcome.slot):
                failures.append(f"request {request_id} reply names the wrong slot")
        elif command in placed:
            failures.append(f"request {request_id} rejected but decided")
    if replies != len(placed):
        failures.append(f"{replies} client replies for {len(placed)} decided commands")
    return failures
