"""E22 — frontend saturation curve: client latency vs offered load.

The production face of the sharded service: an open-loop Poisson client
stream pushes offered load through bounded per-shard admission queues
into the consensus core, sweeping from well below to well past the
service's capacity (``shards x max_batch`` commands per slot tick).

Expected shape — the classic saturation curve:

* below the knee, client-observed p99 is flat (a few slot ticks: batch
  formation plus one consensus round) and nothing is shed;
* past the knee, the queues fill, p99 jumps super-linearly toward the
  queueing bound (~queue_bound / max_batch extra slots of wait), and the
  shed rate climbs with offered load;
* decided throughput plateaus at capacity instead of collapsing — that
  is what admission control is *for*;
* consensus-side p99 stays flat throughout: the knee is pure queueing,
  the core never degrades.
"""

from _util import round_or_none, write_report

from repro.frontend import Frontend, LoadGenerator, saturation_sweep
from repro.metrics.report import format_table
from repro.shard import ShardedService

N = 7
SHARDS = 2
MAX_BATCH = 4
CAPACITY = SHARDS * MAX_BATCH  # cmds per slot tick
TICKS = 32
QUEUE_BOUND = 32
OFFERED = (2.0, 4.0, 6.0, 8.0, 12.0, 24.0)


def make_service() -> ShardedService:
    return ShardedService(n=N, shards=SHARDS, max_batch=MAX_BATCH, seed=3)


def sweep():
    return saturation_sweep(
        make_service,
        offered_loads=OFFERED,
        ticks=TICKS,
        queue_bound=QUEUE_BOUND,
        policy="shed",
        seed=22,
    )


def test_e22_frontend_saturation(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [
        {
            "offered/tick": row["offered_per_tick"],
            "decided": row["decided"],
            "shed rate": row["shed_rate"],
            "thpt (cmds/slot)": row["throughput_cmds_per_slot"],
            "client p50": row["p50_client_latency_slots"],
            "client p99": row["p99_client_latency_slots"],
            "consensus p99": round_or_none(row["consensus_p99_latency"]),
        }
        for row in rows
    ]
    write_report(
        "e22_frontend",
        format_table(
            table,
            title=(
                f"E22: frontend saturation (n={N}, {SHARDS} shards x "
                f"batch {MAX_BATCH} = capacity {CAPACITY}/tick, "
                f"queue bound {QUEUE_BOUND}, shed policy)"
            ),
        ),
    )
    by_load = {row["offered_per_tick"]: row for row in rows}
    assert all(row["divergence"] is False for row in rows)
    # Below the knee: nothing shed, flat low client p99.
    below = [by_load[o] for o in OFFERED if o <= 0.75 * CAPACITY]
    assert all(row["shed_rate"] == 0.0 for row in below)
    # Past the knee: shedding kicks in and grows with offered load.
    past = [by_load[o] for o in OFFERED if o > CAPACITY]
    assert all(row["shed_rate"] > 0.0 for row in past)
    sheds = [row["shed_rate"] for row in rows]
    assert sheds == sorted(sheds)  # monotone in offered load
    # Client p99 jumps super-linearly at the knee ...
    assert by_load[OFFERED[-1]]["p99_client_latency_slots"] >= (
        2 * by_load[2.0]["p99_client_latency_slots"]
    )
    # ... while the consensus core never degrades (pure queueing knee).
    consensus = [row["consensus_p99_latency"] for row in rows]
    assert max(consensus) <= 1.5 * min(consensus)
    # Decided throughput plateaus at capacity instead of collapsing.
    plateau = by_load[OFFERED[-1]]["throughput_cmds_per_slot"]
    assert plateau >= 0.8 * CAPACITY
    assert by_load[2.0]["throughput_cmds_per_slot"] < plateau


def test_e22_closed_loop_self_pacing(benchmark):
    """The backpressure counterpart: a fixed client window self-paces to
    capacity, so nothing is shed and client latency stays at the floor."""

    def run():
        frontend = Frontend(make_service(), queue_bound=2 * CAPACITY)
        return LoadGenerator(seed=23).closed_loop(
            frontend, clients=CAPACITY, total=8 * CAPACITY
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.decided == report.submitted == 8 * CAPACITY
    assert report.shed == report.dropped == 0
    assert report.latency_percentile(0.99) <= 4.0
