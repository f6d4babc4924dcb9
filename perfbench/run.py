"""The repository benchmark: one workload per call, or all three.

Usage (from the repository root)::

    python3 perfbench/run.py --workload net_uniform --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30      # every workload; rewrites BENCHMARK.json

One call runs the workload for ``--seconds`` of back-to-back iterations
(each on its own seed-derived stream), checks every iteration's outputs,
prints each metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` splits the time between untraced and
traced iterations of the same streams, runs the per-layer
microbenchmarks, writes the spans under ``.perfbench_out/`` and reports
the per-layer metrics, taking those of layers off the workload's path
from donor workloads (``spec.LAYER_DONORS``).  The exit code is 0 only
if every check passed.
``--all`` runs each workload in a process of its own, so the
``getrusage`` peaks behind ``peak_rss_mb`` are per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch (sockets, WAL directories) and trace output, relative to ROOT.
SCRATCH = ".perfbench_tmp"
OUT = ".perfbench_out"
#: Untraced iterations always run at least this many times.
MIN_ITERATIONS = 3
#: Commands in the warm-up iteration that runs before timing starts.
WARMUP_COMMANDS = 32
#: Iteration index of the warm-up (outside the timed range).
WARMUP_INDEX = 999
#: Iteration index of the donor workloads' iterations in a traced run.
DONOR_INDEX = 998


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument(
        "--all", action="store_true", help="run every workload and rewrite BENCHMARK.json"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _preflight() -> str | None:
    """Why the program under test cannot be run from here, or ``None``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program sources under {ROOT / 'src' / 'repro'}"
    return None


def _iterations(wl, seed: int, seconds: float, scratch: str, tracer=None, limit=None):
    """Run iterations 0, 1, ... until ``seconds`` have passed (at least
    ``MIN_ITERATIONS`` untraced ones), or ``limit`` iterations."""
    from perfbench.drive import PROBE_REFERENCE_S, host_probe

    observations = []
    start = time.perf_counter()
    index = 0
    while True:
        if limit is not None and index >= limit:
            break
        if (
            time.perf_counter() - start >= seconds
            and (tracer is not None or index >= MIN_ITERATIONS)
            and index > 0
        ):
            break
        before = host_probe()
        obs = _checked_iteration(wl, seed, index, scratch, tracer=tracer)
        obs.slowdown = (before + host_probe()) / 2 / PROBE_REFERENCE_S
        observations.append(obs)
        index += 1
    return observations


def _checked_iteration(wl, seed: int, index: int, scratch: str, count=None, tracer=None):
    """One iteration, traced if ``tracer`` is given."""
    if tracer is None:
        return _run_checked(wl, seed, index, scratch, count)
    tracer.install(_trace_targets(wl))
    try:
        return _run_checked(wl, seed, index, scratch, count)
    finally:
        tracer.uninstall()


def _run_donors(name: str, seed: int, run_id: str):
    """One untraced and one traced iteration of each donor workload other
    than ``name``: ``[(donor, untraced, traced, tracer)]``."""
    from perfbench import spec
    from perfbench.tracing import Tracer

    runs = []
    for donor in map(spec.workload, spec.LAYER_DONORS):
        if donor.name != name:
            tracer = Tracer(f"{run_id}-{donor.name}")
            untraced = [_checked_iteration(donor, seed, DONOR_INDEX, SCRATCH)]
            traced = [
                _checked_iteration(donor, seed, DONOR_INDEX, SCRATCH, tracer=tracer)
            ]
            runs.append((donor, untraced, traced, tracer))
    return runs


def _fill_from_donors(donors, micro_metrics, metrics, notes) -> None:
    """Replace each ``None`` in ``metrics`` with the first donor's figure."""
    from perfbench import report

    for donor, untraced, traced, tracer in donors:
        filled, reasons = report.per_layer(donor, untraced, traced, tracer, micro_metrics)
        for k, value in metrics.items():
            if value is None and filled[k] is not None:
                metrics[k] = filled[k]
                how = f"; {reasons[k]}" if k in reasons else ""
                why = notes.get(k, "not measured")
                notes[k] = f"{why}: from one {donor.name} iteration{how}"


def _run_checked(wl, seed: int, index: int, scratch: str, count=None):
    """One iteration; a crashed run is a failed run, reported."""
    from perfbench.drive import Observation, run_iteration

    try:
        return run_iteration(wl, seed, index, scratch, count=count)
    except Exception as exc:
        submitted = wl.count if count is None else count
        return Observation(
            submitted, 0, [f"iteration raised {exc!r}"], 0.0, None, None, None
        )


def _trace_targets(wl):
    """``(owner, attribute, span name, is_generator)`` for every entry point
    traced on this workload's engine."""
    import repro.sim.runner as sim_runner
    from repro.codec.binary import Opaque
    from repro.core.dex import DexConsensus
    from repro.frontend.api import Frontend
    from repro.frontend.socket import FrontendServer, SocketClient
    from repro.net.events import HubEvents
    from repro.net.wire import FrameDecoder
    from repro.shard.batcher import ShardBatcher
    from repro.shard.metrics import ShardStreamSink
    from repro.shard.router import ShardMultiplexer
    from repro.shard.service import ShardedService

    from perfbench.report import BATCHER_METHODS, HUB_EVENT_METHODS

    targets = [
        (ShardedService, "run_stream", "ShardedService.run_stream", False),
        (ShardStreamSink, "emit", "ShardStreamSink.emit", False),
    ]
    if wl.engine == "net":
        targets += [(HubEvents, m, f"HubEvents.{m}", False) for m in HUB_EVENT_METHODS]
        targets += [
            (Opaque, "decode", "Opaque.decode", False),
            (FrameDecoder, "feed", "FrameDecoder.feed", True),
        ]
    else:
        targets += [(ShardBatcher, m, f"ShardBatcher.{m}", False) for m in BATCHER_METHODS]
        targets += [
            (ShardMultiplexer, "on_message", "ShardMultiplexer.on_message", False),
            (DexConsensus, "on_message", "DexConsensus.on_message", False),
            (sim_runner, "interpret", "interpret", False),
        ]
    if wl.frontend:
        targets += [
            (Frontend, "submit", "Frontend.submit", False),
            (Frontend, "run", "Frontend.run", False),
            (FrontendServer, "serve_once", "FrontendServer.serve_once", False),
            (SocketClient, "submit_all", "SocketClient.submit_all", False),
        ]
    return targets


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result document (JSON-able) plus the
    printable lines under ``"lines"``."""
    from perfbench import micro, report, spec
    from perfbench.tracing import Tracer

    wl = spec.workload(name)
    # Checked like every iteration; its timings stay out of the metrics.
    warmup = _checked_iteration(wl, seed, WARMUP_INDEX, SCRATCH, count=WARMUP_COMMANDS)
    budget = seconds / 2 if trace else seconds
    untraced = _iterations(wl, seed, budget, SCRATCH)
    observations = [warmup, *untraced]
    lines = [
        f"workload {name}  seed {seed}  {len(untraced)} untraced iterations of "
        f"{wl.count} commands"
    ]
    if trace:
        run_id = f"{name}-seed{seed}-{os.getpid()}"
        tracer = Tracer(run_id)
        started = time.perf_counter()
        donors = _run_donors(name, seed, run_id)
        observations += [o for _, u, t, _ in donors for o in (*u, *t)]
        traced = _iterations(
            wl, seed, max(0.0, budget - (time.perf_counter() - started)), SCRATCH,
            tracer=tracer, limit=len(untraced),
        )
        observations += traced
        micro_metrics, micro_notes = micro.run(seed, SCRATCH)
        metrics, notes = report.per_layer(wl, untraced, traced, tracer, micro_metrics)
        _fill_from_donors(donors, micro_metrics, metrics, notes)
        declared = spec.PER_LAYER
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"trace-{run_id}.json")
        tracer.write(spans_path, {"workload": name, "seed": seed, "micro": micro_notes})
        lines.append(
            f"{len(traced)} traced iterations; spans in {spans_path}; "
            f"WAL filesystem {micro_notes['wal_filesystem']}"
        )
    else:
        metrics, notes = report.end_to_end(untraced)
        declared = spec.END_TO_END
    failures = [f for o in observations for f in o.failures]
    attempted = sum(o.submitted for o in observations)
    failed = sum(o.submitted for o in observations if not o.ok)
    for metric in declared:
        value = metrics[metric.name]
        shown = "null" if value is None else f"{value:.6g}"
        note = notes.get(metric.name, "")
        lines.append(f"  {metric.name:36s} {shown:>14s} {metric.unit:12s} {note}")
    for failure in sorted(set(failures)):
        lines.append(f"  CHECK FAILED: {failure}")
    return {
        "lines": lines,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared
            },
        },
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    problem = _preflight()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import spec

    names = spec.WORKLOAD_NAMES if args.all else (args.workload,)
    if args.workload is None and not args.all:
        print("perfbench: pass --workload NAME or --all", file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in spec.WORKLOAD_NAMES]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.all:
        (ROOT / "BENCHMARK.json").write_text(spec.render_manifest())
        # One process per workload, so each one's getrusage peaks are its own.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in names
        ]
        return 0 if not any(codes) else 1
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    # Relative, so socket paths stay short whatever the checkout's location.
    tempfile.tempdir = SCRATCH
    try:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(doc["lines"]), flush=True)
        print(json.dumps(doc["result"]), flush=True)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
