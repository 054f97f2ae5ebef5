"""Command-line interface: regenerate any exhibit from the terminal.

Examples::

    jetty-repro workloads
    jetty-repro exhibits
    jetty-repro exhibits table3 figure5b
    jetty-repro coverage raytrace "HJ(IJ-10x4x7, EJ-32x4)"
    jetty-repro energy lu "HJ(IJ-9x4x7, EJ-32x4)"
    jetty-repro nway 8
    jetty-repro sweep --workers 4 --workloads lu fft --filters EJ-32x4 IJ-10x4x7
    jetty-repro sweep --stream --workloads em3d --accesses 2e6 --chunk-size 65536
    jetty-repro --store results.sqlite sweep --preset paper-scale --workloads lu
    jetty-repro --store traces.sqlite sweep --workloads em3d --accesses 2e6 \
        --filters EJ-32x4 VEJ-32x4-8 --workers 2 --backend process
    jetty-repro --store results.sqlite sweep --stream --preset paper-scale \
        --workloads em3d --checkpoint-every 500000
    jetty-repro --store results.sqlite checkpoint list
    jetty-repro --store results.sqlite cache info
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import exhibits, experiments, runner
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.workloads import PRESETS, WORKLOADS
from repro.utils.text import format_percent, render_table


def _count(text: str) -> int:
    """Access-count argument: plain ints or paper-scale floats like 25e6."""
    import math

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0 or value != int(value):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative whole number, got {text!r}"
        )
    return int(value)


def _positive_count(text: str) -> int:
    """Like :func:`_count` but zero is rejected (chunk sizes)."""
    value = _count(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive whole number, got {text!r}"
        )
    return value


def _cmd_workloads(_args: argparse.Namespace) -> int:
    headers = ["name", "ab", "accesses", "repeat", "description"]
    rows = [
        [s.name, s.abbrev, f"{s.n_accesses:,}", f"{s.repeat_frac:.2f}", s.description]
        for s in WORKLOADS.values()
    ]
    print(render_table(headers, rows, title="Workloads (paper Table 2)"))
    return 0


def _cmd_exhibits(args: argparse.Namespace) -> int:
    report, results = exhibits.run(args.names, seed=args.seed)
    outcomes = []
    for result in results:
        print(result.text)
        print()
        outcomes.extend(result.outcomes)
    print(exhibits.render_checks(outcomes))
    print(report.summary())
    return 0 if all(outcome.passed for outcome in outcomes) else 1


def _cmd_coverage(args: argparse.Namespace) -> int:
    value = experiments.coverage_for(args.workload, args.filter, seed=args.seed)
    print(f"{args.filter} on {args.workload}: coverage {format_percent(value)}")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    reduction = experiments.energy_reduction_for(
        args.workload, args.filter, seed=args.seed
    )
    headers = ["metric", "reduction"]
    rows = [
        ["over snoops, serial L2", format_percent(reduction.over_snoops_serial)],
        ["over all L2, serial L2", format_percent(reduction.over_all_serial)],
        ["over snoops, parallel L2", format_percent(reduction.over_snoops_parallel)],
        ["over all L2, parallel L2", format_percent(reduction.over_all_parallel)],
    ]
    print(render_table(headers, rows, title=f"{args.filter} on {args.workload}"))
    return 0


def _cmd_nway(args: argparse.Namespace) -> int:
    summary = experiments.summarize_nway(args.cpus, seed=args.seed)
    print(
        f"{summary.n_cpus}-way SMP: snoop misses are "
        f"{format_percent(summary.snoop_miss_of_all)} of all L2 accesses; "
        f"best-HJ coverage {format_percent(summary.mean_coverage)}"
    )
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.core.sizing import smallest_covering_config

    result = smallest_covering_config(
        args.workloads, args.target, seed=args.seed
    )
    if result is None:
        print(f"no evaluated configuration reaches {args.target:.0%} "
              "coverage on all given workloads", file=sys.stderr)
        return 1
    print(f"smallest configuration covering >= {args.target:.0%}: "
          f"{result.config_name} ({result.storage_bits / 8 / 1024:.2f} KiB)")
    for workload, coverage in result.per_workload.items():
        print(f"  {workload:14s} {format_percent(coverage)}")
    return 0


def _sweep_axes(args: argparse.Namespace) -> tuple[list, list, tuple]:
    """The workloads, filters and seeds a ``sweep`` or ``submit`` covers."""
    workloads = args.workloads or list(WORKLOADS)
    filters = args.filters or list(runner.DEFAULT_SWEEP_FILTERS)
    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    return workloads, filters, seeds


def _coverage_table(workloads, filters, seeds, cell, title: str) -> str:
    """Mean coverage over ``seeds`` for every (workload, filter).

    ``cell(workload, filter, seed)`` is one seed's coverage, or ``None``
    for a cell quarantined under supervision: the sweep degraded to a
    partial result rather than aborting, so the table says so in place.
    """
    headers = ["workload"] + [f"{f} (cov)" for f in filters]
    rows = []
    for workload in workloads:
        row = [workload]
        for filter_name in filters:
            values = [cell(workload, filter_name, seed) for seed in seeds]
            if None in values:
                row.append("(failed)")
            else:
                row.append(format_percent(sum(values) / len(values)))
        rows.append(row)
    if len(seeds) > 1:
        title += f" (mean over seeds {seeds})"
    return render_table(headers, rows, title=title)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.config import parse_filter_name
    from repro.traces.workloads import get_workload

    workloads, filters, seeds = _sweep_axes(args)
    # Validate every name up front: a typo'd filter must not surface only
    # after minutes of simulation.
    for workload in workloads:
        get_workload(workload)
    for filter_name in filters:
        parse_filter_name(filter_name)
    system = SCALED_SYSTEM if args.cpus is None else SCALED_SYSTEM.with_cpus(args.cpus)
    result = runner.run_sweep(
        workloads,
        filters,
        system=system,
        seeds=seeds,
        workers=args.workers,
        experiment_store=experiments.get_store(),
        accesses=args.accesses,
        warmup=args.warmup,
        preset=args.preset,
        stream=args.stream,
        backend=args.backend,
        chunk_size=args.chunk_size,
        checkpoint_every=args.checkpoint_every,
        task_timeout=args.task_timeout,
    )

    def cell(workload, filter_name, seed):
        evaluation = result.evaluations.get((workload, filter_name, seed))
        return None if evaluation is None else evaluation.coverage.coverage

    title = f"sweep: {len(workloads)} workloads x {len(filters)} filters"
    title += " [streamed]" if args.stream else " [replayed]"
    print(_coverage_table(workloads, filters, seeds, cell, title))
    print(result.report.summary())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.testing.faults import run_chaos

    result = run_chaos(
        args.plan,
        workers=args.workers,
        backend=args.backend or "process",
    )
    print(result.summary())
    return 0


def _require_store_path(command: str):
    """The service commands share one SQLite file — in-memory won't do."""
    store = experiments.get_store()
    if store.path is None:
        print(
            f"error: {command} requires a persistent --store PATH "
            "(server and workers share the SQLite file as the data plane)",
            file=sys.stderr,
        )
        return None
    return store


def _cmd_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.service.server import (
        SERVICE_RETRY_POLICY,
        SweepService,
        serve,
    )

    store = _require_store_path("serve")
    if store is None:
        return 2
    policy = SERVICE_RETRY_POLICY
    if args.max_attempts is not None:
        policy = dc_replace(policy, max_attempts=args.max_attempts)
    service = SweepService(
        store,
        policy=policy,
        lease_seconds=args.lease_seconds,
        max_pending=args.max_pending,
    )
    serve(
        service,
        args.host,
        args.port,
        drain_grace=args.drain_grace,
        delay_ms=args.delay_ms,
        ready_path=args.ready_file,
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import ServiceWorker

    store = _require_store_path("worker")
    if store is None:
        return 2
    worker = ServiceWorker(
        args.server,
        str(store.path),
        name=args.name,
        poll_seconds=args.poll,
        max_shards=args.max_shards,
        idle_seconds=args.idle_exit,
        drop_heartbeats=args.drop_heartbeats,
        poison=tuple(args.poison or ()),
    )
    completed = worker.run()
    print(f"worker {args.name} exiting: {completed} shard(s) completed")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server, timeout=10.0)
    workloads, filters, seeds = _sweep_axes(args)
    request = {
        "workloads": workloads,
        "filters": filters,
        "seeds": list(seeds),
        "mode": "stream" if args.stream else "replay",
    }
    for field in ("accesses", "warmup", "preset", "cpus"):
        value = getattr(args, field)
        if value is not None:
            request[field] = value
    status = client.submit(**request)
    print(f"job {status['job'][:12]} {status['state']}: {status['summary']}")
    if not args.wait:
        return 0
    status = client.wait(status["job"], timeout=args.timeout)
    print(f"job {status['job'][:12]} {status['state']}: {status['summary']}")

    def cell(workload, filter_name, seed):
        result = client.result(
            workload, filter_name, seed=seed,
            mode=request["mode"],
            accesses=request.get("accesses"),
            warmup=request.get("warmup"),
            preset=request.get("preset"),
            cpus=request.get("cpus"),
        )
        return None if result is None else result["coverage"]

    title = f"service sweep: {len(workloads)} workloads x {len(filters)} filters"
    print(_coverage_table(workloads, filters, seeds, cell, title))
    return 0 if status["state"] == "done" else 1


def _trace_accounting(
    store, entries
) -> tuple[list[dict], dict[str, tuple[int, int]]]:
    """Every trace among the store's ``entries``, in one pass.

    Returns ``(traces, orphans)``.  Each trace holds its manifest row
    ``entry``, the decoded ``manifest`` (``None`` when it does not
    decode: inspection renders damaged rows, removing them is fsck's
    job), ``segments`` (rows actually present), ``bytes`` (segments plus
    manifest: what deleting the trace would free) and ``complete``.
    ``orphans`` maps manifest keys that have segment rows but *no
    manifest* (a partial record killed before its durability point) to
    ``(rows, bytes)``; the fsck ladder removes them, inspection must at
    least show them.
    """
    from repro.analysis import store as store_mod
    from repro.errors import StoreCorruptionError

    manifests = []
    groups: dict[str, tuple[int, int]] = {}
    for entry in entries:
        if entry.kind != store_mod.TRACE_KIND:
            continue
        if entry.filter_name is None:  # manifest row
            manifests.append(entry)
        else:  # segment row, grouped by its manifest key
            rows, total = groups.get(entry.filter_name, (0, 0))
            groups[entry.filter_name] = (rows + 1, total + entry.payload_bytes)
    traces = []
    for entry in manifests:
        try:
            manifest = store_mod.decode_trace_manifest(store.get_blob(entry.key))
        except StoreCorruptionError:
            manifest = None
        rows, nbytes = groups.pop(entry.key, (0, 0))
        traces.append({
            "entry": entry,
            "manifest": manifest,
            "segments": rows,
            "bytes": nbytes + entry.payload_bytes,
            "complete": manifest is not None
            and rows == sum(manifest["segments_per_node"]),
        })
    return traces, groups  # leftover groups have no manifest: orphans


def _decoded_bytes_by_kind(store, entries, traces: list[dict]) -> dict[str, int]:
    """Decoded (in-memory) byte totals per result kind.

    Stored payloads are compressed: canonical-JSON rows zlib-deflate,
    trace segments go through the segment codec.  The decoded column is
    what replay/decode actually materialises — packed events are 8 bytes
    each, so a complete trace's segments decode to 8 bytes per event its
    manifest counts, and no segment is decoded to say so.  The segments
    of an incomplete, undecodable or orphaned trace count their stored
    bytes, as a corrupt row does.
    """
    import zlib

    from repro.analysis import store as store_mod

    complete = {t["entry"].key: t["manifest"] for t in traces if t["complete"]}
    decoded = {
        store_mod.TRACE_KIND: sum(
            8 * sum(manifest["events_per_node"])
            for manifest in complete.values()
        ),
    }
    for entry in entries:
        if entry.kind in store_mod.RETIRED_KINDS:
            continue
        if entry.kind == store_mod.TRACE_KIND and entry.filter_name is not None:
            if entry.filter_name not in complete:
                decoded[entry.kind] += entry.payload_bytes
            continue
        blob = store.get_blob(entry.key)
        if blob is None:
            continue
        try:
            size = len(zlib.decompress(blob))
        except zlib.error:
            size = len(blob)
        decoded[entry.kind] = decoded.get(entry.kind, 0) + size
    return decoded


def _print_traces(traces: list[dict], orphans: dict[str, tuple[int, int]]) -> None:
    """The per-trace table under ``cache info``, and what it cannot list."""
    rows = []
    for trace in traces:
        entry, manifest = trace["entry"], trace["manifest"]
        size = f"{trace['bytes'] / 1024:.1f} KiB"
        if manifest is None:
            rows.append([entry.workload, str(entry.n_cpus), str(entry.seed),
                         "(undecodable)", "?", str(trace["segments"]), size, "?"])
            continue
        expected = sum(manifest["segments_per_node"])
        accesses = manifest["metrics"]["accesses"]
        rows.append([
            entry.workload,
            str(entry.n_cpus),
            str(entry.seed),
            f"{accesses:,}",
            f"{sum(manifest['events_per_node']):,}",
            str(expected) if trace["complete"]
            else f"{trace['segments']}/{expected} (incomplete)",
            size,
            f"{trace['bytes'] / accesses:.2f}" if accesses else "?",
        ])
    if rows:
        headers = ["workload", "cpus", "seed", "accesses", "events",
                   "segments", "size", "bytes/access"]
        print(render_table(headers, rows, title="recorded traces (sim-events)"))
    undecodable = sum(trace["manifest"] is None for trace in traces)
    if undecodable:
        print(f"{undecodable} undecodable manifest(s): `cache fsck` "
              "removes them with their segments")
    if orphans:
        print("orphaned segments (no manifest — partial record; "
              "cache fsck removes them):")
        for key in sorted(orphans):
            count, nbytes = orphans[key]
            print(f"  {key[:16]}: {count} segment(s), {nbytes / 1024:.1f} KiB")


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis import store as store_mod

    store = experiments.get_store()
    if args.action == "fsck":
        fsck = store.fsck(quarantine=args.quarantine)
        print(fsck.summary())
        for key in fsck.corrupt:
            print(f"  corrupt: {key[:16]}")
        return 0 if fsck.clean else 1
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} stored result(s)")
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            print("error: cache gc requires --max-bytes", file=sys.stderr)
            return 2
        removed, freed = store.gc(args.max_bytes)
        stats = store.stats()
        print(
            f"evicted {removed} least-recently-used result(s) "
            f"({freed / 1024:.1f} KiB); store now holds "
            f"{stats.payload_bytes / 1024:.1f} KiB "
            f"(budget {args.max_bytes / 1024:.1f} KiB)"
        )
        return 0
    stats = store.stats()
    location = stats.path or "in-memory (set --store or REPRO_STORE to persist)"
    print(f"store:    {location}")
    print(f"sims:     {stats.sims}")
    print(f"traces:   {stats.traces}")
    print(f"checkpoints: {stats.checkpoints}")
    print(f"jobs:     {stats.jobs}")
    print(f"evals:    {stats.evals}")
    if stats.retired:
        print(f"retired:  {stats.retired} (kind "
              f"{'/'.join(store_mod.RETIRED_KINDS)}; cache gc evicts "
              "them first)")
    print(f"payload:  {stats.payload_bytes / 1024:.1f} KiB")
    entries = store.entries()
    traces, orphans = _trace_accounting(store, entries)
    decoded_by_kind = _decoded_bytes_by_kind(store, entries, traces)
    for kind, nbytes in stats.bytes_by_kind:
        if kind in store_mod.RETIRED_KINDS:
            print(f"  {kind + ' (retired):':13s}{nbytes / 1024:.1f} KiB "
                  "stored")
            continue
        decoded = decoded_by_kind.get(kind, nbytes)
        print(f"  {kind + ':':13s}{nbytes / 1024:.1f} KiB stored / "
              f"{decoded / 1024:.1f} KiB decoded")
    _print_traces(traces, orphans)
    if args.action == "list":
        from repro.analysis.store import CHECKPOINT_KIND, TRACE_KIND

        for entry in entries:
            if entry.kind == TRACE_KIND:
                what = (
                    "(trace manifest)" if entry.filter_name is None
                    else f"(trace segment of {entry.filter_name[:12]})"
                )
            elif entry.kind == CHECKPOINT_KIND:
                what = f"(checkpoint, chain {entry.filter_name[:12]})"
            elif entry.kind in store_mod.RETIRED_KINDS:
                what = "(retired kind)"
            else:
                what = entry.filter_name or "(simulation)"
            print(
                f"  {entry.kind:4s} {entry.workload:14s} {what:28s} "
                f"{entry.n_cpus}-way seed {entry.seed} "
                f"{entry.payload_bytes / 1024:.1f} KiB"
            )
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.analysis import store as store_mod
    from repro.analysis.store import CHECKPOINT_KIND
    from repro.errors import StoreCorruptionError

    store = experiments.get_store()
    rows = [e for e in store.entries() if e.kind == CHECKPOINT_KIND]

    if args.action == "rm":
        if not args.all and args.workload is None:
            print("error: checkpoint rm needs a workload (or --all)",
                  file=sys.stderr)
            return 2
        chains = sorted({
            e.filter_name for e in rows
            if args.all or e.workload == args.workload
        })
        removed = sum(
            store.delete_group(CHECKPOINT_KIND, chain) for chain in chains
        )
        print(f"removed {removed} checkpoint(s) across {len(chains)} chain(s)")
        return 0

    if args.workload is not None:
        rows = [e for e in rows if e.workload == args.workload]
    if not rows:
        print("no stored checkpoints"
              + (f" for workload {args.workload!r}" if args.workload else ""))
        return 0

    chains: dict[str, list] = {}
    for entry in rows:
        chains.setdefault(entry.filter_name, []).append(entry)

    def decoded(entry):
        """The entry's snapshot dict, or None for a damaged payload.

        Corrupt checkpoint rows are the one artifact class this feature
        exists to survive — inspection must render them, never crash on
        them (the resume ladder deletes them when it next runs).
        """
        try:
            return store_mod.decode_checkpoint(store.get_blob(entry.key))
        except StoreCorruptionError:
            return None

    if args.action == "list":
        headers = ["workload", "cpus", "seed", "mode", "filters",
                   "checkpoints", "latest", "size"]
        out = []
        for chain in sorted(chains):
            entries = chains[chain]
            states = [s for s in map(decoded, entries) if s is not None]
            size = f"{sum(e.payload_bytes for e in entries) / 1024:.1f} KiB"
            if states:
                newest = max(states, key=lambda s: s.get("position", 0))
                out.append([
                    newest["workload"],
                    str(newest["n_cpus"]),
                    str(newest["seed"]),
                    "record" if newest["record"] else "stream",
                    str(len(newest["filters"])),
                    str(len(entries)),
                    f"{newest['position']:,}",
                    size,
                ])
            else:
                first = entries[0]
                out.append([
                    first.workload, str(first.n_cpus), str(first.seed),
                    "?", "?", str(len(entries)), "(undecodable)", size,
                ])
        print(render_table(headers, out,
                           title="checkpoint chains (interrupted runs)"))
        return 0

    # info: every stored watermark, newest first per chain.
    headers = ["workload", "seed", "mode", "accesses", "measured",
               "chain", "size"]
    out = []
    for chain in sorted(chains):
        pairs = [(decoded(entry), entry) for entry in chains[chain]]
        pairs.sort(
            key=lambda pair: -(pair[0] or {}).get("position", -1)
        )
        for state, entry in pairs:
            size = f"{entry.payload_bytes / 1024:.1f} KiB"
            if state is None:
                out.append([entry.workload, str(entry.seed), "?",
                            "(undecodable)", "?", chain[:12], size])
                continue
            out.append([
                state["workload"],
                str(state["seed"]),
                "record" if state["record"] else "stream",
                f"{state['position']:,}",
                "yes" if state["measured"] else "warm-up",
                chain[:12],
                size,
            ])
    print(render_table(headers, out, title="stored checkpoints"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetty-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent experiment store (SQLite file; default: in-memory "
        "or $REPRO_STORE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the ten workloads").set_defaults(
        func=_cmd_workloads
    )

    p_exhibits = sub.add_parser(
        "exhibits",
        help="regenerate the paper's tables and figures and check their "
        "shape (exit 1 if a check fails)",
    )
    p_exhibits.add_argument("names", nargs="*", metavar="NAME",
                            help="exhibits to build (default: all): "
                            + ", ".join(exhibits.EXHIBITS))
    p_exhibits.set_defaults(func=_cmd_exhibits)

    p_cov = sub.add_parser("coverage", help="coverage of one filter on one workload")
    p_cov.add_argument("workload")
    p_cov.add_argument("filter")
    p_cov.set_defaults(func=_cmd_coverage)

    p_energy = sub.add_parser("energy", help="energy reduction of one filter")
    p_energy.add_argument("workload")
    p_energy.add_argument("filter")
    p_energy.set_defaults(func=_cmd_energy)

    p_nway = sub.add_parser("nway", help="SMP-width scaling summary (Section 4.3.4)")
    p_nway.add_argument("cpus", type=int)
    p_nway.set_defaults(func=_cmd_nway)

    p_size = sub.add_parser(
        "size", help="smallest JETTY meeting a coverage target"
    )
    p_size.add_argument("target", type=float, help="coverage target in (0, 1]")
    p_size.add_argument("workloads", nargs="+", help="workload names")
    p_size.set_defaults(func=_cmd_size)

    p_sweep = sub.add_parser(
        "sweep", help="run a workload x filter sweep on N worker processes: "
        "record each (workload, seed) trace once, replay every filter from it"
    )
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = in-process serial)")
    p_sweep.add_argument("--workloads", nargs="+", default=None,
                         help="workload names (default: all ten)")
    p_sweep.add_argument("--filters", nargs="+", default=None,
                         help="filter configuration names")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=None,
                         help="seeds to sweep (default: --seed)")
    p_sweep.add_argument("--cpus", type=int, default=None,
                         help="SMP width (default: the scaled system's 4)")
    p_sweep.add_argument("--accesses", type=_count, default=None,
                         help="override per-workload access count; accepts "
                         "paper-scale values like 25e6")
    p_sweep.add_argument("--warmup", type=_count, default=None,
                         help="override per-workload warm-up accesses")
    p_sweep.add_argument("--stream", action="store_true",
                         help="single-pass streaming mode: evaluate all "
                         "filters live with O(chunk) memory and persist no "
                         "trace")
    p_sweep.add_argument("--backend", default=None,
                         choices=runner.EXECUTOR_BACKENDS,
                         help="executor backend for worker fan-out "
                         "(default: process)")
    p_sweep.add_argument("--chunk-size", type=_positive_count,
                         default=runner.DEFAULT_CHUNK_SIZE,
                         help="accesses per streaming chunk (memory/overhead "
                         "knob; never changes results)")
    p_sweep.add_argument("--preset", default=None,
                         choices=sorted(PRESETS),
                         help="named workload transformation, e.g. "
                         "paper-scale (Table 2 trace lengths, capped)")
    p_sweep.add_argument("--checkpoint-every", type=_positive_count,
                         default=None, metavar="N",
                         help="snapshot each streamed/recorded simulation "
                         "to the store every N accesses; a killed sweep "
                         "rerun with the same flags resumes from its "
                         "latest checkpoint")
    p_sweep.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-task deadline under the process backend; "
                         "overdue workers are killed and the task retried "
                         "(default: no deadline)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_checkpoint = sub.add_parser(
        "checkpoint",
        help="inspect or drop mid-run checkpoints of interrupted sweeps",
    )
    p_checkpoint.add_argument("action", nargs="?", default="list",
                              choices=("list", "info", "rm"))
    p_checkpoint.add_argument("workload", nargs="?", default=None,
                              help="restrict to one workload's checkpoints")
    p_checkpoint.add_argument("--all", action="store_true",
                              help="rm: drop every stored checkpoint chain")
    p_checkpoint.set_defaults(func=_cmd_checkpoint)

    p_cache = sub.add_parser(
        "cache",
        help="inspect, verify, clear, or garbage-collect the experiment store",
    )
    p_cache.add_argument("action", nargs="?", default="info",
                         choices=("info", "list", "clear", "gc", "fsck"))
    p_cache.add_argument("--max-bytes", type=_count, default=None,
                         metavar="N",
                         help="gc: evict least-recently-used results until "
                         "the compressed payload fits N bytes (accepts "
                         "forms like 5e6)")
    p_cache.add_argument("--quarantine", action="store_true",
                         help="fsck: move corrupt rows aside for post-mortem "
                         "instead of deleting them")
    p_cache.set_defaults(func=_cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection drill end to end",
    )
    p_chaos.add_argument("--plan", default="aggressive",
                         choices=("none", "mild", "aggressive", "service"),
                         help="named fault plan to inject (default: "
                         "aggressive); 'service' runs the subprocess "
                         "server/worker drill")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="worker processes for the drill's sweeps")
    p_chaos.add_argument("--backend", default=None,
                         choices=runner.EXECUTOR_BACKENDS,
                         help="executor backend for the drill "
                         "(default: process)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the crash-safe sweep server over the shared store",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument("--lease-seconds", type=float, default=15.0,
                         help="lease term; a worker silent this long "
                         "forfeits its shard to reassignment")
    p_serve.add_argument("--max-pending", type=int, default=256,
                         help="bounded queue: submissions that would "
                         "exceed this many pending shards get 429 + "
                         "Retry-After")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="SIGTERM drain: seconds to let in-flight "
                         "leases land before exiting")
    p_serve.add_argument("--max-attempts", type=int, default=None,
                         help="override the service retry policy's "
                         "quarantine threshold")
    p_serve.add_argument("--delay-ms", type=float, default=0.0,
                         help="inject a fixed delay before every response "
                         "(chaos harness fault)")
    p_serve.add_argument("--ready-file", default=None, metavar="PATH",
                         help="write host:port here once listening "
                         "(subprocess orchestration handshake)")
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="run a leased sweep worker against a server",
    )
    p_worker.add_argument("--server", default="http://127.0.0.1:8765",
                          help="server base URL")
    p_worker.add_argument("--name", default="worker",
                          help="worker name (appears in leases and logs)")
    p_worker.add_argument("--poll", type=float, default=0.5,
                          help="seconds between lease polls when idle")
    p_worker.add_argument("--max-shards", type=int, default=None,
                          help="exit after completing this many shards")
    p_worker.add_argument("--idle-exit", type=float, default=None,
                          metavar="SECONDS",
                          help="exit after this long without a lease grant")
    p_worker.add_argument("--drop-heartbeats", action="store_true",
                          help="chaos hook: never heartbeat, so every "
                          "lease expires mid-run")
    p_worker.add_argument("--poison", nargs="+", default=None,
                          metavar="WORKLOAD",
                          help="chaos hook: report failure for these "
                          "workloads without executing them")
    p_worker.set_defaults(func=_cmd_worker)

    p_submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running server over HTTP",
    )
    p_submit.add_argument("--server", default="http://127.0.0.1:8765",
                          help="server base URL")
    p_submit.add_argument("--workloads", nargs="+", default=None,
                          help="workload names (default: all ten)")
    p_submit.add_argument("--filters", nargs="+", default=None,
                          help="filter configuration names")
    p_submit.add_argument("--seeds", type=int, nargs="+", default=None,
                          help="seeds to sweep (default: --seed)")
    p_submit.add_argument("--accesses", type=_count, default=None,
                          help="override per-workload access count")
    p_submit.add_argument("--warmup", type=_count, default=None,
                          help="override per-workload warm-up accesses")
    p_submit.add_argument("--cpus", type=int, default=None,
                          help="SMP width (default: the scaled system's 4)")
    p_submit.add_argument("--preset", default=None,
                          choices=sorted(PRESETS),
                          help="named workload transformation")
    p_submit.add_argument("--stream", action="store_true",
                          help="streamed shards instead of record/replay")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job settles, then render "
                          "the coverage table")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="--wait deadline in seconds")
    p_submit.set_defaults(func=_cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "store", None):
            experiments.set_store(args.store)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
