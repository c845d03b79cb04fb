"""Command-line interface.

``python -m repro <command>`` regenerates the paper's experiments and
runs Hang Doctor over the synthetic fleet from a shell:

* ``apps`` — list the catalog apps and their ground-truth bugs
* ``session`` — run Hang Doctor over one app's simulated user session
* ``scan`` — run the offline scanner over an app
* ``fleet`` — the Table 5 fleet study
* ``scenarios`` — per-archetype sweep of a taxonomy-generated fleet
* ``compare`` — the Figure 8 detector comparison
* ``filter`` — the correlation/threshold design pipeline (Tables 3-4)
* ``testbed`` — lab-vs-wild bug coverage (§4.6)
* ``chaos`` — detection quality under injected monitoring faults
* ``crowd`` — fleet-size sweep of the crowd backend's diagnosis savings
* ``stream`` — continuous fleet mode: long-lived sweep with device
  churn, rolling KB republish, and the elastic shard scheduler
* ``serve`` — run the live crowd ingestion service (HTTP, WAL-backed)
* ``serve-bench`` — stress the ingestion service with a device fleet
* ``slo`` — evaluate SLO error budgets over a telemetry directory
  (exits nonzero when a budget is exhausted)
* ``dash`` — render the terminal ops dashboard for a telemetry
  directory (rollups, SLO status, top spans)
"""

import argparse
import json
import pathlib
import sys

from repro import telemetry
from repro.apps.catalog import NAMED_APPS, TABLE5_APPS, get_app
from repro.apps.corpus import FLEET_SIZE
from repro.apps.sessions import SessionGenerator
from repro.scenarios import DEFAULT_MIX
from repro.core.hang_doctor import HangDoctor
from repro.detectors.offline import OfflineScanner
from repro.detectors.runner import run_detector
from repro.sim.device import ALL_DEVICES
from repro.sim.engine import ExecutionEngine


def _workers(value):
    value = int(value)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 = one worker per CPU)"
        )
    return value


def _device(name):
    for device in ALL_DEVICES:
        if device.name.lower().replace(" ", "-") == name.lower():
            return device
    raise SystemExit(
        f"unknown device {name!r}; available: "
        f"{[d.name for d in ALL_DEVICES]}"
    )


def cmd_apps(args):
    """List the catalog apps with their bug counts."""
    print(f"{'app':18s}{'category':18s}{'actions':>8}{'bugs':>6}")
    for app in NAMED_APPS.values():
        print(f"{app.name:18s}{app.category:18s}"
              f"{len(app.actions):>8}{len(app.hang_bug_operations()):>6}")


def cmd_session(args):
    """Run Hang Doctor over one app's simulated user session."""
    app = get_app(args.app)
    engine = ExecutionEngine(_device(args.device), seed=args.seed)
    doctor = HangDoctor(app, engine.device, seed=args.seed)
    session = SessionGenerator(seed=args.seed).user_session(
        app, user_id=0, actions_per_user=args.actions
    )
    executions = engine.run_session(app, session.action_names)
    run = run_detector(doctor, executions)
    for detection in run.detections:
        print(f"{detection.action_name:20s} {detection.root_name} "
              f"({detection.occurrence:.0%}, "
              f"{detection.response_time_ms:.0f} ms)")
    print()
    print(doctor.report.render())


def cmd_scan(args):
    """Run the offline scanner over an app; list hits and misses."""
    app = get_app(args.app)
    scanner = OfflineScanner(analyze_libraries=not args.source_only)
    for detection in scanner.scan_app(app):
        print(f"{detection.action_name:20s} {detection.api_name}")
    missed = scanner.missed_bugs(app)
    print(f"\n{len(missed)} ground-truth bug(s) this scanner misses:")
    for op in missed:
        print(f"  {op.api.qualified_name} "
              f"({op.caller_file}:{op.caller_line})")


def _run_observed(args, thunk):
    """Run *thunk*, under a telemetry session when the flags ask for one.

    Returns ``(result, session)`` where *session* is None when neither
    ``--telemetry`` nor ``--trace`` was given — the zero-cost default.
    """
    if not (getattr(args, "telemetry", None)
            or getattr(args, "trace", False)):
        return thunk(), None
    with telemetry.session() as active:
        result = thunk()
    return result, active


def _emit_observability(args, session, report=None):
    """Write ``--telemetry`` exports / print the ``--trace`` summary.

    The export note goes to stderr so stdout stays exactly the
    rendered result (the determinism smokes diff stdout bytes).
    """
    if session is None:
        return
    directory = getattr(args, "telemetry", None)
    if directory:
        from repro.obs import write_obs_exports

        paths = telemetry.write_exports(session, directory, report=report)
        paths += write_obs_exports(directory, session=session)
        print(f"telemetry: wrote {len(paths)} file(s) to {directory}/",
              file=sys.stderr)
    if getattr(args, "trace", False):
        print()
        print(telemetry.render_trace_summary(session))


def _run_sweep(args, sweep, **params):
    """Run one checkpointable sweep command end to end.

    Validates ``--checkpoint``/``--resume``, runs *sweep* (under a
    telemetry session when asked) with the shared device, seed,
    worker and checkpoint flags plus *params*, prints the rendered
    result (and the execution report with ``--verbose``), then writes
    the ``--telemetry`` exports and the ``--report-json`` dump.
    """
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint DIR")
    result, session = _run_observed(args, lambda: sweep(
        _device(args.device), seed=args.seed, workers=args.workers,
        checkpoint=args.checkpoint, resume=args.resume, **params,
    ))
    report = result.execution
    print(result.render())
    if args.verbose:
        print()
        print(report.describe())
    _emit_observability(args, session, report)
    if args.report_json:
        pathlib.Path(args.report_json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )


def cmd_fleet(args):
    """Regenerate the Table 5 fleet study."""
    from repro.harness.exp_fleet import table5

    _run_sweep(args, table5, users=args.users,
               actions_per_user=args.actions, corpus_size=args.fleet_size)


def cmd_scenarios(args):
    """Sweep a taxonomy-generated scenario fleet."""
    from repro.harness.exp_scenarios import scenario_sweep

    if args.quick:
        size, users, actions = 200, 1, 8
    else:
        size, users, actions = args.fleet_size, args.users, args.actions
    _run_sweep(args, scenario_sweep, size=size, mix=args.mix, users=users,
               actions_per_user=actions)


def cmd_compare(args):
    """Regenerate the Figure 8 detector comparison."""
    from repro.harness.exp_comparison import figure8

    result = figure8(_device(args.device), seed=args.seed,
                     users=args.users, actions_per_user=args.actions,
                     workers=args.workers)
    print(result.render())


def cmd_chaos(args):
    """Run the chaos sweep: fault rates vs detection quality."""
    from repro.harness.exp_chaos import chaos_sweep

    if args.quick:
        rates = (0.0, 0.2)
        apps = ("K9-mail", "AndStatus")
        users, actions = 1, 12
    else:
        rates = tuple(float(r) for r in args.rates.split(","))
        apps = tuple(args.apps.split(",")) if args.apps else None
        users, actions = args.users, args.actions
    _run_sweep(args, chaos_sweep, rates=rates, apps=apps, users=users,
               actions_per_user=actions)


def cmd_crowd(args):
    """Run the crowd sweep: fleet size vs diagnosis-cost reduction."""
    from repro.harness.exp_crowd import crowd_sweep

    if args.quick:
        fleet_sizes = (1, 4)
        apps = ("K9-mail", "AndStatus")
        rounds, actions = 2, 12
    else:
        fleet_sizes = tuple(int(n) for n in args.fleet_sizes.split(","))
        apps = tuple(args.apps.split(",")) if args.apps else None
        rounds, actions = args.rounds, args.actions
    _run_sweep(args, crowd_sweep, fleet_sizes=fleet_sizes, rounds=rounds,
               apps=apps, actions_per_round=actions,
               fault_rate=args.fault_rate)


def cmd_stream(args):
    """Run continuous fleet mode through the elastic scheduler."""
    from repro.harness.exp_stream import stream_sweep

    if args.quick:
        fleet_size, rounds, actions = 2, 3, 12
        apps = ("K9-mail", "AndStatus")
    else:
        fleet_size, rounds, actions = (args.fleet_size, args.rounds,
                                       args.actions)
        apps = tuple(args.apps.split(",")) if args.apps else None
    _run_sweep(args, stream_sweep, rounds=rounds, fleet_size=fleet_size,
               churn_rate=args.churn_rate,
               publish_every=args.publish_every, apps=apps,
               actions_per_round=actions, fault_rate=args.fault_rate,
               worker_kill_rate=args.worker_kill_rate,
               shard_stall_rate=args.shard_stall_rate,
               deadline=args.deadline)


def cmd_serve(args):
    """Run the live crowd ingestion service until SIGTERM/SIGINT."""
    import asyncio
    import signal

    from repro.faults import FaultInjector, FaultPlan
    from repro.serve import IngestService

    faults = None
    if args.torn_write_rate > 0.0:
        faults = FaultInjector(
            FaultPlan(torn_write_rate=args.torn_write_rate),
            seed=args.seed, scope=("serve",),
        )

    async def _run():
        service = await IngestService(
            args.state_dir, host=args.host, port=args.port,
            max_queue=args.max_queue, snapshot_every=args.snapshot_every,
            tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst,
            faults=faults,
        ).start()
        loop = asyncio.get_running_loop()
        stopping = loop.create_future()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum,
                lambda: None if stopping.done()
                else stopping.set_result(None),
            )
        # Printed only once signal handlers are live: "serving on" in
        # the log means a TERM now drains instead of killing.
        print(f"serving on {service.address} "
              f"(state: {args.state_dir}, "
              f"replayed {service.state.replayed} from WAL)", flush=True)
        await stopping
        print("draining...", flush=True)
        await service.stop()
        print(f"stopped: {service.stats['ingested']} ingested, "
              f"{service.stats['duplicates']} duplicates, "
              f"{service.stats['publishes']} publish(es)", flush=True)

    asyncio.run(_run())


def cmd_serve_bench(args):
    """Drive a simulated device fleet against the ingestion service."""
    from repro.serve import run_bench

    connect = None
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        connect = (host or "127.0.0.1", int(port))
    report = run_bench(
        args.state_dir, devices=args.devices, rounds=args.rounds,
        seed=args.seed, mode=args.mode,
        apps=tuple(args.apps.split(",")) if args.apps else None,
        actions=args.actions, device_profile=_device(args.device),
        workers=args.workers, concurrency=args.concurrency,
        fault_rate=args.fault_rate,
        request_delay_ms=args.request_delay_ms, connect=connect,
        max_queue=args.max_queue, tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        snapshot_every=args.snapshot_every,
        sleep_scale=args.sleep_scale, max_attempts=args.max_attempts,
        baseline_out=args.baseline_out,
    )
    print(report.render())
    if report.undelivered:
        raise SystemExit(
            f"{len(report.undelivered)} undelivered batch(es), e.g. "
            f"{report.undelivered[:3]}"
        )
    if report.snapshot_matches is False:
        raise SystemExit(
            "published snapshot does not match the batch baseline"
        )


def cmd_slo(args):
    """Evaluate SLO error budgets over a telemetry directory."""
    from repro.obs import (
        alerts_to_jsonl,
        build_rollup,
        evaluate_slos,
        records_from_jsonl,
        render_slo_table,
    )

    trace = pathlib.Path(args.directory) / "trace.jsonl"
    if not trace.exists():
        raise SystemExit(
            f"no trace.jsonl in {args.directory}/ — run an experiment "
            f"with --telemetry {args.directory} first"
        )
    rollup = build_rollup(records=records_from_jsonl(trace),
                          window_ms=args.window_ms)
    statuses, alerts = evaluate_slos(rollup)
    if args.json:
        print(json.dumps({"objectives": statuses, "alerts": alerts},
                         indent=2, sort_keys=True))
    else:
        print(render_slo_table(statuses))
        print()
        print(f"{len(alerts)} burn-rate alert(s)")
        if alerts:
            sys.stdout.write(alerts_to_jsonl(alerts))
    exhausted = [s["objective"] for s in statuses if s["exhausted"]]
    if exhausted:
        raise SystemExit(
            f"error budget exhausted: {', '.join(exhausted)}"
        )


def cmd_dash(args):
    """Render the terminal ops dashboard for a telemetry directory."""
    from repro.obs import render_dash

    print(render_dash(args.directory, window_ms=args.window_ms,
                      limit=args.limit))


def cmd_filter(args):
    """Regenerate the filter-design analyses (Tables 3-4)."""
    from repro.harness.exp_filter import table3, table4

    device = _device(args.device)
    print(table3(device, seed=args.seed).render())
    print()
    print(table4(device, seed=args.seed).render())


def cmd_reproduce(args):
    """Regenerate every paper table and figure into a directory."""
    from repro.harness.reproduce import generate_all

    def progress(name, seconds):
        print(f"  {name:10s} done in {seconds:5.1f}s")

    print(f"Reproducing all experiments into {args.out}/ ...")
    _, session = _run_observed(args, lambda: generate_all(
        _device(args.device), args.out, seed=args.seed,
        progress=progress, workers=args.workers,
    ))
    _emit_observability(args, session)
    print("done.")


def cmd_verify(args):
    """Verify every encoded paper claim against fresh measurements."""
    from repro.harness.paper import verify_reproduction

    print("Measuring all headline experiments (takes ~15 s)...")
    checks, text = verify_reproduction(_device(args.device),
                                       seed=args.seed)
    print(text)
    deviating = [c.claim.key for c in checks if c.verdict == "deviates"]
    if deviating:
        raise SystemExit(f"claims deviating from the paper: {deviating}")
    print("\nall claims hold.")


def cmd_testbed(args):
    """Compare in-lab vs in-the-wild bug coverage."""
    from repro.testbed import lab_vs_wild

    apps = (
        [get_app(args.app)] if args.app else list(TABLE5_APPS[:8])
    )
    report = lab_vs_wild(apps, _device(args.device), seed=args.seed)
    print(report.render())
    missed = report.missed_in_lab()
    if missed:
        print("\nbugs that never manifested on the test bed:")
        for app_name, site in missed:
            print(f"  {app_name}: {site}")


def build_parser():
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hang Doctor (EuroSys'18) reproduction toolkit",
    )
    parser.add_argument("--device", default="lg-v10",
                        help="device profile (lg-v10, nexus-5, galaxy-s3)")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list catalog apps").set_defaults(
        func=cmd_apps
    )

    session = sub.add_parser("session",
                             help="run Hang Doctor over a user session")
    session.add_argument("app")
    session.add_argument("--actions", type=int, default=80)
    session.set_defaults(func=cmd_session)

    scan = sub.add_parser("scan", help="offline-scan an app")
    scan.add_argument("app")
    scan.add_argument("--source-only", action="store_true",
                      help="source-level scanning (no library bytecode)")
    scan.set_defaults(func=cmd_scan)

    workers_help = (
        "worker processes for app-sharded experiments "
        "(0 = one per CPU; results are identical for any count)"
    )

    def add_checkpoint_flags(command):
        """The supervised-execution trio shared by the long sweeps."""
        command.add_argument(
            "--checkpoint", default=None, metavar="DIR",
            help="journal completed shards to DIR as they finish "
                 "(crash-atomic; a killed run becomes resumable)")
        command.add_argument(
            "--resume", action="store_true",
            help="skip shards already journaled in --checkpoint DIR; "
                 "output is byte-identical to an uninterrupted run")
        command.add_argument(
            "--verbose", action="store_true",
            help="print the execution report (retries, fallbacks, "
                 "deadline hits, checkpoint hits) after the result")

    def add_observability_flags(command, report_json=True):
        """The telemetry trio shared by the instrumented commands."""
        command.add_argument(
            "--telemetry", default=None, metavar="DIR",
            help="collect deterministic telemetry and export it to DIR: "
                 "trace.jsonl (event log), trace.json (Chrome trace, "
                 "loads in Perfetto), metrics.txt, plus the advisory "
                 "executor.jsonl; exports are byte-identical for any "
                 "--workers count and across checkpoint resume")
        command.add_argument(
            "--trace", action="store_true",
            help="print a trace summary (top spans by self-time, "
                 "metrics) after the result")
        if report_json:
            command.add_argument(
                "--report-json", default=None, metavar="PATH",
                help="dump the execution report (supervision events, "
                     "machine-readable) to PATH")

    fleet = sub.add_parser("fleet", help="the Table 5 fleet study")
    fleet.add_argument("--users", type=int, default=4)
    fleet.add_argument("--actions", type=int, default=60)
    fleet.add_argument("--fleet-size", type=int, default=FLEET_SIZE,
                       help="corpus size: the hand-modelled apps plus "
                            "generated clean apps up to this many "
                            f"(default {FLEET_SIZE}, the paper's fleet)")
    fleet.add_argument("--workers", type=_workers, default=1,
                       help=workers_help)
    add_checkpoint_flags(fleet)
    add_observability_flags(fleet)
    fleet.set_defaults(func=cmd_fleet)

    scenarios = sub.add_parser(
        "scenarios",
        help="sweep a taxonomy-generated fleet (per-archetype "
             "precision/recall)",
    )
    scenarios.add_argument("--fleet-size", type=int, default=1000,
                           help="generated apps in the fleet")
    scenarios.add_argument(
        "--mix", default=DEFAULT_MIX,
        help="archetype mix as name=fraction pairs (aliases: clean, "
             "blocking, async, ipc, race, render); fractions are "
             "normalized")
    scenarios.add_argument("--users", type=int, default=2)
    scenarios.add_argument("--actions", type=int, default=12)
    scenarios.add_argument("--quick", action="store_true",
                           help="small fixed preset (200 apps, 1 user) "
                                "for CI determinism smoke")
    scenarios.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                           help="root seed (also accepted before the "
                                "subcommand)")
    scenarios.add_argument("--workers", type=_workers, default=1,
                           help=workers_help)
    add_checkpoint_flags(scenarios)
    add_observability_flags(scenarios)
    scenarios.set_defaults(func=cmd_scenarios)

    compare = sub.add_parser("compare",
                             help="the Figure 8 detector comparison")
    compare.add_argument("--users", type=int, default=2)
    compare.add_argument("--actions", type=int, default=50)
    compare.add_argument("--workers", type=_workers, default=1,
                         help=workers_help)
    compare.set_defaults(func=cmd_compare)

    chaos = sub.add_parser(
        "chaos",
        help="sweep injected monitoring-fault rates (degradation curves)",
    )
    chaos.add_argument("--rates", default="0,0.02,0.05,0.1,0.2,0.4",
                       help="comma-separated fault rates to sweep")
    chaos.add_argument("--apps", default=None,
                       help="comma-separated catalog app names "
                            "(default: the Figure 8 apps)")
    chaos.add_argument("--users", type=int, default=2)
    chaos.add_argument("--actions", type=int, default=40)
    chaos.add_argument("--quick", action="store_true",
                       help="small fixed preset (2 apps, 2 rates) for "
                            "CI determinism smoke")
    chaos.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="root seed (also accepted before the "
                            "subcommand)")
    chaos.add_argument("--workers", type=_workers, default=1,
                       help=workers_help)
    add_checkpoint_flags(chaos)
    add_observability_flags(chaos)
    chaos.set_defaults(func=cmd_chaos)

    crowd = sub.add_parser(
        "crowd",
        help="sweep fleet sizes with the crowd backend (diagnosis-cost "
             "reduction curve)",
    )
    crowd.add_argument("--fleet-sizes", default="1,2,4,8",
                       help="comma-separated device counts to sweep")
    crowd.add_argument("--apps", default=None,
                       help="comma-separated catalog app names "
                            "(default: AndStatus, K9-mail)")
    crowd.add_argument("--rounds", type=int, default=3,
                       help="crowd sync rounds per fleet")
    crowd.add_argument("--actions", type=int, default=40,
                       help="actions per device per round")
    crowd.add_argument("--fault-rate", type=float, default=0.0,
                       help="upload fault rate (drop/duplicate/delay)")
    crowd.add_argument("--quick", action="store_true",
                       help="small fixed preset (2 apps, 2 fleet sizes) "
                            "for CI determinism smoke")
    crowd.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="root seed (also accepted before the "
                            "subcommand)")
    crowd.add_argument("--workers", type=_workers, default=1,
                       help=workers_help)
    add_checkpoint_flags(crowd)
    add_observability_flags(crowd)
    crowd.set_defaults(func=cmd_crowd)

    stream = sub.add_parser(
        "stream",
        help="continuous fleet mode: long-lived sweep with device "
             "churn through the elastic shard scheduler",
    )
    stream.add_argument("--fleet-size", type=int, default=4,
                        help="nominal device count (churn reshapes it)")
    stream.add_argument("--rounds", type=int, default=6,
                        help="sync rounds to stream")
    stream.add_argument("--churn-rate", type=float, default=0.0,
                        help="seeded per-(round, device) join/leave "
                             "probability; the schedule is keyed, so "
                             "output stays identical for any --workers")
    stream.add_argument("--publish-every", type=int, default=1,
                        help="republish the crowd KB every N rounds "
                             "(1 = every round, the crowd sweep's "
                             "behaviour)")
    stream.add_argument("--apps", default=None,
                        help="comma-separated catalog app names "
                             "(default: AndStatus, K9-mail)")
    stream.add_argument("--actions", type=int, default=40,
                        help="actions per device per round")
    stream.add_argument("--fault-rate", type=float, default=0.0,
                        help="upload fault rate (drop/duplicate/delay)")
    stream.add_argument("--worker-kill-rate", type=float, default=0.0,
                        help="executor storm: kill workers mid-shard at "
                             "this rate (resharded; output unchanged)")
    stream.add_argument("--shard-stall-rate", type=float, default=0.0,
                        help="executor storm: stall shards at this rate "
                             "(stolen past the deadline; output "
                             "unchanged)")
    stream.add_argument("--deadline", type=float, default=None,
                        help="straggler steal deadline in seconds "
                             "(default: sized from the perf-trajectory "
                             "cost model)")
    stream.add_argument("--quick", action="store_true",
                        help="small fixed preset (2 apps, fleet 2, 3 "
                             "rounds) for CI determinism smoke")
    stream.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="root seed (also accepted before the "
                             "subcommand)")
    stream.add_argument("--workers", type=_workers, default=1,
                        help=workers_help)
    add_checkpoint_flags(stream)
    add_observability_flags(stream)
    stream.set_defaults(func=cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="run the live crowd ingestion service (HTTP, WAL-backed)",
    )
    serve.add_argument("state_dir",
                       help="directory for snapshot.json + wal.jsonl")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = pick a free one)")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="bound on batches queued for the fsync "
                            "pipeline; beyond it uploads shed with 429")
    serve.add_argument("--snapshot-every", type=int, default=512,
                       help="publish a snapshot every N applied batches")
    serve.add_argument("--tenant-rate", type=float, default=0.0,
                       help="per-tenant admitted batches per second "
                            "(0 disables the token-bucket gate)")
    serve.add_argument("--tenant-burst", type=int, default=32)
    serve.add_argument("--torn-write-rate", type=float, default=0.0,
                       help="inject torn snapshot/WAL writes at this "
                            "rate (recovery drill)")
    serve.set_defaults(func=cmd_serve)

    bench = sub.add_parser(
        "serve-bench",
        help="stress the ingestion service with a simulated fleet",
    )
    bench.add_argument("state_dir", nargs="?", default="serve-state",
                       help="state directory for the in-process server "
                            "(unused with --connect)")
    bench.add_argument("--devices", type=int, default=200)
    bench.add_argument("--rounds", type=int, default=2)
    bench.add_argument("--mode", choices=("synthetic", "real"),
                       default="synthetic",
                       help="synthetic: cheap seeded batches at fleet "
                            "scale; real: full Hang Doctor device "
                            "rounds (crowd_sweep's baseline path)")
    bench.add_argument("--apps", default=None,
                       help="comma-separated catalog apps (real mode)")
    bench.add_argument("--actions", type=int, default=12,
                       help="actions per device round (real mode)")
    bench.add_argument("--concurrency", type=int, default=32,
                       help="devices uploading at once")
    bench.add_argument("--fault-rate", type=float, default=0.0,
                       help="network fault rate (drop/delay/reset/"
                            "corrupt, each)")
    bench.add_argument("--request-delay-ms", type=float, default=5.0)
    bench.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="drive an externally managed server instead "
                            "of spawning one in-process")
    bench.add_argument("--max-queue", type=int, default=64,
                       help="in-process server queue bound")
    bench.add_argument("--tenant-rate", type=float, default=0.0)
    bench.add_argument("--tenant-burst", type=int, default=32)
    bench.add_argument("--snapshot-every", type=int, default=512)
    bench.add_argument("--sleep-scale", type=float, default=0.05,
                       help="multiplier on backoff sleeps (compresses "
                            "simulated delays; decisions unchanged)")
    bench.add_argument("--max-attempts", type=int, default=25)
    bench.add_argument("--baseline-out", default=None, metavar="PATH",
                       help="write the batch-baseline snapshot JSON to "
                            "PATH (for external byte-comparison)")
    bench.add_argument("--workers", type=_workers, default=1,
                       help=workers_help)
    bench.set_defaults(func=cmd_serve_bench)

    slo = sub.add_parser(
        "slo",
        help="evaluate SLO error budgets over a telemetry directory "
             "(nonzero exit when a budget is exhausted)",
    )
    slo.add_argument("directory",
                     help="a --telemetry export directory "
                          "(needs trace.jsonl)")
    slo.add_argument("--window-ms", type=float, default=1000.0,
                     help="sim-clock rollup window width")
    slo.add_argument("--json", action="store_true",
                     help="emit objectives + alerts as JSON")
    slo.set_defaults(func=cmd_slo)

    dash = sub.add_parser(
        "dash",
        help="terminal ops dashboard for a telemetry directory "
             "(rollups, SLO status, top spans)",
    )
    dash.add_argument("directory",
                      help="a --telemetry export directory")
    dash.add_argument("--window-ms", type=float, default=1000.0,
                      help="sim-clock rollup window width")
    dash.add_argument("--limit", type=int, default=8,
                      help="rows per dashboard section")
    dash.set_defaults(func=cmd_dash)

    filt = sub.add_parser("filter", help="the filter-design pipeline")
    filt.set_defaults(func=cmd_filter)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every paper table and figure"
    )
    reproduce.add_argument("--out", default="reproduction")
    reproduce.add_argument("--workers", type=_workers, default=1,
                           help=workers_help)
    add_observability_flags(reproduce, report_json=False)
    reproduce.set_defaults(func=cmd_reproduce)

    verify = sub.add_parser(
        "verify", help="check every paper claim against fresh runs"
    )
    verify.set_defaults(func=cmd_verify)

    testbed = sub.add_parser("testbed", help="lab-vs-wild coverage")
    testbed.add_argument("--app", default=None)
    testbed.set_defaults(func=cmd_testbed)
    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _device(args.device)  # validate up front for a clean error
    try:
        args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
