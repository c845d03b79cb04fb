"""One benchmark pass, run in a fresh process by ``run.py``.

Usage::

    python3 hdbench/workpass.py WORKLOAD SEED STATE_DIR [--small]
                                [--trace SPANS_PATH]

A pass times a fixed calibration probe, imports the program, builds
the workload's inputs from SEED, times one unit of work (one study
call, or one closed-loop upload of the whole synthetic fleet for
``ingest``), checks the output, and prints one JSON object on its last
stdout line.  ``setup_s`` runs from the start of the pass to the start
of the timed window, less the probe.

The probe (:func:`calibrate`) executes a fixed piece of object-heavy
Python that does not touch the program.  A shared host can change
speed by half within minutes (seen on a 2-vCPU VM); ``run.py`` divides
that out by scaling each pass's figures by its probe time.

With ``--trace`` the layer entry points listed in ``spec.json`` are
wrapped just before the timed window (see ``tracer.py``), the spans
are written to SPANS_PATH when the pass ends, and the per-layer calls,
self times and extra counts are added to the JSON.  Without it the
program runs unwrapped, with its own telemetry off.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import marshal  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402

import tracer as tracing  # noqa: E402

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent / "spec.json").read_text()
)


#: Module-body work of the kind the program's set-up and hot loops do:
#: dataclass and enum creation, small objects, dict building.
_PROBE_SOURCE = """
import dataclasses, enum


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    mean_ms: float = 1.0
    sigma: float = 0.3
    pages: int = 0

    def scaled(self, k):
        return Spec(self.name, self.mean_ms * k, self.sigma, self.pages)


class Kind(enum.Enum):
    UI = 1
    IO = 2
    NET = 3


TABLE = {f"api{i}": Spec(f"api{i}", i * 0.5).scaled(2.0) for i in range(40)}
"""

PROBE_ROUNDS = 80


def calibrate():
    """Seconds the probe takes on this host right now (garbage
    collection off, so the heap around it cannot change its cost)."""
    code = marshal.dumps(compile(_PROBE_SOURCE, "<probe>", "exec"))
    exec(marshal.loads(code), {"__name__": "probe"})  # warm-up
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            exec(marshal.loads(code), {"__name__": "probe"})
        return time.perf_counter() - started
    finally:
        gc.enable()


def _sha256(text):
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _tree_bytes(directory):
    return sum(path.stat().st_size
               for path in pathlib.Path(directory).rglob("*")
               if path.is_file())


def _connections():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


class Study:
    """fleet, scenarios, stream: one synchronous study call per pass."""

    def __init__(self, workload, seed, params, state_dir):
        from repro.sim.device import LG_V10

        self.workload = workload
        self.state_dir = state_dir
        if workload == "fleet":
            from repro.harness.exp_fleet import table5

            self.call = lambda: table5(
                LG_V10, seed=seed, users=params["users"],
                actions_per_user=params["actions_per_user"],
                corpus_size=params["corpus_size"], workers=1,
            )
        elif workload == "scenarios":
            from repro.harness.exp_scenarios import scenario_sweep
            from repro.scenarios import DEFAULT_MIX

            self.call = lambda: scenario_sweep(
                LG_V10, seed=seed, size=params["size"], mix=DEFAULT_MIX,
                users=params["users"],
                actions_per_user=params["actions_per_user"], workers=1,
                checkpoint=state_dir,
            )
        else:
            from repro.harness.exp_stream import stream_sweep

            self.call = lambda: stream_sweep(
                LG_V10, seed=seed, rounds=params["rounds"],
                fleet_size=params["fleet_size"],
                churn_rate=params["churn_rate"],
                publish_every=params["publish_every"],
                actions_per_round=params["actions_per_round"],
                fault_rate=params["fault_rate"], workers=1,
                checkpoint=state_dir,
            )
        self.params = params

    def run(self):
        return self.call()

    def finish(self, result, out):
        errors = out["errors"]
        rendered = result.render()
        if result.execution.checkpoint_hits:
            errors.append(
                f"{result.execution.checkpoint_hits} shard(s) restored "
                "from a stale journal"
            )
        if self.workload == "fleet":
            if result.apps_tested != self.params["corpus_size"]:
                errors.append(f"{result.apps_tested} apps tested")
            out["quality"] = {
                "bugs_detected": result.total_detected,
                "missed_offline": result.total_missed_offline,
            }
        elif self.workload == "scenarios":
            tp = sum(cell.detected_sites for cell in result.cells)
            fp = sum(cell.fp_actions for cell in result.cells)
            truth = sum(cell.truth_sites for cell in result.cells)
            if len(result.cells) != self.params["size"]:
                errors.append(f"{len(result.cells)} cells")
            out["quality"] = {
                "precision": tp / (tp + fp) if tp + fp else 0.0,
                "recall": tp / truth if truth else 0.0,
            }
        else:
            rendered += "\n" + json.dumps(result.final_summary(),
                                          sort_keys=True)
            out["quality"] = {
                "phase2_per_device_round":
                    result.phase2_collections / max(1, result.device_rounds),
            }
        out["digest"] = _sha256(rendered)
        if self.state_dir:
            out["journal_bytes"] = _tree_bytes(self.state_dir)


class Ingest:
    """ingest: ``serve.loadgen.run_bench`` in synthetic mode, split at
    its seams so service start and WAL recovery count as set-up and
    the timed window is exactly run_bench's closed-loop drive."""

    def __init__(self, workload, seed, params, state_dir):
        from repro.faults import FaultPlan
        from repro.serve.client import ServeClient
        from repro.serve.loadgen import (
            baseline_snapshot_json,
            drive_fleet,
            synthetic_fleet_batches,
        )
        from repro.serve.service import IngestService

        self.params = params
        self.seed = seed
        self.client_class = ServeClient
        self.drive_fleet = drive_fleet
        self.fleet = synthetic_fleet_batches(seed, params["devices"],
                                             params["rounds"])
        self.batches = sum(len(batches) for _, batches in self.fleet)
        self.baseline = baseline_snapshot_json(self.fleet)
        rate = params["fault_rate"]
        self.plan = FaultPlan(
            request_drop_rate=rate, request_delay_rate=rate,
            connection_reset_rate=rate, response_corrupt_rate=rate,
        ).validate()
        self.loop = asyncio.new_event_loop()
        self.service = self.loop.run_until_complete(IngestService(
            state_dir, max_queue=params["max_queue"],
            tenant_rate=params["tenant_rate"],
            snapshot_every=params["snapshot_every"],
        ).start())
        self.connections = _connections()

    def run(self):
        params = self.params
        return self.loop.run_until_complete(self.drive_fleet(
            self.service.host, self.service.port, self.fleet,
            seed=self.seed, plan=self.plan, concurrency=self.connections,
            sleep_scale=params["sleep_scale"], timeout_s=params["timeout_s"],
            max_attempts=params["max_attempts"],
            breaker_threshold=params["breaker_threshold"],
            tenant_by_app=params["tenant_rate"] > 0.0,
        ))

    def scrape(self):
        """The service's public ``/metrics`` exposition text."""
        client = self.client_class(self.service.host, self.service.port)
        _, body = self.loop.run_until_complete(client.get_raw("/metrics"))
        return body

    def finish(self, result, out):
        stats, undelivered = result
        errors = out["errors"]
        try:
            self.loop.run_until_complete(self.service.stop())
        finally:
            self.loop.close()
        snapshot = self.service.state.snapshot_bytes()
        if snapshot != self.baseline.encode("utf-8"):
            errors.append("drained snapshot differs from "
                          "baseline_snapshot_json")
        out["units"] = stats.delivered
        out["attempted"] = self.batches
        out["failed"] = len(undelivered)
        if undelivered or stats.delivered != self.batches:
            errors.append(f"{len(undelivered)} undelivered, "
                          f"{stats.delivered}/{self.batches} acked")
        out["digest"] = _sha256(snapshot)
        out["latencies_ms"] = [round(v, 4) for v in stats.latencies_ms]
        out["retries"] = stats.retries
        out["snapshot_bytes"] = len(snapshot)
        out["connections"] = self.connections


def _histogram_quantile(buckets, total, q):
    """Prometheus-style linear interpolation inside cumulative buckets."""
    if not total:
        return 0.0
    rank = q * total
    lower_bound, lower_count = 0.0, 0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            width = count - lower_count
            fraction = (rank - lower_count) / width if width else 1.0
            return lower_bound + (bound - lower_bound) * fraction
        lower_bound, lower_count = bound, count
    return lower_bound


def _service_metrics(text):
    """calls, server p50/p99 and 429s from the ``/metrics`` exposition."""
    requests = 0
    shed = 0
    buckets = []
    total = 0
    batch_labels = 'route="/v1/batches",status="2xx"'
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith("serve_http_latency_ms_count"):
            requests += int(float(value))
        if name in ("serve_shed_queue", "serve_shed_tenant"):
            shed += int(float(value))
        if name.startswith("serve_http_latency_ms_bucket{" + batch_labels):
            bound = name.rsplit('le="', 1)[1].rstrip('"}')
            buckets.append((float(bound), int(float(value))))
        if name == "serve_http_latency_ms_count{" + batch_labels + "}":
            total = int(float(value))
    buckets.sort()
    return {
        "calls": requests,
        "serve.service.server_ms_p50":
            _histogram_quantile(buckets, total, 0.50),
        "serve.service.server_ms_p99":
            _histogram_quantile(buckets, total, 0.99),
        "serve.service.shed_429": shed,
    }


def _count(key):
    def observe(tracer, args, result):
        tracer.counts[key] += 1
    return observe


def _observers():
    """Result hooks that feed the layers' extra counts."""

    def segments(tracer, args, result):
        tracer.counts["sim.counters.segments"] += len(args[1])

    def schecker(tracer, args, result):
        tracer.counts["core.schecker.suspicious"] += bool(result.symptomatic)

    def diagnoser(tracer, args, result):
        tracer.counts["core.diagnoser.samples"] += result.samples
        tracer.counts["core.diagnoser.bug_calls"] += bool(
            result.bug_diagnoses()
        )

    def process(tracer, args, result):
        tracer.counts["core.hang_doctor.process"] += 1
        tracer.counts["core.hang_doctor.kb_short_circuits"] += (
            result.cost.kb_short_circuits
        )

    def ingest(tracer, args, result):
        tracer.counts["crowd.ingest.duplicates"] += result is False

    def load(tracer, args, result):
        tracer.counts["checkpoint.journal.restores"] += bool(result[0])

    def scheduler(tracer, args, result):
        tracer.latest[("sched.dispatch_rounds", id(args[0]))] = (
            args[0].dispatch_rounds
        )

    return {
        "repro.sim.counters:CounterModel.segment_counts":
            _count("sim.counters.segments"),
        "repro.sim.counters:CounterModel.segment_batch": segments,
        "repro.core.schecker:SChecker.check": schecker,
        "repro.core.diagnoser:Diagnoser.diagnose": diagnoser,
        "repro.core.hang_doctor:HangDoctor.process": process,
        "repro.crowd.aggregator:CrowdAggregator.ingest": ingest,
        "repro.checkpoint.journal:ShardJournal.load": load,
        "repro.sched.scheduler:ElasticScheduler.map": scheduler,
        "repro.serve.wal:BatchJournal.append": _count("serve.wal.appends"),
        "repro.serve.wal:BatchJournal.sync": _count("serve.wal.syncs"),
    }


#: Dispatchers whose callable argument is the caller's work, not theirs.
WORK_ARGS = {"repro.parallel.executor:parallel_map": 0}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _layer_report(tracer, workload_out, service):
    """Per-layer calls, self seconds and extras of one traced pass."""
    calls = tracer.calls
    counts = tracer.counts
    self_s = tracer.self_times()
    layers = {}
    for layer in SPEC["layers"]:
        name = layer["name"]
        layers[name] = {"calls": calls[name], "self_s": self_s[name]}
    actions = calls["sim.engine"]
    extras = {
        "sim.plan.hit_ratio":
            1.0 - _ratio(calls["sim.plan"], actions) if actions else 0.0,
        "sim.counters.segments_per_action":
            _ratio(counts["sim.counters.segments"], actions),
        "core.schecker.suspicious_ratio":
            _ratio(counts["core.schecker.suspicious"], calls["core.schecker"]),
        "core.diagnoser.samples": counts["core.diagnoser.samples"],
        "core.diagnoser.bug_yield": _ratio(
            counts["core.diagnoser.bug_calls"], calls["core.diagnoser"]),
        "core.hang_doctor.kb_short_circuits":
            counts["core.hang_doctor.kb_short_circuits"],
        "crowd.ingest.duplicate_ratio":
            _ratio(counts["crowd.ingest.duplicates"], calls["crowd.ingest"]),
        "checkpoint.journal.bytes": workload_out.get("journal_bytes", 0),
        "checkpoint.journal.restores": counts["checkpoint.journal.restores"],
        "sched.dispatch_rounds": sum(
            value for key, value in tracer.latest.items()
            if key[0] == "sched.dispatch_rounds"
        ),
        "serve.client.retries": workload_out.get("retries", 0),
        "serve.wal.batches_per_sync":
            _ratio(counts["serve.wal.appends"], counts["serve.wal.syncs"]),
        "serve.state.snapshot_bytes": workload_out.get("snapshot_bytes", 0),
        "serve.service.server_ms_p50": 0.0,
        "serve.service.server_ms_p99": 0.0,
        "serve.service.shed_429": 0,
    }
    if service is not None:
        layers["serve.service"]["calls"] = service.pop("calls")
        extras.update(service)
    return {
        "layers": layers,
        "extras": extras,
        "units_traced": counts["core.hang_doctor.process"],
        "wall_s": tracer.wall_s,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("seed", type=int)
    parser.add_argument("state_dir")
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-test")
    parser.add_argument("--trace", metavar="SPANS_PATH", default=None)
    args = parser.parse_args()
    calibration_started = time.perf_counter()
    probe_s = calibrate()
    calibration_s = time.perf_counter() - calibration_started
    spec = SPEC["workloads"][args.workload]
    params = spec["small" if args.small else "params"]
    kind = Ingest if args.workload == "ingest" else Study
    work = kind(args.workload, args.seed, params, args.state_dir)
    out = {"workload": args.workload, "seed": args.seed, "errors": [],
           "probe_s": probe_s}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        observers = _observers()
        for layer in SPEC["layers"]:
            for target in layer["wrap"]:
                tracing.install(target, layer["name"], tracer,
                                observers.get(target),
                                WORK_ARGS.get(target))
    out["setup_s"] = time.perf_counter() - T0 - calibration_s
    if tracer is not None:
        tracer.start()
    started = time.perf_counter()
    result = work.run()
    out["unit_s"] = time.perf_counter() - started
    service = None
    if tracer is not None:
        tracer.stop()
        if isinstance(work, Ingest):
            service = _service_metrics(work.scrape())
    work.finish(result, out)
    if tracer is not None:
        out["trace"] = _layer_report(tracer, out, service)
        tracer.dump(args.trace)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
