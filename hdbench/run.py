"""Hang Doctor benchmark: end-to-end and per-layer metrics per workload.

Usage (from the repository root)::

    python3 hdbench/run.py --workload fleet --seed 0 --seconds 25 --trace 0

Workloads, their parameters and the layer table live in
``hdbench/spec.json``; metric names, units and bounds in the root
``BENCHMARK.json``.  A run executes passes back to back, each one a
fresh process (``workpass.py``) so every pass is a cold start as a CLI
user sees it, until ``--seconds`` have elapsed, and reports medians.

``--trace 0`` runs the program unwrapped and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the traced ones; the untraced passes
give ``trace.overhead_x``.

Every pass is checked: its output digest must equal the one pinned in
``hdbench/pins.json`` for this workload and seed (or, for a seed with
no pin, the digest of a traced reference pass run first), its unit
count must match, the ingest snapshot must equal
``baseline_snapshot_json``, and no checkpoint may be restored.  A
traced run also requires identical layer call counts across its traced
passes and at least one call on every layer whose ``most_work_on`` is
this workload.  The last stdout line is one JSON object; the exit code
is 1 when any check failed and 2 when the run could not start.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: Fewest passes a run reports on, whatever ``--seconds`` says.
MIN_PASSES = 5
#: No new pass starts after this many seconds and no pass may take
#: longer than PASS_TIMEOUT_S, so a run always ends within 180 s.
LAST_START_S = 120.0
PASS_TIMEOUT_S = 40.0


class PassFailed(Exception):
    pass


def run_pass(workload, seed, trace, small=False):
    """Run one pass in a fresh process with a fresh state directory
    (*small* selects the reduced sizes the self-test uses)."""
    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    state_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    command = [sys.executable, str(BENCH / "workpass.py"), workload,
               str(seed), state_dir]
    if small:
        command.append("--small")
    if trace:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--trace", str(spans / f"{workload}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = state_dir
    # A fixed string-hash seed removes one source of pass-to-pass
    # timing variance (dict and set layouts); outputs never depend on it.
    env["PYTHONHASHSEED"] = "0"
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass timed out") from None
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PassFailed(
            f"{workload} pass exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def layer_metrics(spec, traced, untraced):
    """Per-layer values from the traced passes, by metric name.

    ``trace.wall_s`` and ``trace.overhead_x`` use probe-scaled times,
    like the end-to-end metrics (see :func:`end_to_end`).
    """
    first = traced[0]["trace"]
    values = {}
    for layer in spec["layers"]:
        name = layer["name"]
        values[f"{name}.calls"] = first["layers"][name]["calls"]
        if not layer["wrap"]:
            continue  # read from the program's own counters, no spans
        values[f"{name}.self_s"] = statistics.median(
            p["trace"]["layers"][name]["self_s"] for p in traced
        )
        values[f"{name}.share"] = statistics.median(
            p["trace"]["layers"][name]["self_s"] / p["trace"]["wall_s"]
            for p in traced
        )
    for key in first["extras"]:
        values[key] = statistics.median(
            p["trace"]["extras"][key] for p in traced
        )
    values["unattributed.share"] = statistics.median(
        1.0 - sum(v["self_s"] for v in p["trace"]["layers"].values())
        / p["trace"]["wall_s"]
        for p in traced
    )
    reference_s = spec["calibration"]["reference_s"]
    traced_wall = statistics.median(
        p["trace"]["wall_s"] * reference_s / p["probe_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_x"] = traced_wall / statistics.median(
        p["unit_s"] * reference_s / p["probe_s"] for p in untraced)
    return values


def trace_errors(spec, workload, traced, units):
    """The traced passes' repeatability and layer-coverage checks."""
    errors = []
    first = traced[0]["trace"]
    for other in traced[1:]:
        for name, layer in first["layers"].items():
            if other["trace"]["layers"][name]["calls"] != layer["calls"]:
                errors.append(f"{name}.calls differ between traced passes")
    for layer in spec["layers"]:
        if (layer["most_work_on"] == workload
                and first["layers"][layer["name"]]["calls"] == 0):
            errors.append(
                f"layer {layer['name']} recorded no calls on {workload}, "
                "where it should do most work"
            )
    if first["extras"]["checkpoint.journal.restores"]:
        errors.append("a checkpoint shard was restored")
    if workload != "ingest":
        for p in traced:
            if p["trace"]["units_traced"] != units:
                errors.append(
                    f"traced pass processed {p['trace']['units_traced']} "
                    f"actions, expected {units}"
                )
    return errors


def collect(workload, seed, seconds, trace, reference_first):
    """Run passes back to back until *seconds* have elapsed.

    Returns ``(untraced, traced, errors, failed_passes)``.  A traced
    run alternates untraced and traced passes; *reference_first* adds
    a traced pass up front, whose digest and unit count stand in for a
    missing pin.
    """
    untraced, traced, errors = [], [], []
    failed_passes = 0
    started = time.monotonic()

    def attempt(traced_pass):
        nonlocal failed_passes
        if time.monotonic() - started >= LAST_START_S:
            return
        try:
            result = run_pass(workload, seed, traced_pass)
        except PassFailed as error:
            failed_passes += 1
            errors.append(str(error))
            return
        errors.extend(result["errors"])
        (traced if traced_pass else untraced).append(result)

    if trace or reference_first:
        attempt(True)
    while True:
        attempt(False)
        if trace:
            attempt(True)
        elapsed = time.monotonic() - started
        if (elapsed >= seconds
                and len(untraced) + failed_passes >= MIN_PASSES) \
                or elapsed >= LAST_START_S:
            return untraced, traced, errors, failed_passes


def verify(workload, passes, digest, units, errors):
    """Check every pass against the expected digest and unit count.

    Returns ``(attempted, failed)`` operations; a pass with a wrong
    digest or a failed check fails every one of its operations.
    """
    attempted = failed = 0
    for result in passes:
        pass_units = result.get("attempted", units)
        attempted += pass_units
        if pass_units != units:
            errors.append(f"pass attempted {pass_units} units, "
                          f"expected {units}")
        if result["digest"] != digest:
            errors.append(f"digest {result['digest'][:12]} != expected "
                          f"{str(digest)[:12]}")
        if result["digest"] != digest or result["errors"]:
            failed += pass_units
        else:
            failed += result.get("failed", 0)
        if workload != "ingest":
            result["units"] = units
    return attempted, failed


def end_to_end(workload, untraced, reference_s, lines):
    """End-to-end values of the untraced passes (medians).

    Rates and set-up times are scaled pass by pass to the host speed at
    which the calibration probe takes *reference_s*; the raw medians
    are printed beside them.
    """
    quality = untraced[0].get("quality", {})
    if quality:
        lines.append("  quality (covered by the output digest): "
                     + ", ".join(f"{key}={value:.4g}"
                                 for key, value in quality.items()))
    if workload == "ingest":
        acks = [v for p in untraced for v in p["latencies_ms"]]
        lines.append(
            f"  ack_ms p50 {percentile(acks, 0.50):.3f}  p99 "
            f"{percentile(acks, 0.99):.3f}  ({len(acks)} samples, "
            f"{untraced[0]['connections']} connections, closed loop)"
        )
    lines.append(
        "  uncalibrated: units_per_s "
        f"{statistics.median(p['units'] / p['unit_s'] for p in untraced):.6g}"
        f", setup_s {statistics.median(p['setup_s'] for p in untraced):.4f}"
        f", probe_s {statistics.median(p['probe_s'] for p in untraced):.4f}"
    )
    return {
        "units_per_s": statistics.median(
            p["units"] / p["unit_s"] * p["probe_s"] / reference_s
            for p in untraced),
        "setup_s": statistics.median(
            p["setup_s"] * reference_s / p["probe_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }


def layer_table(spec, traced, values, lines):
    """The traced run's per-layer table."""
    lines.append(f"  {'layer':22s} {'calls':>9s} {'self_s':>9s} "
                 f"{'share':>7s}")
    for layer in spec["layers"]:
        name = layer["name"]
        timed = (f"{values[name + '.self_s']:9.4f} "
                 f"{values[name + '.share']:7.3f}"
                 if layer["wrap"] else f"{'-':>9s} {'-':>7s}")
        lines.append(f"  {name:22s} {values[name + '.calls']:9d} {timed}")
    for key in list(traced[0]["trace"]["extras"]) + [
            "unattributed.share", "trace.overhead_x", "trace.wall_s"]:
        lines.append(f"  {key:40s} {values[key]:.6g}")


def main():
    parser = argparse.ArgumentParser(
        description="Hang Doctor benchmark (see module docstring)"
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hdbench: no program under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((BENCH / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"hdbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((BENCH / "pins.json").read_text())
    workload, seed = args.workload, args.seed
    pin = pins.get(workload, {}).get(str(seed))

    untraced, traced, errors, failed_passes = collect(
        workload, seed, args.seconds, args.trace, pin is None)
    if pin is not None:
        digest, units = pin["digest"], pin["units"]
    elif traced:
        digest = traced[0]["digest"]
        units = traced[0].get("units", traced[0]["trace"]["units_traced"])
    else:
        digest, units = None, 0
    attempted, failed = verify(workload, untraced + traced, digest, units,
                               errors)
    attempted += failed_passes * units
    failed += failed_passes * units
    if args.trace and traced and untraced:
        errors.extend(trace_errors(spec, workload, traced, units))

    lines = [f"hdbench {workload} seed={seed}: {len(untraced)} untraced, "
             f"{len(traced)} traced pass(es), {units} units per pass"]
    metrics = {}
    if not untraced:
        errors.append("no untraced pass completed")
    else:
        values = end_to_end(workload, untraced,
                            spec["calibration"]["reference_s"], lines)
        selected = benchmark["end_to_end"]
        if args.trace:
            values = layer_metrics(spec, traced, untraced)
            selected = benchmark["per_layer"]
            layer_table(spec, traced, values, lines)
        for metric in selected:
            name = metric["name"]
            if name not in values:
                errors.append(f"metric {name} not measured")
                continue
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
            if not args.trace:
                lines.append(f"  {name:14s} {values[name]:14.6g} "
                             f"{metric['unit']:6s} ({len(untraced)} samples)")
    lines.extend(f"  ERROR: {error}" for error in errors)
    print("\n".join(lines))
    attempted = max(1, attempted)
    if errors and not failed:
        # A failed check voids every operation of the run.
        failed = attempted
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
