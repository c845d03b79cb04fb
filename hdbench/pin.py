"""Regenerate ``hdbench/pins.json``: output digests and unit counts.

Usage (from the repository root)::

    python3 hdbench/pin.py --seeds 0-15 [--workload fleet ...]

For every workload and seed this runs one untraced and one traced
pass, requires both to pass their own checks and to agree on the
digest and the unit count, and records ``{"digest", "units"}``.  Run
it only for a deliberate, documented change of the program's outputs:
the benchmark fails any pass whose digest differs from its pin.
"""

import argparse
import json
import sys

import run

PINS = run.BENCH / "pins.json"


def seed_range(text):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def pin_one(workload, seed):
    plain = run.run_pass(workload, seed, trace=False)
    traced = run.run_pass(workload, seed, trace=True)
    errors = plain["errors"] + traced["errors"]
    if plain["digest"] != traced["digest"]:
        errors.append("traced and untraced digests differ")
    units = plain.get("units", traced["trace"]["units_traced"])
    if workload != "ingest" and traced["trace"]["units_traced"] != units:
        errors.append("traced and untraced unit counts differ")
    if errors:
        raise SystemExit(f"{workload} seed {seed}: {'; '.join(errors)}")
    rate = units / plain["unit_s"]
    print(f"{workload} seed {seed}: {units} units, {rate:.0f}/s untraced",
          flush=True)
    return {"digest": plain["digest"], "units": units}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    spec = json.loads((run.BENCH / "spec.json").read_text())
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in args.workload or sorted(spec["workloads"]):
        entries = pins.setdefault(workload, {})
        for seed in args.seeds:
            entries[str(seed)] = pin_one(workload, seed)
        pins[workload] = dict(sorted(entries.items(),
                                     key=lambda kv: int(kv[0])))
    PINS.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
