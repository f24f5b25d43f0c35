#!/usr/bin/env python3
"""Regenerate gjbench/pinned.json, the expected output digests.

    python3 gjbench/pin.py      # about 20 minutes on two cores

It pins every output of the smoke size at the default seeds, and of the
bench size at seeds 0-63 and the default seeds.  Each sweep is pinned from
a `--jobs 1` run; the timed `fig6_jobs2` passes must reproduce it.  Run it
only after a change that alters output bytes on purpose, and say why in
CHANGES.md.
"""

import json
import sys

import run as bench

BENCH_SEEDS = range(64)


def digests(workload: str, seed: int | None, size: str) -> tuple[str, dict]:
    """(pinned.json key, digests) of one unchecked run of `workload`."""
    run = bench.Run(workload, seed, size)
    run.pinned = None
    if workload in bench.SWEEPS:
        name, _ = bench.SWEEPS[workload]
        bench.cli_sweep(run, name, 1, bench.scenario_sets(run), "sweep")
    else:
        codec = bench.Codec(run)
        try:
            if codec.train() is not None:
                codec.roundtrip()
        finally:
            codec.close()
    if run.failed:
        sys.exit(f"gjbench: {workload} at seed {run.seed} failed; "
                 "nothing pinned")
    return f"{size}/{run.family}/{run.seed}", run.digests


def main() -> int:
    if not bench.prepare():
        return 2
    workloads = ("fig5_snr", "fig6_burst", "codec_roundtrip")
    plan = [(w, None, "smoke") for w in workloads]
    for w in workloads:
        default = bench.Run(w, None, "bench").seed
        plan += [(w, seed, "bench")
                 for seed in sorted({default, *BENCH_SEEDS})]
    table = {}
    for workload, seed, size in plan:
        key, value = digests(workload, seed, size)
        table[key] = value
        print(key, flush=True)
    (bench.BENCH / "pinned.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
