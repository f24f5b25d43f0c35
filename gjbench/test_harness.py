"""Smoke test of the benchmark harness itself.

Runs every workload at `--size smoke`, untraced at the default seeds (so the
pinned digests are checked) and traced at another seed (so jobs=1 vs jobs=2
and decompress vs encoder reconstruction are checked).  Run with

    python3 -m pytest -q gjbench/test_harness.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--size", "smoke", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_default_seeds_report_every_end_to_end_metric():
    names = {m["name"] for m in SPEC["end_to_end"]}
    results = run_all("--trace", "0")
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for res in results.values():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == names
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    results = run_all("--trace", "1", "--seed", "5")
    for res in results.values():
        assert res["correct"] and set(res["metrics"]) == names
    value = {w: {k: m["value"] for k, m in res["metrics"].items()}
             for w, res in results.items()}
    assert value["fig6_burst"]["entropy.decode_calls"] > 0
    assert value["fig6_burst"]["fec.decode_calls"] > 0
    assert value["fig5_snr"]["analog.decode_calls"] > 0
    assert value["fig5_snr"]["concealment.cells_filled"] > 0
    assert value["fig6_jobs2"]["pipelines.parallel_efficiency"] > 0
    assert value["codec_roundtrip"]["entropy.encode_sym_per_s.static"] > 0
    assert value["codec_roundtrip"]["cli.decompress_self_s"] > 0
