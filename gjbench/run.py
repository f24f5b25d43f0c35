#!/usr/bin/env python3
"""gjcodec benchmark: sweeps and codec round-trips, timed end to end.

Run from the root of a checkout:

    python3 gjbench/run.py --workload fig6_burst --seed 3 --seconds 10 --trace 0
    python3 gjbench/run.py --workload all --size smoke --seconds 1 --trace 1

Workloads (see BENCHMARK.json for why each exists):

  fig5_snr         bundled fig5 SNR sweep, `gjcodec sweep --jobs 1`
  fig6_burst       bundled fig6 burst-loss sweep, `gjcodec sweep --jobs 1`
  fig6_jobs2       the same fig6 sweep with `--jobs 2`: the spawn pool
  codec_roundtrip  `gjcodec compress`/`decompress` through cli.main on a
                   synthetic PGM, adaptive and static (train-model) coding

Each workload is a closed loop driven by one process: the next operation
starts when the previous one returned.  A sweep pass is a fresh
`python -m gjcodec.cli sweep` process, so it pays import and training as a
user does on every run.  `--seed` becomes the scenario `seed` of a
sweep (via `--set`) and generates the codec image and training corpus; the
program only sees the generated inputs.  Every output is checked: against
pinned SHA-256 digests (pinned.json) at the default seeds, and otherwise by
consistency (every pass gives the same bytes, the set-up run's rows appear
in the sweep CSV, jobs=1 and jobs=2 agree, decompress reproduces the
encoder's reconstruction).

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of one traced pass (tracing.py)
plus the tracing overhead against an untraced pass.  Scratch files go to
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SWEEPS = {"fig5_snr": ("fig5", 1), "fig6_burst": ("fig6", 1),
          "fig6_jobs2": ("fig6", 2)}
WORKLOADS = (*SWEEPS, "codec_roundtrip")
DEFAULT_SEED = {"fig5": 11, "fig6": 4096, "codec": 7}

# Scenario overrides and codec input sizes per benchmark size.  "bench" is
# sized so that 4 + 22 x 4 runs (three fresh-process set-ups plus ~12 s of
# passes each) fit in one hour on two cores; "smoke" checks the harness end
# to end in seconds.
SIZES = {
    "smoke": {"sets": ["num_seeds=1", "train.images=1"], "side": 32,
              "corpus": 1, "setup_reps": 1},
    "bench": {"sets": ["num_seeds=3", "train.images=2"], "side": 128,
              "corpus": 2, "setup_reps": 3},
}
CODEC_STEP, CODEC_ALPHABET, CODEC_ORDER = 16, 256, 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PROCESS_TIMEOUT_S = 120


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cpu_seconds() -> float:
    """User+sys CPU of this process so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    return me.ru_utime + me.ru_stime


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sample_hwm(root: int, hwm: dict) -> None:
    """Record the RSS high-water mark (kB) of `root` and its descendants."""
    stack = [root]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        hwm[pid] = max(hwm.get(pid, 0), int(line.split()[1]))
                        break
            with open(f"/proc/{pid}/task/{pid}/children") as fh:
                stack.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue


def cli_process(argv: list[str]) -> tuple[float, float, float]:
    """Run `python -m gjcodec.cli ARGV` in a fresh process, as a user would.

    Returns (wall s, user+sys CPU s of the process and the pool workers it
    reaped, peak RSS MB).  The peak sums each process's high-water mark,
    sampled every 20 ms, so with a pool it bounds the concurrent peak from
    above.  Raises RuntimeError on a non-zero exit or a timeout.
    """
    import threading
    env = dict(os.environ, PYTHONPATH=str(SRC))
    WORK.mkdir(exist_ok=True)
    err_path = WORK / f"stderr-{os.getpid()}.txt"
    hwm: dict = {}
    done = threading.Event()
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gjcodec.cli", *argv],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)

        def sample():
            while not done.wait(0.02):
                _sample_hwm(proc.pid, hwm)
        sampler = threading.Thread(target=sample)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        sampler.start()
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            killer.cancel()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace").strip()
    err_path.unlink()
    if proc.returncode != 0:
        raise RuntimeError(f"gjcodec {argv[0]} exited {proc.returncode}: "
                           f"{message}")
    peak_kb = max(usage.ru_maxrss, sum(hwm.values()))
    return wall, usage.ru_utime + usage.ru_stime, peak_kb / 1024.0


class Run:
    """Attempted/failed bookkeeping shared by every workload."""

    def __init__(self, workload: str, seed: int | None, size: str):
        self.workload, self.size = workload, size
        self.seed = DEFAULT_SEED[self.family] if seed is None else seed
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        pinned = json.loads((BENCH / "pinned.json").read_text())
        self.pinned = pinned.get(f"{size}/{self.family}/{self.seed}")

    @property
    def family(self) -> str:
        return SWEEPS[self.workload][0] if self.workload in SWEEPS else "codec"

    def op(self, label: str, fn, *args) -> tuple[bool, object]:
        """Run one operation and count it: (True, result), or (False, None)
        after counting it failed when it raised."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:
            self.failed += 1
            print(f"gjbench: {label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False, None

    def check(self, label: str, name: str, digest: str) -> bool:
        """Compare an output digest with the pinned one (default seed) or
        with the first digest of the same output in this run."""
        want = (self.pinned or {}).get(name) or self.digests.get(name)
        self.digests.setdefault(name, digest)
        if want is not None and want != digest:
            self.failed += 1
            print(f"gjbench: {label}: {name} digest {digest} != expected "
                  f"{want}", file=sys.stderr)
            return False
        return True

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"gjbench: {label}: {why}", file=sys.stderr)


# ---------------------------------------------------------------------------
# sweeps


def scenario_sets(run: Run) -> list[str]:
    return [f"seed={run.seed}", *SIZES[run.size]["sets"]]


def load_scenario(name: str, sets: list[str]) -> dict:
    """Bundled scenario with `--set`-style dotted overrides applied."""
    path = SRC / "gjcodec" / "scenarios" / f"{name}.json"
    scn = json.loads(path.read_text(encoding="utf-8"))
    for item in sets:
        key, raw = item.split("=", 1)
        node = scn
        *parents, leaf = key.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = json.loads(raw)
    return scn


def sweep_csv(scn: dict) -> str:
    from gjcodec import pipelines
    return pipelines.records_to_csv(pipelines.sweep(scn, jobs=1))


def checked_sweep(run: Run, scn: dict, label: str) -> str | None:
    """One checked in-process jobs=1 sweep (traced runs): its CSV or None."""
    ok, csv = run.op(label, sweep_csv, scn)
    if not ok or not run.check(label, "csv", sha256(csv.encode())):
        return None
    return csv


def cli_sweep(run: Run, name: str, jobs: int, sets: list[str], label: str,
              digest: str | None = "csv"):
    """One `gjcodec sweep` in a fresh process: (wall, cpu, peak, csv) or
    None.  The CSV digest is checked under the name `digest`."""
    out = WORK / f"sweep-{os.getpid()}.csv"
    argv = ["sweep", "--scenario", name, "--jobs", str(jobs),
            "--output", str(out)]
    for item in sets:
        argv += ["--set", item]
    ok, res = run.op(label, cli_process, argv)
    if not ok:
        return None
    csv = out.read_text(encoding="ascii")
    out.unlink()
    if digest and not run.check(label, digest, sha256(csv.encode())):
        return None
    return (*res, csv)


def first_condition_sets(run: Run, name: str) -> list[str]:
    """Overrides that cut a sweep down to its first result per scheme."""
    first = load_scenario(name, [])["conditions"]["values"][0]
    return [*scenario_sets(run), "num_seeds=1", f"conditions.values=[{first}]"]


def interleave(seconds: float, reps: int, setup, one_pass):
    """Closed loop of set-ups and passes in turn (set-up first) until `reps`
    set-ups ran and the passes took `seconds`, with at least one pass.
    Spreading both over the whole run evens out slow drifts in machine
    speed.  Stops at the first failure; returns (set-up seconds, passes)."""
    setups, passes = [], []
    while (len(setups) < reps or not passes
           or sum(p["wall_s"] for p in passes) < seconds):
        if len(setups) < reps and len(setups) <= len(passes):
            elapsed = setup()
            if elapsed is None:
                break
            setups.append(elapsed)
        else:
            result = one_pass()
            if result is None:
                break
            passes.append(result)
    return setups, passes


def summarize(setups: list, passes: list) -> dict:
    """Medians over the passes and set-ups of one run."""
    if not setups or not passes:
        return {}
    out = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    out.update(setup_s=statistics.median(setups), passes=len(passes),
               pass_wall_s=[p["wall_s"] for p in passes], setup_runs_s=setups)
    return out


def measure_sweep(run: Run, seconds: float) -> dict:
    name, jobs = SWEEPS[run.workload]
    sets, setup_sets = scenario_sets(run), first_condition_sets(run, name)
    setup_rows, csvs = [], []

    def setup():
        res = cli_sweep(run, name, jobs, setup_sets, "set-up", digest=None)
        if res is None:
            return None
        setup_rows.extend(res[3].splitlines()[1:])
        return res[0]

    def one_pass():
        res = cli_sweep(run, name, jobs, sets, "sweep pass")
        if res is None:
            return None
        csvs.append(res[3])
        return {"wall_s": res[0], "cpu_s": res[1], "peak_rss_mb": res[2]}

    if jobs > 1 and run.pinned is None:
        # No pinned digest at this seed: a serial sweep sets the expected
        # CSV, so the parallel passes must reproduce the jobs=1 bytes.
        if cli_sweep(run, name, 1, sets, "jobs=1 reference") is None:
            return {}
    setups, passes = interleave(seconds, SIZES[run.size]["setup_reps"],
                                setup, one_pass)
    if csvs and not set(setup_rows) <= set(csvs[0].splitlines()):
        run.fail("set-up", "first-condition rows differ from the sweep CSV")
    print(f"# {run.workload}: csv sha256 {run.digests.get('csv')} "
          f"({len(csvs[0].splitlines()) - 1 if csvs else 0} records)")
    values = summarize(setups, passes)
    if values:
        values["sweep_s"] = values["wall_s"]
    return values


# ---------------------------------------------------------------------------
# codec round-trip


def synthetic_image(seed: int, index: int, side: int):
    """Smooth AR(1)-like 8-bit field plus fine noise, from (seed, index)."""
    import numpy as np
    rng = np.random.default_rng([seed, index])
    pad, rho = 32, 0.95
    f = rng.normal(size=(side + pad, side + pad))
    gain = (1.0 - rho * rho) ** 0.5
    for axis in (0, 1):
        f = np.moveaxis(f, axis, 0).copy()
        f[0] *= 1.0 / gain
        for i in range(1, f.shape[0]):
            f[i] = rho * f[i - 1] + f[i]
        f = np.moveaxis(f * gain, 0, axis)
    img = 120.0 + 40.0 * f[pad:, pad:] + rng.normal(0.0, 3.0, (side, side))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def write_pgm(path: Path, pixels) -> None:
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + pixels.tobytes())


def cli_call(argv: list[str]) -> None:
    from gjcodec import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"gjcodec {argv[0]} exited {rc}: {err.getvalue()}")


class Codec:
    """Inputs, commands and checks of the codec_roundtrip workload."""

    def __init__(self, run: Run):
        cfg = SIZES[run.size]
        self.run = run
        self.dir = WORK / f"codec-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.image = self.dir / "image.pgm"
        pixels = synthetic_image(run.seed, 0, cfg["side"])
        write_pgm(self.image, pixels)
        self.pixels = pixels.size
        self.corpus = [self.dir / f"corpus{i}.pgm" for i in range(cfg["corpus"])]
        for i, path in enumerate(self.corpus, start=1):
            write_pgm(path, synthetic_image(run.seed, i, cfg["side"]))
        self.model = self.dir / "model.gjm"
        self.expected = self._encoder_reconstruction()

    def _encoder_reconstruction(self) -> bytes:
        """What the encoder reconstructs: dequantized symbols, no coding."""
        from gjcodec import pipelines, sources
        img = sources.load_pgm(self.image)
        syms = pipelines.digital_symbols(img, CODEC_STEP, CODEC_ALPHABET)
        rec = pipelines.digital_image(syms, img.height, img.width, CODEC_STEP,
                                      CODEC_ALPHABET)
        return rec.samples.tobytes()

    def train(self) -> float | None:
        argv = ["train-model", *map(str, self.corpus), "--kind", "causal",
                "--order", str(CODEC_ORDER), "--output", str(self.model)]
        t0 = time.perf_counter()
        ok, _ = self.run.op("train-model", cli_call, argv)
        elapsed = time.perf_counter() - t0
        if not ok or not self.run.check("train-model", "model.gjm",
                                        sha256(self.model.read_bytes())):
            return None
        return elapsed

    def roundtrip(self) -> dict | None:
        """Adaptive then static compress/decompress; seconds per direction."""
        times = {"compress": 0.0, "decompress": 0.0}
        model = ["--model", str(self.model)]
        for mode, coding, decoding in (
                ("adaptive", ["--alphabet", str(CODEC_ALPHABET),
                              "--order", str(CODEC_ORDER)], []),
                ("static", model, model)):
            gjc = self.dir / f"{mode}.gjc"
            out = self.dir / f"{mode}.pgm"
            for direction, argv, product in (
                    ("compress", ["compress", "--input", str(self.image),
                                  "--output", str(gjc), "--step",
                                  str(CODEC_STEP), *coding], gjc),
                    ("decompress", ["decompress", "--input", str(gjc),
                                    "--output", str(out), *decoding], out)):
                label = f"{direction} {mode}"
                product.unlink(missing_ok=True)
                t0 = time.perf_counter()
                ok, _ = self.run.op(label, cli_call, argv)
                times[direction] += time.perf_counter() - t0
                digest = sha256(product.read_bytes()) if ok else None
                if not ok or not self.run.check(label, product.name, digest):
                    return None
            restored = out.read_bytes()[-self.pixels:]
            if restored != self.expected:
                self.run.fail(f"decompress {mode}",
                              "restored image differs from the encoder's "
                              "reconstruction")
                return None
        return times

    def close(self) -> None:
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()


def measure_codec(run: Run, seconds: float) -> dict:
    codec = Codec(run)

    def one_pass():
        cpu0 = cpu_seconds()
        times = codec.roundtrip()
        if times is None:
            return None
        return {"wall_s": times["compress"] + times["decompress"],
                "cpu_s": cpu_seconds() - cpu0,
                "compress_mpix_s": 2 * codec.pixels / times["compress"] / 1e6,
                "decompress_mpix_s":
                    2 * codec.pixels / times["decompress"] / 1e6}

    try:
        setups, passes = interleave(seconds, SIZES[run.size]["setup_reps"],
                                    codec.train, one_pass)
    finally:
        codec.close()
    print(f"# codec_roundtrip: output sha256 {json.dumps(run.digests)}")
    values = summarize(setups, passes)
    if values:
        values["peak_rss_mb"] = self_peak_mb()
    return values


# ---------------------------------------------------------------------------
# traced run


def traced_pass(fn):
    """(result, wall seconds, per-layer metrics, spans) of fn() traced."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return result, wall, layer_metrics(tracer), tracer.span_records()


def trace_parallel(run: Run, name: str, jobs: int) -> dict:
    """Sweep-level numbers of a parallel workload from a serial and a
    parallel CLI pass, both checked against the same CSV digest.  The
    wrappers do not reach spawned workers, so every layer metric but the
    record count and the parallel efficiency is 0, tracing overhead too."""
    from tracing import Tracer, layer_metrics
    serial = cli_sweep(run, name, 1, scenario_sets(run), "jobs=1 pass")
    parallel = cli_sweep(run, name, jobs, scenario_sets(run),
                         f"jobs={jobs} pass")
    if serial is None or parallel is None:
        return {}
    print(f"# {run.workload}: layer calls run in spawned workers and are not "
          "traced; only sweep-level metrics are reported")
    layers = layer_metrics(Tracer())
    layers.update({"pipelines.records": len(parallel[3].splitlines()) - 1,
                   "pipelines.parallel_efficiency":
                       serial[0] / (jobs * parallel[0]),
                   "trace.overhead_s": 0.0, "trace.overhead_frac": 0.0,
                   "trace.spans": 0})
    return layers


def trace_workload(run: Run) -> dict:
    """A warm-up pass, an untraced pass and a traced pass in one process;
    per-layer metrics of the traced one, overhead against the untraced."""
    codec = None
    if run.workload in SWEEPS:
        name, jobs = SWEEPS[run.workload]
        if jobs > 1:
            return trace_parallel(run, name, jobs)
        scn = load_scenario(name, scenario_sets(run))

        def body():
            csv = checked_sweep(run, scn, "sweep pass")
            return None if csv is None else len(csv.splitlines()) - 1
    else:
        codec = Codec(run)

        def body():
            ok = codec.train() is not None and codec.roundtrip() is not None
            return 0 if ok else None
    try:
        if body() is None:
            return {}
        t0 = time.perf_counter()
        if body() is None:
            return {}
        base_wall = time.perf_counter() - t0
        records, wall, layers, spans = traced_pass(body)
    finally:
        if codec is not None:
            codec.close()
    if records is None:
        return {}
    layers["pipelines.records"] = records
    layers["pipelines.parallel_efficiency"] = 0.0
    layers["trace.overhead_s"] = wall - base_wall
    layers["trace.overhead_frac"] = (wall - base_wall) / base_wall
    layers["trace.spans"] = len(spans)
    WORK.mkdir(exist_ok=True)
    (WORK / f"spans-{run.workload}-{run.seed}.json").write_text(
        json.dumps(spans))
    return layers


# ---------------------------------------------------------------------------
# entry point


def env_record(run: Run) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads_per_process": int(os.environ["OMP_NUM_THREADS"]),
            "workload": run.workload, "seed": run.seed, "size": run.size}


def run_one(args) -> int:
    run = Run(args.workload, args.seed, args.size)
    env = env_record(run)
    if args.trace:
        values = trace_workload(run)
    else:
        measure = measure_sweep if args.workload in SWEEPS else measure_codec
        values = measure(run, args.seconds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer" if args.trace else "end_to_end"]
    correct = run.failed == 0 and all(m["name"] in values for m in spec)
    summary = {k: v for k, v in values.items()
               if k not in {m["name"] for m in spec}}
    summary["error_rate"] = run.failed / max(1, run.attempted)
    print("# env " + json.dumps(env))
    print("# extra " + json.dumps(summary))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec if m["name"] in values}
    result = {"correct": correct, "attempted": max(1, run.attempted),
              "failed": run.failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-{run.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "extra": summary,
                    "digests": run.digests}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; one JSON line per workload
    and a combined last line."""
    combined, status = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        print(f"{workload}: {lines[-1] if lines else '(no result)'}")
        combined[workload] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode or (not lines)
    print(json.dumps(combined))
    return int(status)


def prepare() -> bool:
    """Cap threads and put the gjcodec sources on the path; False when the
    checkout holds no gjcodec sources."""
    if not (SRC / "gjcodec" / "__init__.py").is_file():
        print(f"gjbench: no gjcodec sources under {SRC}", file=sys.stderr)
        return False
    # One BLAS/OpenMP thread per process: with jobs=2 the two workers use
    # both cores, and serial passes never oversubscribe the machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int,
                    help="workload seed (default: the scenario's own seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long to repeat passes (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="bench")
    args = ap.parse_args(argv)
    if not prepare():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
