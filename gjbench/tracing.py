"""Out-of-program tracing for the gjcodec benchmark.

`Tracer.install()` replaces public functions and methods of the gjcodec
modules with wrappers, in every gjcodec module that bound the original name
(``from .entropy import ac_decode`` makes a second binding in pipelines and
cli).  `uninstall()` restores them.  No program file changes.

Layer boundaries get spans: name, start, end, parent span and self time
(duration minus the part covered by child spans and timed counters).  The
three calls that run ~10^5 times per sweep (`coding_table`, `quantize_pmf`,
`update`) get counters only, so the overhead stays a small, reported share.
Redundancy counters key each call by a digest of its inputs and count the
calls whose key was already seen in the current pass.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.digest()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans plus counters, kept in memory for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, self_s)
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)
        self.samples: defaultdict = defaultdict(list)
        self._seen: defaultdict = defaultdict(set)
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def repeat(self, kind: str, key: bytes) -> None:
        """Count one call of `kind`, and a repeat if `key` was seen before."""
        self.counts[kind + ".keyed"] += 1
        if key in self._seen[kind]:
            self.counts[kind + ".repeats"] += 1
        else:
            self._seen[kind].add(key)

    def _span_wrapper(self, name, fn, after):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            start = _perf()
            stack.append([index, start, 0.0])
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = _perf()
                _, _, child = stack.pop()
                dur = end - start
                spans[index] = (name, start, end, parent, dur - child)
                if stack:
                    stack[-1][2] += dur
                if after is not None:
                    after(self, args, kwargs, result, exc, dur, dur - child)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_count_wrapper(self, name, fn):
        counts, totals, stack = self.counts, self.totals, self._stack

        def wrapper(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - start
                counts[name] += 1
                totals[name] += dt
                if stack:
                    stack[-1][2] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        """Bind `wrapper` wherever gjcodec bound owner.attr."""
        orig = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) else [
            m for n, m in sorted(sys.modules.items())
            if (n == "gjcodec" or n.startswith("gjcodec.")) and m is not None]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is orig:
                    self._patches.append((target, key, orig))
                    setattr(target, key, wrapper)

    def install(self) -> "Tracer":
        from gjcodec import (analog, channel, cli, concealment, context,
                             entropy, fec, metrics, pipelines, sources,
                             transform, vq)
        model = context._CountModel
        for owner, attr, name, after in (
                (model, "state_hash", "context.state_hash", None),
                (model, "copy", "context.copy", None),
                (context, "train", "context.train", None),
                (entropy, "ac_encode", "entropy.encode", _after_encode),
                (entropy, "ac_decode", "entropy.decode", _after_decode),
                (entropy, "sequence_cost_bits", "entropy.cost", None),
                (concealment, "conceal", "concealment", _after_conceal),
                (concealment, "marginal_fill", "concealment", _after_conceal),
                (fec, "fec_encode", "fec.encode", _after_fec_encode),
                (fec, "fec_decode", "fec.decode", _after_fec_decode),
                (vq, "vq_train", "vq.train", None),
                (vq, "vq_encode", "vq.encode", _after_vq_encode),
                (pipelines, "build_context", "pipelines.build_context", None),
                (pipelines, "run_record", "pipelines.record", _after_record),
                (pipelines, "sweep", "pipelines.sweep", None),
                (transform, "dct2", "transform.dct", None),
                (transform, "idct2", "transform.dct", None),
                (analog, "jscc_decode", "analog.decode", None),
                (channel, "awgn", "channel.draw", None),
                (channel, "gilbert_elliott", "channel.draw", None),
                (metrics, "compute_metrics", "metrics.compute", None),
                (sources, "ar1_field", "sources.generate", None),
                (sources, "load_pgm", "sources.pgm_io", None),
                (sources, "save_pgm", "sources.pgm_io", None),
                (cli, "_cmd_compress", "cli.compress", None),
                (cli, "_cmd_decompress", "cli.decompress", None)):
            self._replace(owner, attr,
                          self._span_wrapper(name, getattr(owner, attr), after))
        self._replace(model, "coding_table", self._count_wrapper(
            "context.coding_table", model.coding_table))
        self._replace(model, "update", self._count_wrapper(
            "context.update", model.update))
        self._replace(context, "quantize_pmf", self._timed_count_wrapper(
            "context.quantize_pmf", context.quantize_pmf))
        return self

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def by_name(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) over spans named `name`."""
        n = total = self_total = 0
        for span in self.spans:
            if span is not None and span[0] == name:
                n += 1
                total += span[2] - span[1]
                self_total += span[4]
        return n, total, self_total

    def span_records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "self_s": s[4]} for s in self.spans if s is not None]


# -- per-call hooks ----------------------------------------------------------
# Each gets (tracer, args, kwargs, result, exception, seconds, self seconds).


def _mode(args, kwargs) -> str:
    return "adaptive" if _arg(args, kwargs, 2, "adaptive", False) else "static"


def _after_encode(tr, args, kwargs, result, exc, dur, self_s):
    if exc is None:
        mode = _mode(args, kwargs)
        tr.counts["entropy.encode_symbols"] += result.n_symbols
        tr.counts[f"entropy.encode_symbols.{mode}"] += result.n_symbols
        tr.totals[f"entropy.encode_self_s.{mode}"] += self_s


def _after_decode(tr, args, kwargs, result, exc, dur, self_s):
    if exc is None:
        mode = _mode(args, kwargs)
        stream = _arg(args, kwargs, 0, "stream")
        tr.counts["entropy.decode_symbols"] += len(result)
        tr.counts[f"entropy.decode_symbols.{mode}"] += len(result)
        tr.totals[f"entropy.decode_self_s.{mode}"] += self_s
        tr.repeat("entropy.decode", _digest(mode, stream.to_bytes()))


def _after_conceal(tr, args, kwargs, result, exc, dur, self_s):
    grid = _arg(args, kwargs, 0, "grid")
    model = _arg(args, kwargs, 1, "model")
    schedule = _arg(args, kwargs, 2, "schedule", "marginal")
    tr.counts["concealment.cells"] += int(grid.missing.sum())
    tr.repeat("concealment", _digest(id(model), schedule, grid.tokens.shape,
                                     grid.tokens.tobytes(),
                                     grid.missing.tobytes()))


def _after_fec_encode(tr, args, kwargs, result, exc, dur, self_s):
    data = _arg(args, kwargs, 0, "data")
    r = _arg(args, kwargs, 1, "r")
    tr.counts["fec.encode_bytes"] += sum(len(p) for p in data)
    tr.repeat("fec.encode", _digest(r, *data))


def _after_fec_decode(tr, args, kwargs, result, exc, dur, self_s):
    from gjcodec.errors import FecDecodeError
    if exc is None:
        tr.counts["fec.decode_bytes"] += sum(len(p) for p in result)
    elif isinstance(exc, FecDecodeError):
        tr.counts["fec.decode_failed"] += 1


def _after_vq_encode(tr, args, kwargs, result, exc, dur, self_s):
    if exc is None:
        tr.counts["vq.encode_vectors"] += len(result)


def _after_record(tr, args, kwargs, result, exc, dur, self_s):
    ctx, scheme_idx = args[0], args[1]
    scheme = ctx.scenario["schemes"][scheme_idx]["scheme"]
    tr.samples[f"pipelines.record.{scheme}"].append(dur)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metric values from one traced pass (0 where a layer was not
    reached)."""
    c = tr.counts
    out = {}
    n, total, _ = tr.by_name("context.state_hash")
    out["context.state_hash_calls"] = n
    out["context.state_hash_s"] = total
    n, total, _ = tr.by_name("context.copy")
    out["context.copy_calls"] = n
    out["context.copy_s"] = total
    out["context.coding_table_calls"] = c["context.coding_table"]
    out["context.quantize_pmf_calls"] = c["context.quantize_pmf"]
    out["context.quantize_pmf_s"] = tr.totals["context.quantize_pmf"]
    out["context.table_hit_frac"] = (
        1.0 - _ratio(c["context.quantize_pmf"], c["context.coding_table"])
        if c["context.coding_table"] else 0.0)
    out["context.update_calls"] = c["context.update"]
    out["context.train_s"] = tr.by_name("context.train")[1]

    for op in ("encode", "decode"):
        n, _, self_s = tr.by_name(f"entropy.{op}")
        syms = c[f"entropy.{op}_symbols"]
        out[f"entropy.{op}_calls"] = n
        out[f"entropy.{op}_symbols"] = syms
        out[f"entropy.{op}_self_s"] = self_s
        out[f"entropy.{op}_sym_per_s"] = _ratio(syms, self_s)
    for op in ("encode", "decode"):
        for mode in ("adaptive", "static"):
            out[f"entropy.{op}_sym_per_s.{mode}"] = _ratio(
                c[f"entropy.{op}_symbols.{mode}"],
                tr.totals[f"entropy.{op}_self_s.{mode}"])
    out["entropy.cost_s"] = tr.by_name("entropy.cost")[1]
    out["entropy.decode_repeat_frac"] = _ratio(
        c["entropy.decode.repeats"], c["entropy.decode.keyed"])

    n, total, _ = tr.by_name("concealment")
    out["concealment.calls"] = n
    out["concealment.cells_filled"] = c["concealment.cells"]
    out["concealment.s"] = total
    out["concealment.cells_per_s"] = _ratio(c["concealment.cells"], total)
    out["concealment.repeat_frac"] = _ratio(
        c["concealment.repeats"], c["concealment.keyed"])

    n, total, _ = tr.by_name("fec.encode")
    out["fec.encode_calls"] = n
    out["fec.encode_mb_per_s"] = _ratio(c["fec.encode_bytes"], total) / 1e6
    n, total, _ = tr.by_name("fec.decode")
    out["fec.decode_calls"] = n
    out["fec.decode_mb_per_s"] = _ratio(c["fec.decode_bytes"], total) / 1e6
    out["fec.decode_failed_frac"] = _ratio(c["fec.decode_failed"], n)
    out["fec.encode_repeat_frac"] = _ratio(
        c["fec.encode.repeats"], c["fec.encode.keyed"])

    n, total, _ = tr.by_name("vq.train")
    out["vq.train_calls"] = n
    out["vq.train_s"] = total
    out["vq.encode_vectors"] = c["vq.encode_vectors"]
    out["vq.encode_s"] = tr.by_name("vq.encode")[1]

    out["pipelines.build_context_s"] = tr.by_name("pipelines.build_context")[1]
    for scheme in ("weak_jscc", "digital_separate", "analog_jscc"):
        times = tr.samples[f"pipelines.record.{scheme}"]
        out[f"pipelines.record_s.{scheme}"] = (
            statistics.median(times) if times else 0.0)

    out["transform.dct_s"] = tr.by_name("transform.dct")[1]
    n, total, _ = tr.by_name("analog.decode")
    out["analog.decode_calls"] = n
    out["analog.decode_s"] = total
    n, total, _ = tr.by_name("channel.draw")
    out["channel.draws"] = n
    out["channel.s"] = total
    out["metrics.compute_s"] = tr.by_name("metrics.compute")[1]
    out["sources.generate_s"] = tr.by_name("sources.generate")[1]
    out["sources.pgm_io_s"] = tr.by_name("sources.pgm_io")[1]
    out["cli.compress_self_s"] = tr.by_name("cli.compress")[2]
    out["cli.decompress_self_s"] = tr.by_name("cli.decompress")[2]
    return out
