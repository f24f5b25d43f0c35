"""End-to-end transmission pipelines and sweep orchestration.

Three schemes over a shared channel budget:

- digital_separate: DCT + scalar quantization + adaptive context coding,
  sent at the modulation/coding point picked from an SNR estimate.  Above
  the threshold it decodes perfectly; below it the whole payload is lost
  (classic cliff).  Under packet loss it is protected by erasure FEC
  provisioned from a monitoring window.
- weak_jscc: vector-quantized tokens, packetized with a diagonal stride and
  entropy coded per packet; lost packets are concealed from the shared
  neighborhood model, so quality degrades smoothly instead of collapsing.
- analog_jscc: linear analog coefficient transmission (no entropy coding,
  no threshold at all).

A scenario is a plain JSON dict; `sweep` expands schemes x conditions x
trials into metric records and `records_to_csv` renders the fixed column
set.  All randomness is drawn from per-record seeds derived by hashing
(scenario seed, condition index, trial index), so results are reproducible
record by record regardless of execution order.

`build_context` takes a scenario that `validate_scenario` returned and does
all work that does not depend on a record's channel draw, once, and keeps
it in two maps of the context: `artifacts`, each under (scheme, its
artifact fields), and `records`, every record whose runner draws no
randomness (digital and weak JSCC under snr_db) under (scheme index,
condition index), repeated for each trial with its own `seed`.  An
artifact is a digital stream, its decoded image and, under
loss conditions, its FEC block, encoded once with every parity packet a
block can hold; a weak-JSCC codebook, models and packets, each packet
decoded and verified once; or an analog code.  No artifact reads another
scheme entry than its own.  After the build, the context and its models
are only read: a record looks its shared work up and builds none of it.
`sweep` runs one share of the records in its own process and forks a
child for each other share, so the children inherit everything.  With
`jobs` = 1 there is one share and no child.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import NamedTuple

import numpy as np

from . import analog as _analog
from . import channel as _channel
from . import concealment as _conceal
from . import fec as _fec
from .context import CausalContextModel, NeighborhoodModel, train
from .entropy import ac_decode, ac_encode
from .errors import (ConfigError, CorruptStreamError, FecDecodeError,
                     ParameterError, existing_input)
from .kernels import load_kernel
from .metrics import compute_metrics
from .scenario import check_tile, validate_scenario
from .sources import ImageGrid, ar1_field, load_pgm
from .transform import (BLOCK, block_coefficients, block_pixels, merge_blocks,
                        split_blocks, sq_dequantize, sq_quantize,
                        symbol_to_signed, signed_to_symbol)
from .vq import (Codebook, assemble_patches, extract_patches, tokenize,
                 vq_decode, vq_train)

CSV_COLUMNS = ("scheme", "condition", "seed", "bpp", "bandwidth_ratio", "mse",
               "psnr", "decode_failed", "mcs_index", "fec_r",
               "realized_loss_rate")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from hashed identifiers.

    Per-record seeds hash (scenario seed, condition index, trial index) but
    not the scheme label, so schemes facing the same condition and trial see
    the same channel realization — a paired comparison.
    """
    tag = "|".join(str(p) for p in parts).encode("ascii")
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# Shared per-scenario state


# The call scipy.ndimage.zoom(base, upsample, order=1, mode="nearest",
# grid_mode=True) makes: zoom_shift(input, zoom, shift, output, order, mode
# ("nearest" is 0), cval, prefilter pad, grid_mode), with zoom the input
# over the output shape.
def _zoom(kernel, base: np.ndarray, out: np.ndarray) -> None:
    zoom = np.array(base.shape) / np.array(out.shape)
    kernel.zoom_shift(base, zoom, None, out, 1, 0, 0.0, 0, True)


def _zoom_probe(kernel) -> tuple[np.ndarray, list[float]]:
    """A fixed 2x2 block zoomed to 4x4, and its linear interpolation in
    closed form, in row order: output cell i samples the input at
    i / 2 - 1/4, clamped to the edge cells."""
    base = [[1.0, 2.0], [4.0, 8.0]]
    out = np.zeros((4, 4))
    _zoom(kernel, np.array(base), out)
    m = ((1.0, 0.0), (0.75, 0.25), (0.25, 0.75), (0.0, 1.0))
    return out, [sum(a[i] * base[i][j] * b[j] for i in (0, 1) for j in (0, 1))
                 for a in m for b in m]


_nd_image = load_kernel("ndimage._nd_image", _zoom_probe)


def _ar1_layer(height: int, width: int, rho: float, upsample: int,
               seed: int) -> np.ndarray:
    """Unit-variance AR(1) field; upsample > 1 generates the field at a
    coarser grid and interpolates, concentrating energy below that scale."""
    if upsample == 1:
        return ar1_field(height, width, rho, seed)
    base = ar1_field(height // upsample, width // upsample, rho, seed)
    out = np.zeros((height, width))
    _zoom(_nd_image, base, out)
    return out


def _ar1_textured(height: int, width: int, params: dict, seed: int) -> ImageGrid:
    """AR(1) field in pixel units, optionally plus an independent
    finer-scale texture layer (params["texture"]).  With texture.bandpass
    the texture keeps only its within-block detail (per-8x8-block means
    removed), leaving the large-scale structure to the base layer."""
    field_ = params["sigma"] * _ar1_layer(height, width, params["rho"],
                                          params.get("upsample", 1), seed)
    tex = params.get("texture")
    if tex is not None:
        tex_field = tex["sigma"] * _ar1_layer(
            height, width, tex["rho"], tex.get("upsample", 1),
            derive_seed(seed, "texture"))
        if tex.get("bandpass"):
            tb = split_blocks(tex_field)
            tb -= tb.mean(axis=(-2, -1), keepdims=True)
            tex_field = merge_blocks(tb, height, width)
        field_ = field_ + tex_field
    return ImageGrid.from_float(field_ + params["mean"])


@dataclasses.dataclass
class WeakCode:
    """Cached token-domain encoding of the scenario source.

    Every packet stream is entropy-decoded once when the code is built,
    against the trained causal model (so the model-hash check runs), and
    must give back exactly the packet's cells of `tokens`.  A record
    therefore places the delivered packets' cells from `tokens` instead of
    decoding them again.
    """

    codebook: Codebook
    neighbor: NeighborhoodModel
    tokens: np.ndarray
    assignment: np.ndarray  # packet of each token cell
    streams: list


@dataclasses.dataclass
class SweepContext:
    """Everything shared across the records of one scenario.  `artifacts`
    and `records` hold what `build_context` built, under the keys of the
    module docstring."""

    scenario: dict
    image: ImageGrid
    budget_symbols: int
    artifacts: dict = dataclasses.field(default_factory=dict)
    records: dict = dataclasses.field(default_factory=dict)


def _artifact_key(sp: dict) -> tuple:
    artifact = _SCHEMES[sp["scheme"]].artifact
    return (sp["scheme"], *(sp[name] for name in artifact))


def _artifact(ctx: SweepContext, sp: dict):
    """The scheme's artifact for `sp`."""
    return ctx.artifacts[_artifact_key(sp)]


# ---------------------------------------------------------------------------
# Digital source coding (shared by both digital condition kinds)


def _dc_predict(idx: np.ndarray) -> np.ndarray:
    """Neighbour prediction of the quantized DC plane: mean of the blocks
    above and to the left (plain copy along the edges)."""
    pred = np.zeros_like(idx)
    pred[0, 1:] = idx[0, :-1]
    pred[1:, 0] = idx[:-1, 0]
    pred[1:, 1:] = (idx[:-1, 1:] + idx[1:, :-1]) // 2
    return pred


def digital_symbols(image: ImageGrid, step: float, alphabet: int) -> np.ndarray:
    """DCT -> quantize -> fold to unsigned symbols.

    The per-block DC level is coded as the residual of a two-neighbour
    (up/left) prediction over the quantized DC plane, and the whole DC
    plane is sent ahead of the AC coefficients: DC residuals then share
    contexts with other DC residuals instead of sitting isolated inside
    long runs of zero ACs."""
    q = sq_quantize(
        block_coefficients(image.samples.astype(np.float64) - 128.0), step)
    shape = (image.height // BLOCK, image.width // BLOCK)
    dc = q[:, 0].reshape(shape)
    q[:, 0] = (dc - _dc_predict(dc)).ravel()
    folded = signed_to_symbol(q, alphabet)
    return np.concatenate([folded[:, 0], folded[:, 1:].ravel()])


def digital_image(symbols: np.ndarray, height: int, width: int, step: float,
                  alphabet: int) -> ImageGrid:
    rows, cols = height // BLOCK, width // BLOCK
    num_blocks = rows * cols
    flat = np.asarray(symbols)
    folded = np.empty((num_blocks, BLOCK * BLOCK), dtype=flat.dtype)
    folded[:, 0] = flat[:num_blocks]
    folded[:, 1:] = flat[num_blocks:].reshape(num_blocks, BLOCK * BLOCK - 1)
    q = symbol_to_signed(folded)
    res = q[:, 0].reshape(rows, cols)
    dc = np.zeros_like(res)
    diagonal = np.add.outer(np.arange(rows), np.arange(cols))
    for d in range(rows + cols - 1):
        # a block's prediction reads only blocks of the previous anti-diagonal
        on = diagonal == d
        dc[on] = res[on] + _dc_predict(dc)[on]
    q[:, 0] = dc.ravel()
    pix = block_pixels(sq_dequantize(q, step), height, width) + 128.0
    return ImageGrid.from_float(pix)


def _verified_stream(symbols: np.ndarray, model: CausalContextModel,
                     what: str):
    """The adaptive stream of `symbols`, decoded once: a stream that does
    not decode to them raises CorruptStreamError."""
    stream = ac_encode(symbols, model, adaptive=True)
    if not np.array_equal(ac_decode(stream, model, adaptive=True), symbols):
        raise CorruptStreamError(f"{what} does not decode to its symbols")
    return stream


def _build_digital(ctx: SweepContext, sp: dict):
    """(adaptive stream of the source, the image it decodes to, the FEC
    block of its payload under loss conditions or else None)."""
    step, alphabet = sp["sq_step"], sp["sq_alphabet"]
    model = CausalContextModel(alphabet, order=sp["context_order"])
    syms = digital_symbols(ctx.image, step, alphabet)
    stream = _verified_stream(syms, model, "the digital payload")
    block = (_fec_block(stream.payload, ctx.scenario["fec"]["k"])
             if ctx.scenario["conditions"]["kind"] == "loss" else None)
    return stream, digital_image(syms, ctx.image.height, ctx.image.width,
                                 step, alphabet), block


# ---------------------------------------------------------------------------
# Weak joint coding (token domain)


def _build_weak(ctx: SweepContext, sp: dict) -> WeakCode:
    scn = ctx.scenario
    tr, patch, ksize = scn["train"], sp["patch"], sp["codebook_size"]
    corpus_imgs = [_ar1_textured(tr["height"], tr["width"], tr,
                                 derive_seed(tr["seed"], "train-image", i))
                   for i in range(tr["images"])]
    corpus_patches = np.concatenate(
        [extract_patches(img.samples, patch) for img in corpus_imgs], axis=0)
    codebook = vq_train(corpus_patches, ksize, iters=25,
                        seed=derive_seed(tr["seed"], "codebook"))
    corpus_tokens = [tokenize(codebook, img.samples, patch)
                     for img in corpus_imgs]
    causal = CausalContextModel(ksize, order=sp["context_order"])
    neighbor = NeighborhoodModel(ksize)
    train(causal, corpus_tokens)
    train(neighbor, corpus_tokens)

    tokens = tokenize(codebook, ctx.image.samples, patch)
    assignment = _conceal.strided_assignment(tokens.shape[0], tokens.shape[1],
                                             scn["packets"])
    streams = [_verified_stream(tokens[assignment == p], causal, f"packet {p}")
               for p in range(scn["packets"])]
    return WeakCode(codebook=codebook, neighbor=neighbor, tokens=tokens,
                    assignment=assignment, streams=streams)


def _weak_reconstruct(ctx: SweepContext, sp: dict, code: WeakCode,
                      delivered: set) -> ImageGrid:
    """Place the delivered packets' (verified) tokens, conceal the rest,
    inverse-VQ."""
    missing = ~np.isin(code.assignment, sorted(delivered))
    tokens = np.where(missing, 0, code.tokens)
    grid = _conceal.TokenGrid(tokens, missing, code.codebook.size)
    if sp["conceal_mode"] == "marginal":
        filled = _conceal.marginal_fill(grid, code.neighbor)
    else:
        filled = _conceal.conceal(grid, code.neighbor,
                                  schedule=sp["conceal_schedule"])
    patches = vq_decode(code.codebook, filled.tokens.ravel())
    pix = assemble_patches(patches, ctx.image.height, ctx.image.width,
                           sp["patch"])
    return ImageGrid.from_float(pix)


# ---------------------------------------------------------------------------
# Analog joint coding


def _build_analog(ctx: SweepContext, sp: dict):
    """(fitted variances, analog code of the source).  Variances are fitted
    on the coded image itself: with per-block position selection they amount
    to a handful of numbers riding the same out-of-band metadata as the
    power scale, and a matched prior keeps the MMSE receiver honest at every
    SNR."""
    fitted_vars = _analog.jscc_fit([ctx.image])
    return fitted_vars, _analog.jscc_encode(
        ctx.image, ctx.scenario["bandwidth_ratio"], fitted_vars)


# ---------------------------------------------------------------------------
# Per-record runners: runner(ctx, scheme entry, condition value), plus the
# record's generator for a runner that draws randomness.


def _row(ctx: SweepContext, sp: dict, condition, recon, bits: int,
         symbols: int, mcs_index=None, fec_r=None,
         realized_loss_rate=None) -> dict:
    """The record, without its trial (`run_record` sets `seed`), of `recon`
    charged `bits` and `symbols` channel uses.  A failed decode (`recon`
    None) shows the source's mean gray level everywhere."""
    failed = recon is None
    if failed:
        level = round(float(ctx.image.samples.mean()))
        recon = ImageGrid(np.full_like(ctx.image.samples, level))
    m = compute_metrics(ctx.image, recon, bits, symbols)
    return {"scheme": sp["label"], "condition": condition, "seed": None,
            "bpp": m.bpp, "bandwidth_ratio": m.bandwidth_ratio, "mse": m.mse,
            "psnr": m.psnr, "decode_failed": failed, "mcs_index": mcs_index,
            "fec_r": fec_r, "realized_loss_rate": realized_loss_rate}


def _run_digital_snr(ctx: SweepContext, sp: dict, snr_db: float) -> dict:
    table = ctx.scenario["mcs_table"]
    idx = _channel.mcs_pick(table, sp["est_snr_db"])
    eff, min_snr = table[idx]
    stream, decoded, _ = _artifact(ctx, sp)
    bits = stream.payload_bits
    capacity = int(math.floor(ctx.budget_symbols * eff))
    ok = snr_db >= min_snr and bits <= capacity
    return _row(ctx, sp, snr_db, decoded if ok else None, bits,
                ctx.budget_symbols, mcs_index=idx)


def _run_weak_snr(ctx: SweepContext, sp: dict, snr_db: float) -> dict:
    code = _artifact(ctx, sp)
    table = ctx.scenario["mcs_table"]
    idx = _channel.mcs_pick(table, snr_db)
    capacity = (int(math.floor(ctx.budget_symbols * table[idx][0]))
                if idx is not None else 0)
    delivered: set[int] = set()
    used = 0
    for p, stream in enumerate(code.streams):
        if used + stream.payload_bits > capacity:
            break
        used += stream.payload_bits
        delivered.add(p)
    return _row(ctx, sp, snr_db, _weak_reconstruct(ctx, sp, code, delivered),
                used, ctx.budget_symbols, mcs_index=idx)


def _run_analog_snr(ctx: SweepContext, sp: dict, snr_db: float, rng) -> dict:
    fitted_vars, code = _artifact(ctx, sp)
    if np.any(code.symbols):
        noisy = _channel.awgn(code.symbols.ravel(), snr_db, rng)
        noisy = noisy.reshape(code.symbols.shape)
    else:
        noisy = code.symbols
    recon = _analog.jscc_decode(dataclasses.replace(code, symbols=noisy),
                                snr_db, fitted_vars)
    # Channel accounting charges the provisioned budget, not the m*blocks
    # symbols actually modulated, so the ratio matches the other schemes.
    return _row(ctx, sp, snr_db, recon, 0, ctx.budget_symbols)


def _loss_trace(ctx: SweepContext, loss: float, rng) -> np.ndarray:
    """Lost flags of `window` monitoring slots, then fec.MAX_BLOCK (one
    block) transmission slots, from a Gilbert-Elliott channel with the
    scenario's mean burst length and a stationary loss rate of `loss`."""
    cond = ctx.scenario["conditions"]
    p_gb, p_bg = _channel.burst_transitions(loss, cond["burst_mean"])
    return _channel.gilbert_elliott(cond["window"] + _fec.MAX_BLOCK, p_gb,
                                    p_bg, 0.0, 1.0, rng).lost


def _fec_block(payload: bytes, k: int):
    """(packets, packet length) of `payload` in k data packets and all
    MAX_BLOCK - k parity packets; a record sends the first k + r."""
    plen = max(1, -(-len(payload) // k))
    padded = payload.ljust(k * plen, b"\x00")
    data = [padded[i * plen:(i + 1) * plen] for i in range(k)]
    return _fec.fec_encode(data, _fec.MAX_BLOCK - k), plen


def _run_digital_loss(ctx: SweepContext, sp: dict, loss: float, rng) -> dict:
    k = ctx.scenario["fec"]["k"]
    window = ctx.scenario["conditions"]["window"]
    lost = _loss_trace(ctx, loss, rng)
    lost_in_window = int(np.count_nonzero(lost[:window]))
    # r = ceil(mult * k * lost_in_window / window), exactly in integers.
    r = -(-sp["fec_multiplier"] * lost_in_window * k // window)
    r = min(r, _fec.MAX_BLOCK - k)

    stream, decoded, (packets, plen) = _artifact(ctx, sp)
    slots = lost[window:window + k + r]
    received = [pkt for pkt, gone in zip(packets[:k + r], slots) if not gone]
    realized = float(np.mean(slots))
    bits = (k + r) * plen * 8
    try:
        recovered = b"".join(_fec.fec_decode(received, k, k + r))
        ok = recovered[:len(stream.payload)] == stream.payload
    except FecDecodeError:
        ok = False
    return _row(ctx, sp, loss, decoded if ok else None, bits, bits, fec_r=r,
                realized_loss_rate=realized)


def _run_weak_loss(ctx: SweepContext, sp: dict, loss: float, rng) -> dict:
    code = _artifact(ctx, sp)
    window = ctx.scenario["conditions"]["window"]
    slots = _loss_trace(ctx, loss, rng)[window:window + len(code.streams)]
    delivered = {p for p, gone in enumerate(slots) if not gone}
    realized = float(np.mean(slots))
    bits = sum(s.payload_bits for s in code.streams)
    return _row(ctx, sp, loss, _weak_reconstruct(ctx, sp, code, delivered),
                bits, bits, realized_loss_rate=realized)


# ---------------------------------------------------------------------------
# The scheme table


class _Scheme(NamedTuple):
    """How a scheme of `scenario.SCHEMES` runs.  `runs` maps a condition
    kind to (its runner, whether the runner draws randomness).  A runner
    that draws none gives the same record for every trial."""

    artifact: tuple  # the fields its artifact depends on
    build: object    # build(ctx, scheme entry) -> the artifact
    runs: dict


_SCHEMES = {
    "digital_separate": _Scheme(
        artifact=("sq_step", "sq_alphabet", "context_order"),
        build=_build_digital,
        runs={"snr_db": (_run_digital_snr, False),
              "loss": (_run_digital_loss, True)}),
    "weak_jscc": _Scheme(
        artifact=("patch", "codebook_size", "context_order"),
        build=_build_weak,
        runs={"snr_db": (_run_weak_snr, False), "loss": (_run_weak_loss, True)}),
    "analog_jscc": _Scheme(artifact=(), build=_build_analog,
                           runs={"snr_db": (_run_analog_snr, True)}),
}


def build_context(scn: dict) -> SweepContext:
    """The context of `scn`, a scenario that validate_scenario returned,
    with every artifact and every record that draws no randomness built, so
    running any record builds nothing.  The rules that tie a scheme to the
    source image are checked before anything is built."""
    src = scn["source"]
    image = (load_pgm(existing_input(src["path"], "source.path"))
             if src["type"] == "pgm"
             else _ar1_textured(src["height"], src["width"], src, src["seed"]))
    budget = int(math.floor(scn["bandwidth_ratio"] * image.pixels))
    blocks = (image.height // BLOCK) * (image.width // BLOCK)
    for sp in scn["schemes"]:
        check_tile(sp, "source", image.height, image.width)
        if sp["scheme"] == "analog_jscc" and budget < blocks:
            raise ConfigError(
                f"bandwidth_ratio {scn['bandwidth_ratio']} gives scheme "
                f"{sp['label']!r} {budget} symbols, less than one for each "
                f"of its {blocks} {BLOCK}x{BLOCK} blocks")
    ctx = SweepContext(scenario=scn, image=image, budget_symbols=budget)
    kind = scn["conditions"]["kind"]
    for si, sp in enumerate(scn["schemes"]):
        scheme, key = _SCHEMES[sp["scheme"]], _artifact_key(sp)
        if key not in ctx.artifacts:
            ctx.artifacts[key] = scheme.build(ctx, sp)
        runner, draws = scheme.runs[kind]
        if not draws:
            for ci, value in enumerate(scn["conditions"]["values"]):
                ctx.records[si, ci] = runner(ctx, sp, value)
    return ctx


def run_record(ctx: SweepContext, scheme_idx: int, cond_idx: int,
               trial: int) -> dict:
    """The record of one (scheme, condition, trial) of a built context."""
    scn = ctx.scenario
    sp = scn["schemes"][scheme_idx]
    runner, draws = _SCHEMES[sp["scheme"]].runs[scn["conditions"]["kind"]]
    if draws:
        rng = np.random.default_rng(derive_seed(scn["seed"], cond_idx, trial))
        row = runner(ctx, sp, scn["conditions"]["values"][cond_idx], rng)
    else:
        row = ctx.records[scheme_idx, cond_idx]
    return dict(row, seed=trial)


# ---------------------------------------------------------------------------
# Sweep driver


_CHUNK = 4  # one process for each started chunk of this many records
_MAX_JOBS = 64  # and no more processes than this, whatever `jobs` asks


def _run_share(ctx: SweepContext, share: list, conn) -> None:
    """A child's body: send {task: record} of its share, or the exception
    that stopped it."""
    try:
        result = {t: run_record(ctx, *t) for t in share}
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _fan_out(ctx: SweepContext, tasks: list, jobs: int) -> dict:
    """{task: record} over `jobs` processes: the parent runs the first of
    `jobs` interleaved shares itself, beside a child forked for each other
    share (none when `jobs` is 1).  A child gets the built context by fork,
    never pickled, and sends its records back over its own one-way pipe.
    Children draw channels, decode FEC and conceal, none of which calls
    BLAS; the parent starts no thread of its own, and OpenBLAS stops its
    thread pool in a fork handler."""
    shares = [tasks[i::jobs] for i in range(jobs)]
    children = []
    try:
        if jobs > 1:
            import multiprocessing as mp
            fork = mp.get_context("fork")
        for share in shares[1:]:
            recv_end, send_end = fork.Pipe(duplex=False)
            child = fork.Process(target=_run_share, args=(ctx, share, send_end))
            child.start()
            # the parent holds no send end, so a child that dies unreported
            # ends its pipe, and later children inherit no earlier send end
            send_end.close()
            children.append((child, recv_end))
        results = {t: run_record(ctx, *t) for t in shares[0]}
        for child, recv_end in children:
            try:
                got = recv_end.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"sweep child process exited with code {child.exitcode} "
                    f"before sending its records") from None
            if isinstance(got, Exception):
                raise got
            results.update(got)
    except BaseException:
        for child, _ in children:
            child.terminate()  # none is left blocked on a full pipe
        raise
    finally:
        for child, recv_end in children:
            child.join()
            recv_end.close()
    return results


def sweep(scn: dict, jobs: int = 1) -> list[dict]:
    """Run every (scheme, condition, trial) record of a scenario on `jobs`
    processes, from a context built before any record runs."""
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    scn = validate_scenario(scn)
    ctx = build_context(scn)
    tasks = [(si, ci, ti)
             for si in range(len(scn["schemes"]))
             for ci in range(len(scn["conditions"]["values"]))
             for ti in range(scn["num_seeds"])]
    jobs = min(jobs, _MAX_JOBS, -(-len(tasks) // _CHUNK))
    if jobs > 1:
        import multiprocessing as mp
        if "fork" not in mp.get_all_start_methods():
            jobs = 1  # spawned children would build everything again
    results = _fan_out(ctx, tasks, jobs)
    records = [results[t] for t in tasks]
    # canonical merge order, independent of how trials were executed
    records.sort(key=lambda r: (r["scheme"], r["condition"], r["seed"]))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(records: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(rec[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
