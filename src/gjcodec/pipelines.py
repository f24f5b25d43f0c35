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

Each scheme's rules live in its entry of `_SCHEMES`: the field spec of its
scenario entries, what it needs under each condition kind, the fields its
artifact depends on, how the artifact is built, and its runners.
`validate_scenario` applies one field checker to every section.

`build_context` takes a scenario that `validate_scenario` returned and does
all work that does not depend on a record's channel draw, once, and keeps
it in the context's one memo, under two tags: each artifact under
("artifact", scheme, its artifact fields), and every record whose runner
draws no randomness (digital and weak JSCC under snr_db) under ("record",
scheme index, condition index), repeated for each trial with its own
`seed`.  An artifact is a digital stream, its decoded image and, under
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
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import analog as _analog
from . import channel as _channel
from . import concealment as _conceal
from . import fec as _fec
from .context import (MAX_ALPHABET, MAX_CONTEXT_ALPHABET, MAX_ORDER,
                      CausalContextModel, NeighborhoodModel, train)
from .entropy import ac_decode, ac_encode
from .errors import (ConfigError, CorruptStreamError, FecDecodeError,
                     ParameterError, existing_input)
from .metrics import compute_metrics
from .sources import MAX_SIDE, ImageGrid, ar1_field, load_pgm
from .transform import (BLOCK, MAX_STEP, MIN_STEP, block_coefficients,
                        block_pixels, merge_blocks, split_blocks,
                        sq_dequantize, sq_quantize, symbol_to_signed,
                        signed_to_symbol)
from .vq import (MAX_CODEWORDS, Codebook, assemble_patches, extract_patches,
                 tokenize, vq_decode, vq_train)

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
# Field specs


_REQUIRED = object()


class _Field(NamedTuple):
    """One scenario field.  `type` is its JSON type: int, float (any finite
    number), str, bool, list (non-empty, each element checked against the
    _Field `item`) or dict (checked against the spec `item`, a dict of
    fields; with `tag`, against `item[v[tag]]`, which leaves the tag out).
    `default` is _REQUIRED, None (optional, not filled in) or the value
    filled in when the field is absent.  Numbers lie in [lo, hi], or
    (lo, hi) when `open`; strings among `choices`."""

    type: type
    default: object = _REQUIRED
    lo: float = -math.inf
    hi: float = math.inf
    open: bool = False
    choices: tuple = ()
    item: object = None
    tag: str = ""


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "a boolean", list: "a non-empty list"}


def _describe(f: _Field) -> str:
    if f.choices:
        return f"one of: {', '.join(f.choices)}"
    left, right = "()" if f.open else "[]"
    lo, hi = (str(int(x)) if f.type is int and math.isfinite(x) else f"{x:g}"
              for x in (f.lo, f.hi))
    bounded = f.lo > -math.inf or f.hi < math.inf
    return _TYPE_NAMES[f.type] + (
        f" in {left}{lo}, {hi}{right}" if bounded else "")


def _quote(v) -> str:
    """`v` as JSON, clipped to its first 60 characters, so an error quoting
    it stays one short line."""
    text = json.dumps(v)
    return text if len(text) <= 60 else text[:60] + "..."


def _check(v, f: _Field, path: str, optional: frozenset):
    """`v` checked against `f`; raises ConfigError naming `path`.  An object
    has its unknown keys rejected, its fields required and its defaults
    filled in, except for names in `optional`, which are neither required
    nor filled in.  An int field stores an integral number as an int."""
    where = path or "scenario"
    if f.type is dict:
        if not isinstance(v, dict):
            raise ConfigError(f"{where} must be an object")
        spec = f.item
        if f.tag:
            name = v.get(f.tag)
            if not isinstance(name, str) or name not in spec:
                raise ConfigError(f"{path}.{f.tag} must be one of: "
                                  f"{', '.join(spec)}, got {_quote(name)}")
            spec = spec[name]
        extra = sorted(set(v) - set(spec) - {f.tag})
        if extra:
            raise ConfigError(f"unknown {where} keys: {', '.join(extra)}")
        missing = sorted(name for name, g in spec.items() if name not in v
                         and g.default is _REQUIRED and name not in optional)
        if missing:
            raise ConfigError(f"missing {where} keys: {', '.join(missing)}")
        for name, g in spec.items():
            if name in v:
                v[name] = _check(v[name], g, f"{path}.{name}" if path else name,
                                 optional)
            elif g.default is not _REQUIRED and g.default is not None \
                    and name not in optional:
                v[name] = g.default
        return v
    if f.type in (int, float):
        # bool is an int subclass but never a JSON number; the bound also
        # rejects NaN, infinities and integers no float can hold
        ok = (isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max
              and (f.type is float or v == int(v)))
        if ok:
            v = int(v) if f.type is int else v
            ok = f.lo < v < f.hi if f.open else f.lo <= v <= f.hi
    else:
        ok = (isinstance(v, f.type) and (f.type is not list or len(v) > 0)
              and (not f.choices or v in f.choices))
    if not ok:
        raise ConfigError(f"{path} must be {_describe(f)}, got {_quote(v)}")
    if f.type is list:
        return [_check(x, f.item, f"{path}[{i}]", optional)
                for i, x in enumerate(v)]
    return v


# Size bounds: see "Scenario files" in README.md.
_MAX_TRAIN_IMAGES = 64
_MAX_SEEDS = 10_000
_MAX_WINDOW = 10 ** 6
# Every pixel saturates long before an AR field of this deviation.
_SIGMA = _Field(float, lo=-1e4, hi=1e4)
# Channel symbols per pixel and coded bits per channel symbol: a channel
# budget in bits, their product times the pixels, stays a finite integer.
_MAX_RATIO = _MAX_EFFICIENCY = 64
_TEXTURE = {"rho": _Field(float), "sigma": _SIGMA,
            "upsample": _Field(int, 1, lo=1), "bandpass": _Field(bool, False)}
_AR1 = {"width": _Field(int, lo=1, hi=MAX_SIDE),
        "height": _Field(int, lo=1, hi=MAX_SIDE),
        "rho": _Field(float), "sigma": _SIGMA, "mean": _Field(float),
        "upsample": _Field(int, 1, lo=1),
        "texture": _Field(dict, None, item=_TEXTURE)}
_SOURCES = {"ar1": {"seed": _Field(int, lo=0), **_AR1},
            "pgm": {"path": _Field(str)}}
_CONDITIONS = {
    # beyond +-1000 dB no channel is physical, and near +-3000 dB the noise
    # power 10 ** (-snr / 10) leaves the float range
    "snr_db": {"values": _Field(list, item=_Field(float, lo=-1000, hi=1000))},
    "loss": {"values": _Field(list, item=_Field(float, lo=0, hi=1, open=True)),
             "burst_mean": _Field(float, 2.0, lo=1),
             # default: see validate_scenario
             "window": _Field(int, None, lo=1, hi=_MAX_WINDOW)},
}
_ORDER = _Field(int, 2, lo=0, hi=MAX_ORDER)


def _check_layers(d: dict, path: str) -> None:
    """Each upsample factor of a synthetic AR field divides its dimensions."""
    for block, where in ((d, path), (d.get("texture"), f"{path}.texture")):
        if block is not None and (d["width"] % block["upsample"]
                                  or d["height"] % block["upsample"]):
            raise ConfigError(f"{where}.upsample must divide both dimensions")


def _check_tile(sp: dict, where: str, height: int, width: int) -> None:
    """The tile a scheme entry cuts images into, its patch or else the DCT
    block, divides both sides of the `where` image."""
    tile = sp.get("patch", BLOCK)
    if height % tile or width % tile:
        what = "patch" if "patch" in sp else "block side"
        raise ConfigError(f"{what} {tile} of scheme {sp['label']!r} does not "
                          f"divide the {where} sides {width}x{height}")


# ---------------------------------------------------------------------------
# Shared per-scenario state


def _ar1_layer(height: int, width: int, rho: float, upsample: int,
               seed: int) -> np.ndarray:
    """Unit-variance AR(1) field; upsample > 1 generates the field at a
    coarser grid and interpolates, concentrating energy below that scale."""
    if upsample == 1:
        return ar1_field(height, width, rho, seed)
    base = ar1_field(height // upsample, width // upsample, rho, seed)
    from scipy.ndimage import zoom
    return zoom(base, upsample, order=1, mode="nearest", grid_mode=True)


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
    """Everything shared across the records of one scenario.  `memo` holds
    what `build_context` built, under the tagged keys of the module
    docstring."""

    scenario: dict
    image: ImageGrid
    budget_symbols: int
    memo: dict = dataclasses.field(default_factory=dict)


def _artifact_key(sp: dict) -> tuple:
    artifact = _SCHEMES[sp["scheme"]].artifact
    return (sp["scheme"], *(sp[name] for name in artifact))


def _artifact(ctx: SweepContext, sp: dict):
    """The scheme's artifact for `sp`."""
    return ctx.memo["artifact", *_artifact_key(sp)]


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


def _fallback_image(image: ImageGrid) -> ImageGrid:
    """Failure output: the per-image mean gray level everywhere."""
    level = int(round(float(image.samples.mean())))
    return ImageGrid(np.full(image.samples.shape, level, dtype=np.uint8))


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
# Modulation/coding selection


def mcs_pick(table: list, snr_db: float):
    """Index of the most efficient entry usable at snr_db, or None."""
    best = None
    for i, (_eff, min_snr) in enumerate(table):
        if snr_db >= min_snr:
            best = i
    return best


# ---------------------------------------------------------------------------
# Per-record runners: runner(ctx, scheme entry, condition value), plus the
# record's generator for a runner that draws randomness.


def _row(label: str, condition, metrics, mcs_index=None, fec_r=None,
         realized_loss_rate=None) -> dict:
    """A record without its trial; `run_record` fills in `seed`."""
    return {"scheme": label, "condition": condition, "seed": None,
            "bpp": metrics.bpp, "bandwidth_ratio": metrics.bandwidth_ratio,
            "mse": metrics.mse, "psnr": metrics.psnr,
            "decode_failed": metrics.decode_failed, "mcs_index": mcs_index,
            "fec_r": fec_r, "realized_loss_rate": realized_loss_rate}


def _run_digital_snr(ctx: SweepContext, sp: dict, snr_db: float) -> dict:
    table = ctx.scenario["mcs_table"]
    idx = mcs_pick(table, sp["est_snr_db"])
    eff, min_snr = table[idx]
    stream, decoded, _ = _artifact(ctx, sp)
    bits = stream.payload_bits
    capacity = int(math.floor(ctx.budget_symbols * eff))
    ok = snr_db >= min_snr and bits <= capacity
    recon = decoded if ok else _fallback_image(ctx.image)
    m = compute_metrics(ctx.image, recon, bits, ctx.budget_symbols)
    m.decode_failed = not ok
    return _row(sp["label"], snr_db, m, mcs_index=idx)


def _run_weak_snr(ctx: SweepContext, sp: dict, snr_db: float) -> dict:
    code = _artifact(ctx, sp)
    table = ctx.scenario["mcs_table"]
    idx = mcs_pick(table, snr_db)
    capacity = (int(math.floor(ctx.budget_symbols * table[idx][0]))
                if idx is not None else 0)
    delivered: set[int] = set()
    used = 0
    for p, stream in enumerate(code.streams):
        if used + stream.payload_bits > capacity:
            break
        used += stream.payload_bits
        delivered.add(p)
    recon = _weak_reconstruct(ctx, sp, code, delivered)
    m = compute_metrics(ctx.image, recon, used, ctx.budget_symbols)
    return _row(sp["label"], snr_db, m, mcs_index=idx)


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
    m = compute_metrics(ctx.image, recon, 0, ctx.budget_symbols)
    return _row(sp["label"], snr_db, m)


def _transitions(loss: float, burst_mean: float) -> tuple[float, float]:
    """(p_gb, p_bg) of a Gilbert-Elliott channel with mean burst length
    `burst_mean` and stationary loss rate `loss`."""
    p_bg = 1.0 / burst_mean
    return p_bg * loss / (1.0 - loss), p_bg


def _loss_trace(ctx: SweepContext, loss: float, rng) -> np.ndarray:
    """Lost flags of `window` monitoring slots, then fec.MAX_BLOCK (one
    block) transmission slots, from a Gilbert-Elliott channel with the
    scenario's mean burst length and a stationary loss rate of `loss`."""
    cond = ctx.scenario["conditions"]
    p_gb, p_bg = _transitions(loss, cond["burst_mean"])
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
    recon = decoded if ok else _fallback_image(ctx.image)
    m = compute_metrics(ctx.image, recon, bits, bits)
    m.decode_failed = not ok
    return _row(sp["label"], loss, m, fec_r=r, realized_loss_rate=realized)


def _run_weak_loss(ctx: SweepContext, sp: dict, loss: float, rng) -> dict:
    code = _artifact(ctx, sp)
    window = ctx.scenario["conditions"]["window"]
    slots = _loss_trace(ctx, loss, rng)[window:window + len(code.streams)]
    delivered = {p for p, gone in enumerate(slots) if not gone}
    realized = float(np.mean(slots))
    bits = sum(s.payload_bits for s in code.streams)
    recon = _weak_reconstruct(ctx, sp, code, delivered)
    m = compute_metrics(ctx.image, recon, bits, bits)
    return _row(sp["label"], loss, m, realized_loss_rate=realized)


# ---------------------------------------------------------------------------
# The scheme table


class _Scheme(NamedTuple):
    """`runs` maps a condition kind to (the sections and fields the scheme
    needs, its runner, whether the runner draws randomness).  A runner that
    draws none gives the same record for every trial."""

    fields: dict     # field spec of the scheme's `schemes` entries
    artifact: tuple  # the fields its artifact depends on
    build: object    # build(ctx, scheme entry) -> the artifact
    runs: dict


_SCHEMES = {
    "digital_separate": _Scheme(
        fields={"label": _Field(str),
                "sq_step": _Field(float, 16.0, lo=MIN_STEP, hi=MAX_STEP),
                "sq_alphabet": _Field(int, 256, lo=2, hi=MAX_ALPHABET),
                "context_order": _ORDER, "est_snr_db": _Field(float),
                "fec_multiplier": _Field(int, lo=1)},
        artifact=("sq_step", "sq_alphabet", "context_order"),
        build=_build_digital,
        runs={"snr_db": (("mcs_table", "est_snr_db"), _run_digital_snr, False),
              "loss": (("fec", "fec_multiplier"), _run_digital_loss, True)}),
    "weak_jscc": _Scheme(
        fields={"label": _Field(str),
                "patch": _Field(int, 4, lo=1),
                "codebook_size": _Field(int, 256, lo=2, hi=MAX_CODEWORDS),
                "context_order": _ORDER,
                "conceal_schedule": _Field(str, "confidence",
                                           choices=("confidence", "raster")),
                "conceal_mode": _Field(str, "neighborhood",
                                       choices=("neighborhood", "marginal"))},
        artifact=("patch", "codebook_size", "context_order"),
        build=_build_weak,
        runs={"snr_db": (("mcs_table", "train", "packets"), _run_weak_snr,
                         False),
              "loss": (("train", "packets"), _run_weak_loss, True)}),
    "analog_jscc": _Scheme(
        fields={"label": _Field(str)}, artifact=(),
        build=_build_analog, runs={"snr_db": ((), _run_analog_snr, True)}),
}

_SCENARIO = _Field(dict, item={
    "name": _Field(str), "seed": _Field(int),
    "num_seeds": _Field(int, lo=1, hi=_MAX_SEEDS),
    "bandwidth_ratio": _Field(float, lo=0, hi=_MAX_RATIO, open=True),
    "source": _Field(dict, item=_SOURCES, tag="type"),
    "conditions": _Field(dict, item=_CONDITIONS, tag="kind"),
    "schemes": _Field(list, item=_Field(dict, tag="scheme", item={
        name: scheme.fields for name, scheme in _SCHEMES.items()})),
    "mcs_table": _Field(list, item=_Field(list, item=_Field(float))),
    "train": _Field(dict, item={"images": _Field(int, lo=1,
                                                 hi=_MAX_TRAIN_IMAGES),
                                "seed": _Field(int), **_AR1}),
    # A weak record reads as many slots of its loss trace's one block.
    "packets": _Field(int, 16, lo=2, hi=_fec.MAX_BLOCK),
    "fec": _Field(dict, item={"k": _Field(int, lo=1, hi=_fec.MAX_BLOCK - 1)}),
})
# Required (or filled in) only when a scheme needs them under the kind.
_CONDITIONAL = frozenset(name for scheme in _SCHEMES.values()
                         for needs, _, _ in scheme.runs.values()
                         for name in needs)


def validate_scenario(scn: dict) -> dict:
    """Check structure, types and ranges, reject unknown keys, and fill
    defaults.

    Returns a normalised copy; raises ConfigError on any problem.
    """
    # The first pass checks every field given; the second, once the schemes
    # and the condition kind are known, requires or fills in what they need.
    try:
        out = _check(json.loads(json.dumps(scn)), _SCENARIO, "", _CONDITIONAL)
    except RecursionError:
        # a value the parser took, nested too deeply to copy or quote
        raise ConfigError("scenario is nested too deeply") from None
    kind = out["conditions"]["kind"]
    needed, labels = set(), set()
    for i, sp in enumerate(out["schemes"]):
        runs = _SCHEMES[sp["scheme"]].runs
        if kind not in runs:
            raise ConfigError(f"schemes[{i}]: {sp['scheme']} runs under "
                              f"{' or '.join(runs)} conditions only")
        if sp["label"] in labels:
            raise ConfigError(f"duplicate scheme label {sp['label']!r}")
        labels.add(sp["label"])
        needed.update(runs[kind][0])
    _check(out, _SCENARIO, "", _CONDITIONAL - needed)
    cond = out["conditions"]
    if kind == "loss":
        cond.setdefault("window", out["fec"]["k"] if "fec" in needed else 50)
        b = cond["burst_mean"]
        for i, loss in enumerate(cond["values"]):
            if _transitions(loss, b)[0] > 1.0:
                raise ConfigError(f"conditions.values[{i}] = {_quote(loss)} is "
                                  f"above {b / (b + 1):g}, the most loss "
                                  f"conditions.burst_mean = {_quote(b)} allows")
    table = out.get("mcs_table", [])
    if (any(len(e) != 2 or not 0 < e[0] <= _MAX_EFFICIENCY for e in table)
            or [e[1] for e in table] != sorted(e[1] for e in table)):
        raise ConfigError(f"mcs_table must list [efficiency in (0, "
                          f"{_MAX_EFFICIENCY}], min_snr_db] pairs in "
                          f"ascending min_snr_db")
    for i, sp in enumerate(out["schemes"]):
        if kind == "snr_db" and "est_snr_db" in sp \
                and mcs_pick(table, sp["est_snr_db"]) is None:
            raise ConfigError(f"est_snr_db {sp['est_snr_db']} is below every "
                              f"mcs_table threshold")
        if sp.get("sq_alphabet", 0) > MAX_CONTEXT_ALPHABET \
                and sp["context_order"]:
            raise ConfigError(
                f"schemes[{i}].sq_alphabet must be at most "
                f"{MAX_CONTEXT_ALPHABET} when context_order is above 0, "
                f"got {sp['sq_alphabet']}")
        if "patch" in sp:
            _check_tile(sp, "train", out["train"]["height"],
                        out["train"]["width"])
    if out["source"]["type"] == "ar1":
        _check_layers(out["source"], "source")
    if "train" in out:
        _check_layers(out["train"], "train")
    return out


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
        _check_tile(sp, "source", image.height, image.width)
        if sp["scheme"] == "analog_jscc" and budget < blocks:
            raise ConfigError(
                f"bandwidth_ratio {scn['bandwidth_ratio']} gives scheme "
                f"{sp['label']!r} {budget} symbols, less than one for each "
                f"of its {blocks} {BLOCK}x{BLOCK} blocks")
    ctx = SweepContext(scenario=scn, image=image, budget_symbols=budget)
    memo, kind = ctx.memo, scn["conditions"]["kind"]
    for si, sp in enumerate(scn["schemes"]):
        scheme, key = _SCHEMES[sp["scheme"]], _artifact_key(sp)
        if ("artifact", *key) not in memo:
            memo["artifact", *key] = scheme.build(ctx, sp)
        _, runner, draws = scheme.runs[kind]
        if not draws:
            for ci, value in enumerate(scn["conditions"]["values"]):
                memo["record", si, ci] = runner(ctx, sp, value)
    return ctx


def run_record(ctx: SweepContext, scheme_idx: int, cond_idx: int,
               trial: int) -> dict:
    """The record of one (scheme, condition, trial) of a built context."""
    scn = ctx.scenario
    sp = scn["schemes"][scheme_idx]
    _, runner, draws = _SCHEMES[sp["scheme"]].runs[scn["conditions"]["kind"]]
    if draws:
        rng = np.random.default_rng(derive_seed(scn["seed"], cond_idx, trial))
        row = runner(ctx, sp, scn["conditions"]["values"][cond_idx], rng)
    else:
        row = ctx.memo["record", scheme_idx, cond_idx]
    return dict(row, seed=trial)


# ---------------------------------------------------------------------------
# Sweep driver


_CHUNK = 4  # one process for each started chunk of this many records


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
    jobs = min(jobs, -(-len(tasks) // _CHUNK))
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
