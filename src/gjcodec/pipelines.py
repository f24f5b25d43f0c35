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

Work that does not depend on a record's channel draw is done once per
`SweepContext`: each source encoding (whose weak-JSCC packets are decoded
and verified once, when the code is built), the FEC parity of each
(digital payload, r), and every record whose runner draws no randomness
(digital and weak JSCC under snr_db), which is computed once per
(scheme, condition) and repeated for each trial with its own `seed`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import analog as _analog
from . import channel as _channel
from . import concealment as _conceal
from . import fec as _fec
from .context import CausalContextModel, NeighborhoodModel, train
from .entropy import Bitstream, ac_decode, ac_encode
from .errors import (ConfigError, CorruptStreamError, FecDecodeError,
                     ParameterError)
from .metrics import compute_metrics
from .sources import ImageGrid, ar1_field, load_pgm
from .transform import (dct2, idct2, merge_blocks, split_blocks, sq_dequantize,
                        sq_quantize, symbol_to_signed, signed_to_symbol,
                        zigzag_scan, zigzag_unscan)
from .vq import (Codebook, assemble_patches, extract_patches, vq_decode,
                 vq_encode, vq_train)

SCHEME_DIGITAL = "digital_separate"
SCHEME_WEAK = "weak_jscc"
SCHEME_ANALOG = "analog_jscc"

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
# Scenario schema


_TOP_KEYS = {"name", "seed", "num_seeds", "source", "conditions", "schemes",
             "bandwidth_ratio", "mcs_table", "packets", "fec", "train"}
_SOURCE_KEYS = {"type", "width", "height", "rho", "sigma", "mean", "seed",
                "upsample", "texture", "path"}
_COND_KEYS = {"kind", "values", "burst_mean", "window"}
_SCHEME_KEYS = {"scheme", "label", "sq_step", "sq_alphabet", "context_order",
                "est_snr_db", "fec_multiplier", "patch", "codebook_size",
                "conceal_schedule", "conceal_mode"}
_TRAIN_KEYS = {"images", "width", "height", "rho", "sigma", "mean", "seed",
               "upsample", "texture"}
_TEXTURE_KEYS = {"rho", "sigma", "upsample", "bandpass"}
_FEC_KEYS = {"k"}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise ConfigError(f"unknown {where} keys: {', '.join(extra)}")


def _check_field_layers(d: dict, where: str) -> None:
    """Validate upsample factors (and the optional fine-texture layer) of a
    synthetic AR field description against its dimensions."""
    def check_upsample(block: dict, label: str) -> None:
        up = block.setdefault("upsample", 1)
        if (not isinstance(up, int) or up < 1
                or d["width"] % up or d["height"] % up):
            raise ConfigError(
                f"{label}.upsample must be a positive integer dividing both dimensions")

    check_upsample(d, where)
    tex = d.get("texture")
    if tex is not None:
        if not isinstance(tex, dict):
            raise ConfigError(f"{where}.texture must be an object")
        _reject_unknown(tex, _TEXTURE_KEYS, f"{where}.texture")
        _require(tex, ("rho", "sigma"), f"{where}.texture")
        check_upsample(tex, f"{where}.texture")
        if not isinstance(tex.setdefault("bandpass", False), bool):
            raise ConfigError(f"{where}.texture.bandpass must be a boolean")


def _require(d: dict, keys, where: str) -> None:
    missing = sorted(k for k in keys if k not in d)
    if missing:
        raise ConfigError(f"missing {where} keys: {', '.join(missing)}")


def validate_scenario(scn: dict) -> dict:
    """Check structure, reject unknown keys, and fill defaults.

    Returns a normalised copy; raises ConfigError on any problem.
    """
    if not isinstance(scn, dict):
        raise ConfigError("scenario must be a JSON object")
    _reject_unknown(scn, _TOP_KEYS, "scenario")
    _require(scn, ("name", "seed", "num_seeds", "source", "conditions",
                   "schemes", "bandwidth_ratio"), "scenario")
    out = json.loads(json.dumps(scn))  # deep copy, JSON-clean

    if not isinstance(out["num_seeds"], int) or out["num_seeds"] < 1:
        raise ConfigError("num_seeds must be a positive integer")
    if not isinstance(out["seed"], int):
        raise ConfigError("seed must be an integer")
    if not (isinstance(out["bandwidth_ratio"], (int, float))
            and out["bandwidth_ratio"] > 0):
        raise ConfigError("bandwidth_ratio must be a positive number")

    src = out["source"]
    _reject_unknown(src, _SOURCE_KEYS, "source")
    if src.get("type") == "ar1":
        _require(src, ("width", "height", "rho", "sigma", "mean", "seed"),
                 "ar1 source")
        _check_field_layers(src, "source")
    elif src.get("type") == "pgm":
        _require(src, ("path",), "pgm source")
    else:
        raise ConfigError(f"unknown source type {src.get('type')!r}")

    cond = out["conditions"]
    _reject_unknown(cond, _COND_KEYS, "conditions")
    _require(cond, ("kind", "values"), "conditions")
    kind = cond["kind"]
    if kind not in ("snr_db", "loss"):
        raise ConfigError(f"unknown condition kind {kind!r}")
    values = cond["values"]
    if (not isinstance(values, list) or not values
            or not all(isinstance(v, (int, float)) for v in values)):
        raise ConfigError("conditions.values must be a non-empty number list")
    if kind == "loss":
        if not all(0.0 < v < 1.0 for v in values):
            raise ConfigError("loss values must lie strictly between 0 and 1")
        cond.setdefault("burst_mean", 2.0)
        if cond["burst_mean"] < 1.0:
            raise ConfigError("burst_mean must be >= 1")

    schemes = out["schemes"]
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("schemes must be a non-empty list")
    labels = set()
    need_tokens = need_fec = need_mcs = False
    for sp in schemes:
        _reject_unknown(sp, _SCHEME_KEYS, "scheme")
        _require(sp, ("scheme", "label"), "scheme")
        if sp["scheme"] not in (SCHEME_DIGITAL, SCHEME_WEAK, SCHEME_ANALOG):
            raise ConfigError(f"unknown scheme {sp['scheme']!r}")
        if sp["label"] in labels:
            raise ConfigError(f"duplicate scheme label {sp['label']!r}")
        labels.add(sp["label"])
        if sp["scheme"] == SCHEME_DIGITAL:
            sp.setdefault("sq_step", 16.0)
            sp.setdefault("sq_alphabet", 256)
            sp.setdefault("context_order", 2)
            if kind == "snr_db":
                _require(sp, ("est_snr_db",), "digital scheme")
                need_mcs = True
            else:
                _require(sp, ("fec_multiplier",), "digital scheme")
                mult = sp["fec_multiplier"]
                if not (isinstance(mult, (int, float)) and float(mult).is_integer()
                        and mult >= 1):
                    raise ConfigError("fec_multiplier must be a positive integer")
                sp["fec_multiplier"] = int(mult)
                need_fec = True
        elif sp["scheme"] == SCHEME_WEAK:
            sp.setdefault("patch", 4)
            sp.setdefault("codebook_size", 256)
            sp.setdefault("context_order", 2)
            sp.setdefault("conceal_schedule", "confidence")
            sp.setdefault("conceal_mode", "neighborhood")
            if sp["conceal_schedule"] not in ("confidence", "raster"):
                raise ConfigError("conceal_schedule must be confidence or raster")
            if sp["conceal_mode"] not in ("neighborhood", "marginal"):
                raise ConfigError("conceal_mode must be neighborhood or marginal")
            need_tokens = True
            if kind == "snr_db":
                need_mcs = True
        elif sp["scheme"] == SCHEME_ANALOG and kind == "loss":
            raise ConfigError("analog_jscc runs under snr_db conditions only")

    if need_mcs:
        _require(out, ("mcs_table",), "scenario")
        table = out["mcs_table"]
        ok = (isinstance(table, list) and table
              and all(isinstance(e, list) and len(e) == 2
                      and all(isinstance(x, (int, float)) for x in e)
                      for e in table))
        if not ok:
            raise ConfigError("mcs_table must be a list of [efficiency, min_snr_db]")
        snrs = [e[1] for e in table]
        if snrs != sorted(snrs) or any(e[0] <= 0 for e in table):
            raise ConfigError(
                "mcs_table entries need positive efficiency and ascending min_snr_db")
    if need_tokens:
        out.setdefault("packets", 16)
        if not isinstance(out["packets"], int) or out["packets"] < 2:
            raise ConfigError("packets must be an integer >= 2")
        _require(out, ("train",), "scenario")
        tr = out["train"]
        _reject_unknown(tr, _TRAIN_KEYS, "train")
        _require(tr, ("images", "width", "height", "rho", "sigma", "mean",
                      "seed"), "train")
        if not isinstance(tr["images"], int) or tr["images"] < 1:
            raise ConfigError("train.images must be a positive integer")
        _check_field_layers(tr, "train")
    if need_fec:
        _require(out, ("fec",), "scenario")
        _reject_unknown(out["fec"], _FEC_KEYS, "fec")
        _require(out["fec"], ("k",), "fec")
        k = out["fec"]["k"]
        if not isinstance(k, int) or not 1 <= k <= 254:
            raise ConfigError("fec.k must be an integer in 1..254")
        cond.setdefault("window", k)
    if kind == "loss":
        cond.setdefault("window", 50)
        if not isinstance(cond["window"], int) or cond["window"] < 1:
            raise ConfigError("conditions.window must be a positive integer")
    return out


def load_scenario_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            scn = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    return validate_scenario(scn)


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


def _build_source(src: dict) -> ImageGrid:
    if src["type"] == "pgm":
        return load_pgm(src["path"])
    return _ar1_textured(src["height"], src["width"], src, src["seed"])


def _train_images(tr: dict) -> list[ImageGrid]:
    out = []
    for i in range(tr["images"]):
        seed_i = derive_seed(tr["seed"], "train-image", i)
        out.append(_ar1_textured(tr["height"], tr["width"], tr, seed_i))
    return out


@dataclass
class WeakCode:
    """Cached token-domain encoding of the scenario source.

    Every packet stream is entropy-decoded once when the code is built,
    against a copy of the trained causal model (so the model-hash check
    runs), and must give back exactly the packet's cells of `tokens`.  A
    record therefore places the delivered packets' cells from `tokens`
    instead of decoding them again.
    """

    codebook: Codebook
    causal: CausalContextModel
    neighbor: NeighborhoodModel
    tokens: np.ndarray
    assignment: np.ndarray
    packet_cells: list
    streams: list
    patch: int

    @property
    def total_payload_bits(self) -> int:
        return sum(s.payload_bits for s in self.streams)


@dataclass
class SweepContext:
    """Everything shared across the records of one scenario."""

    scenario: dict
    image: ImageGrid
    budget_symbols: int
    fitted_vars: np.ndarray | None = None
    analog_code: object = None
    digital_cache: dict = field(default_factory=dict)
    weak_cache: dict = field(default_factory=dict)
    parity_cache: dict = field(default_factory=dict)
    record_cache: dict = field(default_factory=dict)


def build_context(scn: dict) -> SweepContext:
    scn = validate_scenario(scn)
    image = _build_source(scn["source"])
    budget = int(math.floor(scn["bandwidth_ratio"] * image.pixels))
    ctx = SweepContext(scenario=scn, image=image, budget_symbols=budget)
    if any(sp["scheme"] == SCHEME_ANALOG for sp in scn["schemes"]):
        # Variances are fitted on the coded image itself: with per-block
        # position selection they amount to a handful of numbers riding the
        # same out-of-band metadata as the power scale, and a matched prior
        # keeps the MMSE receiver honest at every SNR.
        ctx.fitted_vars = _analog.jscc_fit([image])
        ctx.analog_code = _analog.jscc_encode(image, scn["bandwidth_ratio"],
                                              ctx.fitted_vars)
    return ctx


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
    blocks = split_blocks(image.samples.astype(np.float64) - 128.0)
    q = sq_quantize(zigzag_scan(dct2(blocks)), step)
    shape = (image.height // 8, image.width // 8)
    dc = q[:, 0].reshape(shape)
    q[:, 0] = (dc - _dc_predict(dc)).ravel()
    folded = signed_to_symbol(q, alphabet)
    return np.concatenate([folded[:, 0], folded[:, 1:].ravel()])


def digital_image(symbols: np.ndarray, height: int, width: int, step: float,
                  alphabet: int) -> ImageGrid:
    num_blocks = (height // 8) * (width // 8)
    flat = np.asarray(symbols)
    folded = np.empty((num_blocks, 64), dtype=flat.dtype)
    folded[:, 0] = flat[:num_blocks]
    folded[:, 1:] = flat[num_blocks:].reshape(num_blocks, 63)
    q = symbol_to_signed(folded)
    rows, cols = height // 8, width // 8
    res = q[:, 0].reshape(rows, cols)
    dc = np.zeros_like(res)
    for r in range(rows):
        for c in range(cols):
            if r == 0:
                pred = dc[0, c - 1] if c else 0
            elif c == 0:
                pred = dc[r - 1, 0]
            else:
                pred = (dc[r - 1, c] + dc[r, c - 1]) // 2
            dc[r, c] = res[r, c] + pred
    q[:, 0] = dc.ravel()
    blocks = idct2(zigzag_unscan(sq_dequantize(q, step))) + 128.0
    return ImageGrid.from_float(merge_blocks(blocks, height, width))


def _encode_digital(ctx: SweepContext, sp: dict):
    key = (sp["sq_step"], sp["sq_alphabet"], sp["context_order"])
    if key not in ctx.digital_cache:
        step, alphabet, order = key
        syms = digital_symbols(ctx.image, step, alphabet)
        model = CausalContextModel(alphabet, order=order)
        stream = ac_encode(syms, model, adaptive=True)
        decoded_syms = ac_decode(stream, CausalContextModel(alphabet, order=order),
                                 adaptive=True)
        decoded = digital_image(decoded_syms, ctx.image.height, ctx.image.width,
                                step, alphabet)
        ctx.digital_cache[key] = (stream, decoded)
    return ctx.digital_cache[key]


def _fallback_image(image: ImageGrid) -> ImageGrid:
    """Failure output: the per-image mean gray level everywhere."""
    level = int(round(float(image.samples.mean())))
    return ImageGrid(np.full(image.samples.shape, level, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Weak joint coding (token domain)


def _weak_key(sp: dict):
    return (sp["patch"], sp["codebook_size"], sp["context_order"])


def _encode_weak(ctx: SweepContext, sp: dict) -> WeakCode:
    key = _weak_key(sp)
    if key in ctx.weak_cache:
        return ctx.weak_cache[key]
    scn = ctx.scenario
    patch, ksize, order = key
    corpus_imgs = _train_images(scn["train"])
    corpus_patches = np.concatenate(
        [extract_patches(img.samples, patch) for img in corpus_imgs], axis=0)
    cb_seed = derive_seed(scn["train"]["seed"], "codebook")
    codebook = vq_train(corpus_patches, ksize, iters=25, seed=cb_seed)

    def tokens_of(img: ImageGrid) -> np.ndarray:
        tr = img.height // patch
        tc = img.width // patch
        return vq_encode(codebook, extract_patches(img.samples, patch)).reshape(tr, tc)

    corpus_tokens = [tokens_of(img) for img in corpus_imgs]
    causal = CausalContextModel(ksize, order=order)
    neighbor = NeighborhoodModel(ksize)
    train(causal, corpus_tokens)
    train(neighbor, corpus_tokens)
    causal.state_hash()  # hashed once here; every copy below inherits it

    tokens = tokens_of(ctx.image)
    num_packets = scn["packets"]
    assignment = _conceal.strided_assignment(tokens.shape[0], tokens.shape[1],
                                             num_packets)
    packet_cells, streams = [], []
    for p in range(num_packets):
        rr, cc = np.nonzero(assignment == p)
        packet_cells.append((rr, cc))
        seq = tokens[rr, cc]
        stream = ac_encode(seq, causal.copy(), adaptive=True)
        if not np.array_equal(ac_decode(stream, causal.copy(), adaptive=True),
                              seq):
            raise CorruptStreamError(f"packet {p} does not decode to its tokens")
        streams.append(stream)
    code = WeakCode(codebook=codebook, causal=causal, neighbor=neighbor,
                    tokens=tokens, assignment=assignment,
                    packet_cells=packet_cells, streams=streams, patch=patch)
    ctx.weak_cache[key] = code
    return code


def _weak_reconstruct(ctx: SweepContext, sp: dict, code: WeakCode,
                      delivered: set) -> ImageGrid:
    """Place the delivered packets' (verified) tokens, conceal the rest,
    inverse-VQ."""
    missing = np.ones(code.tokens.shape, dtype=bool)
    for p in delivered:
        missing[code.packet_cells[p]] = False
    tokens = np.where(missing, 0, code.tokens)
    grid = _conceal.TokenGrid(tokens, missing, code.codebook.size)
    if sp["conceal_mode"] == "marginal":
        filled = _conceal.marginal_fill(grid, code.neighbor)
    else:
        filled = _conceal.conceal(grid, code.neighbor,
                                  schedule=sp["conceal_schedule"])
    patches = vq_decode(code.codebook, filled.tokens.ravel())
    pix = assemble_patches(patches, ctx.image.height, ctx.image.width, code.patch)
    return ImageGrid.from_float(pix)


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
# Per-record runners


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
    if idx is None:
        raise ConfigError(
            f"est_snr_db {sp['est_snr_db']} is below every mcs_table threshold")
    eff, min_snr = table[idx]
    stream, decoded = _encode_digital(ctx, sp)
    bits = stream.payload_bits
    capacity = int(math.floor(ctx.budget_symbols * eff))
    ok = snr_db >= min_snr and bits <= capacity
    recon = decoded if ok else _fallback_image(ctx.image)
    m = compute_metrics(ctx.image, recon, bits, ctx.budget_symbols)
    m.decode_failed = not ok
    return _row(sp["label"], snr_db, m, mcs_index=idx)


def _run_weak_snr(ctx: SweepContext, sp: dict, snr_db: float) -> dict:
    code = _encode_weak(ctx, sp)
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
    code = ctx.analog_code
    if np.any(code.symbols):
        noisy = _channel.awgn(code.symbols.ravel(), snr_db, rng)
        noisy = noisy.reshape(code.symbols.shape)
    else:
        noisy = code.symbols
    received = _analog.AnalogCode(height=code.height, width=code.width,
                                  positions=code.positions, scale=code.scale,
                                  mean_offset=code.mean_offset, symbols=noisy,
                                  budget=code.budget)
    recon = _analog.jscc_decode(received, snr_db, ctx.fitted_vars)
    # Channel accounting charges the provisioned budget, not the m*blocks
    # symbols actually modulated, so the ratio matches the other schemes.
    m = compute_metrics(ctx.image, recon, 0, code.budget)
    return _row(sp["label"], snr_db, m)


def _ge_params(loss: float, burst_mean: float):
    p_bg = 1.0 / burst_mean
    p_gb = p_bg * loss / (1.0 - loss)
    return p_gb, p_bg


def _fec_block(ctx: SweepContext, payload: bytes, r: int):
    """(packets, packet length) of `payload` split into k data packets plus
    r parity packets; cached per (payload, r)."""
    key = (payload, r)
    if key not in ctx.parity_cache:
        k = ctx.scenario["fec"]["k"]
        plen = max(1, -(-len(payload) // k))
        padded = payload.ljust(k * plen, b"\x00")
        data = [padded[i * plen:(i + 1) * plen] for i in range(k)]
        ctx.parity_cache[key] = (_fec.fec_encode(data, r), plen)
    return ctx.parity_cache[key]


def _run_digital_loss(ctx: SweepContext, sp: dict, loss: float, rng) -> dict:
    scn = ctx.scenario
    k = scn["fec"]["k"]
    window = scn["conditions"]["window"]
    burst = scn["conditions"]["burst_mean"]
    mult = sp["fec_multiplier"]

    p_gb, p_bg = _ge_params(loss, burst)
    trace = _channel.gilbert_elliott(window + 255, p_gb, p_bg, 0.0, 1.0, rng)
    est = _channel.interval_loss_rate(trace.lost[:window], window)[0]
    lost_in_window = int(round(est * window))
    # r = ceil(mult * est * k) computed exactly in integers.
    r = -(-mult * lost_in_window * k // window)
    r = min(r, 255 - k)

    stream, decoded = _encode_digital(ctx, sp)
    payload = stream.payload
    packets, plen = _fec_block(ctx, payload, r)

    slots = trace.lost[window:window + k + r]
    received = [pkt for pkt, gone in zip(packets, slots) if not gone]
    realized = float(np.mean(slots))
    bits = (k + r) * plen * 8
    try:
        recovered = b"".join(_fec.fec_decode(received, k, k + r))[:len(payload)]
        ok = recovered == payload
    except FecDecodeError:
        ok = False
    recon = decoded if ok else _fallback_image(ctx.image)
    m = compute_metrics(ctx.image, recon, bits, bits)
    m.decode_failed = not ok
    return _row(sp["label"], loss, m, fec_r=r, realized_loss_rate=realized)


def _run_weak_loss(ctx: SweepContext, sp: dict, loss: float, rng) -> dict:
    scn = ctx.scenario
    code = _encode_weak(ctx, sp)
    num_packets = scn["packets"]
    window = scn["conditions"]["window"]
    burst = scn["conditions"]["burst_mean"]
    p_gb, p_bg = _ge_params(loss, burst)
    trace = _channel.gilbert_elliott(window + 255, p_gb, p_bg, 0.0, 1.0, rng)
    slots = trace.lost[window:window + num_packets]
    delivered = {p for p in range(num_packets) if not slots[p]}
    realized = float(np.mean(slots))
    bits = code.total_payload_bits
    recon = _weak_reconstruct(ctx, sp, code, delivered)
    m = compute_metrics(ctx.image, recon, bits, bits)
    return _row(sp["label"], loss, m, realized_loss_rate=realized)


# (condition kind, scheme) -> (runner, whether it draws channel randomness).
# A runner that draws none gives the same record for every trial.
_RUNNERS = {
    ("snr_db", SCHEME_DIGITAL): (_run_digital_snr, False),
    ("snr_db", SCHEME_WEAK): (_run_weak_snr, False),
    ("snr_db", SCHEME_ANALOG): (_run_analog_snr, True),
    ("loss", SCHEME_DIGITAL): (_run_digital_loss, True),
    ("loss", SCHEME_WEAK): (_run_weak_loss, True),
}


def run_record(ctx: SweepContext, scheme_idx: int, cond_idx: int,
               trial: int) -> dict:
    scn = ctx.scenario
    sp = scn["schemes"][scheme_idx]
    kind = scn["conditions"]["kind"]
    value = scn["conditions"]["values"][cond_idx]
    entry = _RUNNERS.get((kind, sp["scheme"]))
    if entry is None:
        raise ConfigError("analog_jscc runs under snr_db conditions only")
    runner, draws = entry
    if draws:
        rng = np.random.default_rng(derive_seed(scn["seed"], cond_idx, trial))
        row = runner(ctx, sp, value, rng)
    else:
        key = (scheme_idx, cond_idx)
        if key not in ctx.record_cache:
            ctx.record_cache[key] = runner(ctx, sp, value)
        row = ctx.record_cache[key]
    return dict(row, seed=trial)


# ---------------------------------------------------------------------------
# Sweep driver


_WORKER_CTX: SweepContext | None = None
_CHUNK = 4  # tasks a worker takes at a time


def _mp_init(scn_json: str) -> None:
    global _WORKER_CTX
    _WORKER_CTX = build_context(json.loads(scn_json))


def _mp_run(task):
    return task, run_record(_WORKER_CTX, *task)


def sweep(scn: dict, jobs: int = 1) -> list[dict]:
    """Run every (scheme, condition, trial) record of a scenario."""
    scn = validate_scenario(scn)
    tasks = [(si, ci, ti)
             for si in range(len(scn["schemes"]))
             for ci in range(len(scn["conditions"]["values"]))
             for ti in range(scn["num_seeds"])]
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    # Each worker imports and builds the whole context before its first
    # task, so a worker that would get no chunk of tasks is never started.
    jobs = min(jobs, -(-len(tasks) // _CHUNK))
    if jobs <= 1:
        ctx = build_context(scn)
        records = [run_record(ctx, *t) for t in tasks]
    else:
        import multiprocessing as mp
        with mp.get_context("spawn").Pool(jobs, initializer=_mp_init,
                                          initargs=(json.dumps(scn),)) as pool:
            results = dict(pool.map(_mp_run, tasks, chunksize=_CHUNK))
        records = [results[t] for t in tasks]
    # canonical merge order, independent of how trials were executed
    records.sort(key=lambda r: (r["scheme"], r["condition"], r["seed"]))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def records_to_csv(records: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(rec[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
