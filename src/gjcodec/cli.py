"""Command-line interface.

Subcommands: compress, decompress, train-codebook, train-model, simulate,
sweep.  Exit codes: 0 success, 2 usage/configuration problems (including a
missing user-supplied input file), 3 operating-system I/O failures, 4
malformed data files.  Human-readable messages go to stderr; machine
output (CSV, JSON, binary artifacts) goes to stdout or --output files.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys

import numpy as np

from .context import (CausalContextModel, NeighborhoodModel, load_model,
                      train as train_context)
from .entropy import Bitstream, ac_decode, ac_encode
from .errors import (ConfigError, FormatError, GjcError, ParameterError,
                     existing_input, output_file, read_header)
from .pipelines import (build_context, digital_image, digital_symbols,
                        records_to_csv, run_record, sweep, validate_scenario)
from .sources import MAX_SIDE, load_pgm, save_pgm
from .transform import BLOCK, MAX_STEP, MIN_STEP
from .vq import extract_patches, load_codebook, save_codebook, tokenize, vq_train

_CONTAINER_MAGIC = b"GJCF"
_CONTAINER_VERSION = 1
_CONTAINER_HEADER = "<BHHdHBB"
_BUNDLED = ("fig5", "fig6")


def _err(msg: str) -> None:
    print(f"gjcodec: error: {msg}", file=sys.stderr)


def _slot(node, part: str):
    """The key of dict `node`, or the index into list `node`, that one part
    of a --set path names; KeyError when it names neither."""
    if isinstance(node, dict):
        return part
    if isinstance(node, list) and part in map(str, range(len(node))):
        return int(part)
    raise KeyError(part)


def load_scenario(name_or_path: str, assignments: list[str]):
    """The JSON of a bundled scenario or a scenario file, with the --set
    dotted.path=json_value overrides applied, not yet validated; a part
    that is the index of a list entry names that entry."""
    if name_or_path in _BUNDLED:
        from importlib import resources
        ref = resources.files("gjcodec") / "scenarios" / f"{name_or_path}.json"
        text = ref.read_bytes()
    else:
        with open(existing_input(name_or_path), "rb") as fh:
            text = fh.read()
    try:
        scn = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers beyond Python's
        # digit limit; RecursionError, nesting beyond the parser's depth
        raise ConfigError(f"scenario is not valid JSON: {exc}") from None
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"--set {path}: value is not usable: {exc}") from None
        *parents, last = path.split(".")
        node = scn
        try:
            for p in parents:
                node = node[_slot(node, p)]
            node[_slot(node, last)] = value
        except KeyError:
            raise ConfigError(f"--set path {path!r} does not exist") from None
    return scn


def _load_tiled(path: str, tile: int, name: str):
    """The PGM at `path`, whose sides `tile` must divide; a ConfigError
    names the path and `name`, what sets the tile, when it does not."""
    image = load_pgm(existing_input(path))
    if image.height % tile or image.width % tile:
        raise ConfigError(f"{path}: sides {image.width}x{image.height} are "
                          f"not multiples of {name} {tile}")
    return image


# ---------------------------------------------------------------------------
# compress / decompress


def _cmd_compress(args) -> int:
    image = _load_tiled(args.input, BLOCK, "the DCT block")
    if args.model:
        model = load_model(existing_input(args.model))
        if not isinstance(model, CausalContextModel):
            raise ConfigError("compress needs a causal context model")
    else:
        model = CausalContextModel(args.alphabet, order=args.order)
    adaptive = not args.model
    syms = digital_symbols(image, args.step, model.alphabet)
    stream = ac_encode(syms, model, adaptive=adaptive)
    header = _CONTAINER_MAGIC + struct.pack(
        _CONTAINER_HEADER, _CONTAINER_VERSION, image.height, image.width,
        args.step, model.alphabet, model.order, 0 if adaptive else 1)
    blob = header + stream.to_bytes()
    with output_file(args.output) as fh:
        fh.write(blob)
    # machine-readable stats line on stdout; chatter stays on stderr
    print(f"bpp={8 * len(blob) / image.pixels:.6f} "
          f"cross_entropy={stream.cost_bits / max(1, len(syms)):.6f}")
    print(f"{args.input}: {image.pixels} px -> "
          f"{stream.payload_bits} payload bits", file=sys.stderr)
    return 0


def _cmd_decompress(args) -> int:
    with open(existing_input(args.input), "rb") as fh:
        blob = fh.read()
    (height, width, step, alphabet, order, modeled), start = read_header(
        blob, _CONTAINER_MAGIC, _CONTAINER_HEADER, _CONTAINER_VERSION,
        "container")
    if height == 0 or width == 0 or height % BLOCK or width % BLOCK:
        raise FormatError(
            f"image size {height}x{width} is not a positive multiple of {BLOCK}")
    # bounds the decode to 4096**2 symbols, whatever the payload admits
    if max(height, width) > MAX_SIDE:
        raise FormatError(f"image size {height}x{width}: a container cannot "
                          f"hold a side above {MAX_SIDE}")
    if not MIN_STEP <= step <= MAX_STEP:
        raise FormatError(f"quantizer step {step} is outside "
                          f"[{MIN_STEP:g}, {MAX_STEP:g}]")
    if alphabet < 2:
        raise FormatError(f"alphabet {alphabet} is below 2")
    if modeled not in (0, 1):
        raise FormatError(f"model flag {modeled} is neither 0 nor 1")
    stream = Bitstream.from_bytes(blob[start:])
    # Checked before decoding, so the decoder's run time and memory are
    # bounded by the container's image size, not by a hostile symbol count.
    if stream.alphabet != alphabet:
        raise FormatError(
            f"stream alphabet {stream.alphabet} != container alphabet {alphabet}")
    if stream.n_symbols != height * width:
        raise FormatError(
            f"stream holds {stream.n_symbols} symbols, expected {height * width}")
    if modeled:
        if not args.model:
            raise ConfigError(
                "this file was compressed with a trained model; pass --model")
        model = load_model(existing_input(args.model))
        adaptive = False
    else:
        try:
            model = CausalContextModel(alphabet, order=order)
        except ParameterError as exc:
            raise FormatError(f"container: {exc}") from None
        adaptive = True
    try:
        syms = ac_decode(stream, model, adaptive=adaptive)
        image = digital_image(syms, height, width, step, alphabet)
    except GjcError:
        raise
    except (MemoryError, ValueError) as exc:
        raise FormatError(f"stream cannot be decoded: "
                          f"{type(exc).__name__}: {exc}") from None
    save_pgm(image, args.output)
    print(f"{args.input}: restored {height}x{width} image", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# training


def _cmd_train_codebook(args) -> int:
    if args.patch < 1:
        raise ConfigError(f"--patch must be >= 1, got {args.patch}")
    images = [_load_tiled(path, args.patch, "--patch") for path in args.images]
    patches = [extract_patches(img.samples, args.patch) for img in images]
    cb = vq_train(np.concatenate(patches, axis=0), args.size, iters=args.iters,
                  seed=args.seed)
    save_codebook(cb, args.output)
    print(f"codebook: {cb.size} x {cb.dim} (seed {args.seed}) -> {args.output}",
          file=sys.stderr)
    return 0


def _cmd_train_model(args) -> int:
    if args.codebook:
        cb = load_codebook(existing_input(args.codebook))
        patch = int(round(cb.dim ** 0.5))
        if patch * patch != cb.dim:
            raise ConfigError("codebook dimension is not a square patch")
        alphabet = cb.size
        images = [_load_tiled(path, patch, "the codebook's patch side")
                  for path in args.images]
        grids = [tokenize(cb, img.samples, patch) for img in images]
    else:
        alphabet = 256
        grids = [load_pgm(existing_input(path)).samples.astype(np.int64)
                 for path in args.images]
    if args.kind == "causal":
        model = CausalContextModel(alphabet, order=args.order, alpha=args.alpha)
    else:
        model = NeighborhoodModel(alphabet, alpha=args.alpha)
    train_context(model, grids)
    model.save(args.output)
    print(f"{args.kind} model over {alphabet} symbols "
          f"({len(grids)} grids) -> {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# experiments


def _cmd_simulate(args) -> int:
    scn = validate_scenario(load_scenario(args.scenario, args.set or []))
    labels = [sp["label"] for sp in scn["schemes"]]
    if args.scheme not in labels:
        raise ConfigError(
            f"unknown scheme label {args.scheme!r}; scenario has: {', '.join(labels)}")
    values = scn["conditions"]["values"]
    if args.condition not in values:
        raise ConfigError(
            f"condition {args.condition} not in scenario values {values}")
    if not 0 <= args.trial < scn["num_seeds"]:
        raise ConfigError(
            f"trial must be in 0..{scn['num_seeds'] - 1}, got {args.trial}")
    # Only this scheme is built; seeds hash no scheme index and no artifact
    # reads another scheme entry, so the record is the sweep's.
    sp = scn["schemes"][labels.index(args.scheme)]
    ctx = build_context(dict(scn, schemes=[sp]))
    row = run_record(ctx, 0, values.index(args.condition), args.trial)
    json.dump(row, sys.stdout, indent=2)
    print()
    return 0


def _cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario, args.set or [])
    if args.output == "-":
        sys.stdout.write(records_to_csv(sweep(scn, jobs=args.jobs)))
        return 0
    # Opened before the sweep runs, so an unwritable path fails at once.
    with output_file(args.output) as fh:
        records = sweep(scn, jobs=args.jobs)
        fh.write(records_to_csv(records).encode("ascii"))
    print(f"{len(records)} records -> {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gjcodec",
        description="Context-model image codec with loss concealment and "
                    "channel simulation experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a PGM image")
    p.add_argument("--input", required=True, help="input PGM (P5) image")
    p.add_argument("--output", required=True, help="output compressed file")
    p.add_argument("--step", type=float, default=16.0,
                   help="quantizer step size (default 16)")
    p.add_argument("--alphabet", type=int, default=256,
                   help="symbol alphabet size for adaptive coding "
                        "(default 256); --model sets its own")
    p.add_argument("--order", type=int, default=2,
                   help="context order for adaptive coding (default 2); "
                        "--model sets its own")
    p.add_argument("--model", help="trained causal model (static coding)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="restore a PGM image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--model", help="model used at compression time, if any")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("train-codebook",
                       help="train a vector-quantizer codebook from images")
    p.add_argument("images", nargs="+", help="training PGM images")
    p.add_argument("--output", required=True)
    p.add_argument("--patch", type=int, default=4)
    p.add_argument("--size", type=int, default=256, help="codebook entries")
    p.add_argument("--iters", type=int, default=25, help="k-means iterations")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train_codebook)

    p = sub.add_parser("train-model",
                       help="train a context model from images or tokens")
    p.add_argument("images", nargs="+", help="training PGM images")
    p.add_argument("--output", required=True)
    p.add_argument("--kind", choices=("causal", "neighborhood"),
                   default="causal")
    p.add_argument("--codebook",
                   help="tokenize images with this codebook first")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=_cmd_train_model)

    p = sub.add_parser("simulate", help="run one transmission record")
    p.add_argument("--scenario", required=True,
                   help="bundled name (fig5, fig6) or JSON path")
    p.add_argument("--scheme", required=True, help="scheme label")
    p.add_argument("--condition", type=float, required=True)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override scenario fields (JSON values)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a full scenario sweep to CSV")
    p.add_argument("--scenario", required=True,
                   help="bundled name (fig5, fig6) or JSON path")
    p.add_argument("--output", default="-", help="CSV path, or - for stdout")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        _err(str(exc))
        return 4
    except OSError as exc:
        _err(f"I/O failure: {exc}")
        return 3
    except GjcError as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
