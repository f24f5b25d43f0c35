"""The scenario format: `load_scenario` reads a bundled scenario or a JSON
file and applies its `--set` overrides; `validate_scenario` checks it and
fills in its defaults, with one field checker for every section.  Each
scheme's rules live in its entry of `SCHEMES`: the field spec of its
scenario entries and what it needs under each condition kind.
"""

from __future__ import annotations

import json
import math
import sys
from typing import NamedTuple

from .channel import burst_transitions, mcs_pick
from .context import MAX_ALPHABET, MAX_CONTEXT_ALPHABET, MAX_ORDER
from .errors import ConfigError, existing_input
from .fec import MAX_BLOCK
from .sources import MAX_SIDE
from .transform import BLOCK, MAX_STEP, MIN_STEP
from .vq import MAX_CODEWORDS

_BUNDLED = ("fig5", "fig6")


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


# ---------------------------------------------------------------------------
# Field specs


_REQUIRED = object()


class _Field(NamedTuple):
    """One scenario field.  `type` is its JSON type: int, float (any finite
    number), str, bool, list (non-empty, each element checked against the
    _Field `item`) or dict (checked against the spec `item`, a dict of
    fields; with `tag`, against `item[v[tag]]`, which leaves the tag out).
    `default` is _REQUIRED, None (optional, not filled in) or the value
    filled in when the field is absent.  Numbers lie between lo and hi,
    each end closed or open as the bracket pair `ends` shows; strings among
    `choices`."""

    type: type
    default: object = _REQUIRED
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[]"
    choices: tuple = ()
    item: object = None
    tag: str = ""


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "a boolean", list: "a non-empty list"}


def _describe(f: _Field) -> str:
    if f.choices:
        return f"one of: {', '.join(f.choices)}"
    left, right = f.ends
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
    """`v` checked against `f`; raises ConfigError naming `path` and quoting
    `v` as given.  An object has its unknown keys rejected, its fields
    required and its defaults filled in, except for names in `optional`,
    which are neither required nor filled in.  An int field stores an
    integral number as an int."""
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
              and (f.type is float or v == int(v))
              and (f.lo <= v if f.ends[0] == "[" else f.lo < v)
              and (v <= f.hi if f.ends[1] == "]" else v < f.hi))
    else:
        ok = (isinstance(v, f.type) and (f.type is not list or len(v) > 0)
              and (not f.choices or v in f.choices))
    if not ok:
        raise ConfigError(f"{path} must be {_describe(f)}, got {_quote(v)}")
    if f.type is list:
        return [_check(x, f.item, f"{path}[{i}]", optional)
                for i, x in enumerate(v)]
    return int(v) if f.type is int else v


# Size bounds: see "Scenario files" in README.md.
_MAX_TRAIN_IMAGES = 64
_MAX_SEEDS = 10_000
_MAX_WINDOW = 10 ** 6
# Every pixel saturates long before an AR field of this deviation.
_SIGMA = _Field(float, lo=-1e4, hi=1e4)
# An AR(1) correlation below 1 keeps the field stationary.
_RHO = _Field(float, lo=0, hi=1, ends="[)")
# Channel symbols per pixel and coded bits per channel symbol: a channel
# budget in bits, their product times the pixels, stays a finite integer.
_MAX_RATIO = _MAX_EFFICIENCY = 64
_TEXTURE = {"rho": _RHO, "sigma": _SIGMA,
            "upsample": _Field(int, 1, lo=1), "bandpass": _Field(bool, False)}
_AR1 = {"width": _Field(int, lo=1, hi=MAX_SIDE),
        "height": _Field(int, lo=1, hi=MAX_SIDE),
        # the mean is a pixel level, in the 8-bit range
        "rho": _RHO, "sigma": _SIGMA, "mean": _Field(float, lo=0, hi=255),
        "upsample": _Field(int, 1, lo=1),
        "texture": _Field(dict, None, item=_TEXTURE)}
_SOURCES = {"ar1": {"seed": _Field(int, lo=0), **_AR1},
            "pgm": {"path": _Field(str)}}
_CONDITIONS = {
    # beyond +-1000 dB no channel is physical, and near +-3000 dB the noise
    # power 10 ** (-snr / 10) leaves the float range
    "snr_db": {"values": _Field(list, item=_Field(float, lo=-1000, hi=1000))},
    "loss": {"values": _Field(list, item=_Field(float, lo=0, hi=1, ends="()")),
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


def check_tile(sp: dict, where: str, height: int, width: int) -> None:
    """The tile a scheme entry cuts images into, its patch or else the DCT
    block, divides both sides of the `where` image."""
    tile = sp.get("patch", BLOCK)
    if height % tile or width % tile:
        what = "patch" if "patch" in sp else "block side"
        raise ConfigError(f"{what} {tile} of scheme {sp['label']!r} does not "
                          f"divide the {where} sides {width}x{height}")


# name: (field spec of its `schemes` entries, {each condition kind it runs
# under: the sections and fields it needs under that kind})
SCHEMES = {
    "digital_separate": (
        {"label": _Field(str),
         "sq_step": _Field(float, 16.0, lo=MIN_STEP, hi=MAX_STEP),
         "sq_alphabet": _Field(int, 256, lo=2, hi=MAX_ALPHABET),
         "context_order": _ORDER, "est_snr_db": _Field(float),
         "fec_multiplier": _Field(int, lo=1)},
        {"snr_db": ("mcs_table", "est_snr_db"),
         "loss": ("fec", "fec_multiplier")}),
    "weak_jscc": (
        {"label": _Field(str),
         "patch": _Field(int, 4, lo=1),
         "codebook_size": _Field(int, 256, lo=2, hi=MAX_CODEWORDS),
         "context_order": _ORDER,
         "conceal_schedule": _Field(str, "confidence",
                                    choices=("confidence", "raster")),
         "conceal_mode": _Field(str, "neighborhood",
                                choices=("neighborhood", "marginal"))},
        {"snr_db": ("mcs_table", "train", "packets"),
         "loss": ("train", "packets")}),
    "analog_jscc": ({"label": _Field(str)}, {"snr_db": ()}),
}

_SCENARIO = _Field(dict, item={
    "name": _Field(str), "seed": _Field(int),
    "num_seeds": _Field(int, lo=1, hi=_MAX_SEEDS),
    "bandwidth_ratio": _Field(float, lo=0, hi=_MAX_RATIO, ends="()"),
    "source": _Field(dict, item=_SOURCES, tag="type"),
    "conditions": _Field(dict, item=_CONDITIONS, tag="kind"),
    "schemes": _Field(list, item=_Field(dict, tag="scheme", item={
        name: fields for name, (fields, _) in SCHEMES.items()})),
    "mcs_table": _Field(list, item=_Field(list, item=_Field(float))),
    "train": _Field(dict, item={"images": _Field(int, lo=1,
                                                 hi=_MAX_TRAIN_IMAGES),
                                "seed": _Field(int), **_AR1}),
    # A weak record reads as many slots of its loss trace's one block.
    "packets": _Field(int, 16, lo=2, hi=MAX_BLOCK),
    "fec": _Field(dict, item={"k": _Field(int, lo=1, hi=MAX_BLOCK - 1)}),
})
# Required (or filled in) only when a scheme needs them under the kind.
_CONDITIONAL = frozenset(name for _, needs in SCHEMES.values()
                         for names in needs.values() for name in names)


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
        _, needs = SCHEMES[sp["scheme"]]
        if kind not in needs:
            raise ConfigError(f"schemes[{i}]: {sp['scheme']} runs under "
                              f"{' or '.join(needs)} conditions only")
        if sp["label"] in labels:
            raise ConfigError(f"duplicate scheme label {sp['label']!r}")
        labels.add(sp["label"])
        needed.update(needs[kind])
    _check(out, _SCENARIO, "", _CONDITIONAL - needed)
    cond = out["conditions"]
    if kind == "loss":
        cond.setdefault("window", out["fec"]["k"] if "fec" in needed else 50)
        b = cond["burst_mean"]
        for i, loss in enumerate(cond["values"]):
            if burst_transitions(loss, b)[0] > 1.0:
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
            check_tile(sp, "train", out["train"]["height"],
                       out["train"]["width"])
    if out["source"]["type"] == "ar1":
        _check_layers(out["source"], "source")
    if "train" in out:
        _check_layers(out["train"], "train")
    return out
