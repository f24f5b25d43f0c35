import copy
import json

import numpy as np
import pytest

from gjcodec.errors import ConfigError
from gjcodec.pipelines import (CSV_COLUMNS, build_context, derive_seed,
                               digital_image, digital_symbols, mcs_pick,
                               records_to_csv, run_record, sweep,
                               validate_scenario)
from gjcodec.sources import ImageGrid


def _base_scenario(**over):
    scn = {
        "name": "unit",
        "seed": 5,
        "num_seeds": 2,
        "source": {"type": "ar1", "height": 32, "width": 32, "rho": 0.9,
                   "sigma": 25.0, "mean": 128.0, "seed": 3},
        "conditions": {"kind": "snr_db", "values": [6.0, 0.0]},
        "bandwidth_ratio": 0.05,
        "mcs_table": [[1.0, -2.0], [2.0, 0.0], [4.5, 4.0]],
        "schemes": [
            {"scheme": "digital_separate", "label": "digital",
             "sq_step": 24.0, "sq_alphabet": 32, "context_order": 1,
             "est_snr_db": 0.0},
            {"scheme": "analog_jscc", "label": "analog"},
        ],
    }
    scn.update(over)
    return scn


def test_validate_passes_and_deep_copies():
    scn = _base_scenario()
    out = validate_scenario(scn)
    assert out is not scn
    out["schemes"][0]["sq_step"] = 99.0
    assert scn["schemes"][0]["sq_step"] == 24.0


def test_unknown_keys_are_named_in_the_error():
    scn = _base_scenario()
    scn["sourse"] = {}
    with pytest.raises(ConfigError, match="sourse"):
        validate_scenario(scn)


def test_unknown_scheme_keys_rejected():
    scn = _base_scenario()
    scn["schemes"][0]["stride"] = 4
    with pytest.raises(ConfigError, match="stride"):
        validate_scenario(scn)


def test_missing_required_field():
    scn = _base_scenario()
    del scn["bandwidth_ratio"]
    with pytest.raises(ConfigError, match="bandwidth_ratio"):
        validate_scenario(scn)


def test_duplicate_scheme_labels_rejected():
    scn = _base_scenario()
    scn["schemes"].append(dict(scn["schemes"][0]))
    with pytest.raises(ConfigError, match="label"):
        validate_scenario(scn)


def test_bad_condition_kind():
    scn = _base_scenario()
    scn["conditions"]["kind"] = "snr"
    with pytest.raises(ConfigError):
        validate_scenario(scn)


def test_analog_under_loss_rejected():
    scn = _base_scenario()
    scn["conditions"] = {"kind": "loss", "values": [0.1],
                         "burst_mean": 2.0, "window": 20}
    scn["fec"] = {"k": 20}
    scn["schemes"] = [{"scheme": "analog_jscc", "label": "analog"}]
    with pytest.raises(ConfigError):
        validate_scenario(scn)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
    assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
    assert derive_seed(1, "x") != derive_seed(1, "y")


def test_mcs_pick_threshold_semantics():
    table = [(1.0, -2.0), (2.0, 0.0), (4.5, 4.0)]
    assert mcs_pick(table, 4.0) == 2      # boundary is inclusive
    assert mcs_pick(table, 3.9) == 1
    assert mcs_pick(table, -1.0) == 0
    assert mcs_pick(table, -2.5) is None  # below every mode


@pytest.mark.parametrize("step,alphabet", [(16.0, 64), (40.0, 16)])
def test_digital_symbol_stream_round_trips(step, alphabet, rng):
    img = ImageGrid(rng.integers(0, 256, (24, 40), dtype=np.uint8))
    syms = digital_symbols(img, step, alphabet)
    rec = digital_image(syms, 24, 40, step, alphabet)
    # re-coding the decoded image reproduces the identical stream
    np.testing.assert_array_equal(digital_symbols(rec, step, alphabet), syms)


def test_build_context_budget_floor():
    ctx = build_context(_base_scenario())
    assert ctx.budget_symbols == int(0.05 * 32 * 32)
    assert ctx.image.pixels == 1024


def test_run_record_deterministic():
    scn = validate_scenario(_base_scenario())
    ctx = build_context(scn)
    a = run_record(ctx, 0, 0, 1)
    b = run_record(ctx, 0, 0, 1)
    assert a == b
    assert list(a.keys()) == list(CSV_COLUMNS)


def test_sweep_product_count_and_determinism():
    scn = _base_scenario()
    rec1 = sweep(scn)
    assert len(rec1) == 2 * 2 * 2  # schemes x conditions x seeds
    csv1 = records_to_csv(rec1)
    csv2 = records_to_csv(sweep(scn))
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_sweep_orders_records_canonically():
    recs = sweep(_base_scenario())
    key = [(r["scheme"], r["condition"], r["seed"]) for r in recs]
    assert key == sorted(key)


def test_sweep_worker_pool_matches_serial():
    scn = _base_scenario()
    assert records_to_csv(sweep(scn, jobs=2)) == records_to_csv(sweep(scn))


@pytest.mark.parametrize("kind,jobs", [("loss", 2), ("loss", 4),
                                       ("snr_db", 2)])
def test_sweep_pool_workers_build_nothing(monkeypatch, kind, jobs):
    """The parent builds every artifact and RNG-free record before it forks,
    so pool workers (here up to twice as many as cores) never train, encode
    or decode a stream."""
    import os

    import gjcodec.pipelines as pipelines
    parent = os.getpid()

    def parent_only(fn):
        def wrapper(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"{fn.__name__} ran in a pool worker")
            return fn(*args, **kwargs)
        return wrapper

    scn = _mixed_scenario(kind)
    serial = records_to_csv(sweep(scn))
    for name in ("vq_train", "train", "ac_encode", "ac_decode"):
        monkeypatch.setattr(pipelines, name,
                            parent_only(getattr(pipelines, name)))
    assert records_to_csv(sweep(scn, jobs=jobs)) == serial
    assert pipelines._WORKER_CTX is None


def test_sweep_without_fork_runs_serially(monkeypatch):
    """Where fork is unavailable, --jobs falls back to the serial path
    instead of starting workers that would rebuild everything."""
    import multiprocessing

    scn = _base_scenario()
    serial = records_to_csv(sweep(scn))

    def no_pool(method):
        raise AssertionError(f"started a {method} pool")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert records_to_csv(sweep(scn, jobs=2)) == serial


def test_analog_scheme_reports_budget_bandwidth():
    recs = [r for r in sweep(_base_scenario()) if r["scheme"] == "analog"]
    assert all(r["bandwidth_ratio"] == pytest.approx(51 / 1024) for r in recs)


def test_digital_snr_monotone_seed_average():
    # 6 dB succeeds, 0 dB with est 0 also succeeds; psnr(6) >= psnr(0)
    recs = sweep(_base_scenario())
    def avg(label, cond):
        ps = [r["psnr"] for r in recs
              if r["scheme"] == label and r["condition"] == cond]
        return float(np.mean(ps))
    assert avg("digital", 6.0) >= avg("digital", 0.0)
    assert avg("analog", 6.0) >= avg("analog", 0.0)


def test_scenario_json_round_trip(tmp_path):
    # scenario dicts survive JSON serialization untouched
    scn = _base_scenario()
    blob = json.dumps(validate_scenario(scn))
    assert validate_scenario(json.loads(blob)) == validate_scenario(scn)


# Golden CSV digests of the bundled scenarios at reduced size.  Any change
# to the bytes a sweep writes must update these with a CHANGES.md entry.
@pytest.mark.parametrize("name,digest", [
    ("fig5", "94230419e5452de5e39650da1afc8ea56f821717cfa016b2753fcfbf1b26eec2"),
    ("fig6", "cdc6986a5f5e8cc61ab01ac317fe92db2b807dbf2b643c45928f1a71e3818e72"),
])
def test_bundled_sweep_golden_digest(name, digest):
    import hashlib
    from importlib import resources
    ref = resources.files("gjcodec") / "scenarios" / f"{name}.json"
    scn = json.loads(ref.read_text(encoding="utf-8"))
    scn["num_seeds"] = 2  # trial 1 repeats the RNG-free records of trial 0
    scn["train"]["images"] = 1
    csv_text = records_to_csv(sweep(scn))
    assert hashlib.sha256(csv_text.encode("ascii")).hexdigest() == digest


def _mixed_scenario(kind):
    """weak_jscc beside digital schemes, small enough to sweep in a second."""
    scn = _base_scenario(
        num_seeds=3, packets=4,
        train={"images": 1, "height": 32, "width": 32, "rho": 0.9,
               "sigma": 25.0, "mean": 128.0, "seed": 8})
    weak = {"scheme": "weak_jscc", "label": "weak", "codebook_size": 16,
            "context_order": 1}
    digital = scn["schemes"][0]
    if kind == "loss":
        scn["conditions"] = {"kind": "loss", "values": [0.1, 0.3],
                             "burst_mean": 2.0, "window": 20}
        scn["fec"] = {"k": 10}
        del digital["est_snr_db"]
        scn["schemes"] = [weak,
                          dict(digital, label="fec_1x", fec_multiplier=1),
                          dict(digital, label="fec_4x", fec_multiplier=4)]
    else:
        scn["schemes"].append(weak)
    return scn


def test_sweep_work_counts_per_packet_not_per_record(monkeypatch):
    import gjcodec.fec as fec
    import gjcodec.pipelines as pipelines
    from gjcodec.context import _CountModel

    decoded_alphabets, trained_hashes, fec_blocks = [], [], []
    real_decode = pipelines.ac_decode
    real_serialize = _CountModel._serialize
    real_fec_encode = fec.fec_encode

    def decode(stream, model, adaptive=False):
        decoded_alphabets.append(stream.alphabet)
        return real_decode(stream, model, adaptive)

    def serialize(model):
        if model.counts:  # a trained model; coders start from empty ones
            trained_hashes.append(model.alphabet)
        return real_serialize(model)

    def fec_encode(data, r):
        fec_blocks.append(r)
        return real_fec_encode(data, r)

    monkeypatch.setattr(pipelines, "ac_decode", decode)
    monkeypatch.setattr(_CountModel, "_serialize", serialize)
    monkeypatch.setattr(fec, "fec_encode", fec_encode)
    recs = sweep(_mixed_scenario("loss"))

    assert len(recs) == 3 * 2 * 3
    # each weak packet once, plus the one check decode of the digital stream
    assert sorted(decoded_alphabets) == [16] * 4 + [32]
    assert trained_hashes == [16]
    used_r = {r["fec_r"] for r in recs if r["fec_r"] is not None}
    assert sorted(fec_blocks) == sorted(used_r)


@pytest.mark.parametrize("kind", ["snr_db", "loss"])
def test_memoised_records_match_a_fresh_context(kind, monkeypatch):
    import gjcodec.pipelines as pipelines
    scn = validate_scenario(_mixed_scenario(kind))
    recs = sweep(scn)
    conceal_calls = []
    real_conceal = pipelines._conceal.conceal

    def conceal(*args, **kwargs):
        conceal_calls.append(1)
        return real_conceal(*args, **kwargs)

    monkeypatch.setattr(pipelines._conceal, "conceal", conceal)
    ctx = build_context(scn)
    values = scn["conditions"]["values"]
    for si, sp in enumerate(scn["schemes"]):
        for ci, value in enumerate(values):
            for trial in (1, 2):  # trial 1 fills the memo, not trial 0
                row = run_record(ctx, si, ci, trial)
                assert list(row) == list(CSV_COLUMNS)
                assert row == next(r for r in recs
                                   if r["scheme"] == sp["label"]
                                   and r["condition"] == value
                                   and r["seed"] == trial)
    # weak records at snr_db draw nothing, so trial 2 conceals nothing new
    assert len(conceal_calls) == len(values) * (1 if kind == "snr_db" else 2)


def _bundled(name):
    from importlib import resources
    ref = resources.files("gjcodec") / "scenarios" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


# SHA-256 of each normalised scenario, measured before the scheme table
# replaced the hand-written validation: every default it fills stays.
@pytest.mark.parametrize("make,digest", [
    (lambda: _bundled("fig5"),
     "b13421c7e8e737d47a3975f0627b5cf63bd669278ce6e8d17c2d9e660ba3d90e"),
    (lambda: _bundled("fig6"),
     "24dbcc423dc1774821673828bf54fb5787efd7e55be0b58d63500207c8f380df"),
    (_base_scenario,
     "1bcd041554e23e41566198ed660b30bee3a970206ee64c1605d999376642a38d"),
    (lambda: _mixed_scenario("snr_db"),
     "fb94c3caabda78a64d068d81632c55b16bc95e5e6df6e32b5713516394f501c3"),
    (lambda: _mixed_scenario("loss"),
     "1a4b675aac39e4870f9289557627632a7dc199452ed403e8dab74158308ce92e"),
], ids=["fig5", "fig6", "base", "mixed_snr_db", "mixed_loss"])
def test_normalised_scenario_golden_digest(make, digest):
    import hashlib
    blob = json.dumps(validate_scenario(make()), sort_keys=True)
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("name, path, bound", [
    ("fig5", ("num_seeds",), 10_000),
    ("fig5", ("source", "width"), 4096),
    ("fig5", ("source", "height"), 4096),
    ("fig5", ("train", "width"), 4096),
    ("fig5", ("train", "height"), 4096),
    ("fig5", ("train", "images"), 64),
    ("fig5", ("conditions", "window"), 10 ** 6),
    ("fig6", ("conditions", "window"), 10 ** 6),
])
def test_size_bounds_are_inclusive(name, path, bound):
    """A size at its bound validates; one more is a ConfigError naming the
    field and the range."""
    scn = _bundled(name)
    node = scn
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bound
    assert validate_scenario(scn) is not None
    node[path[-1]] = bound + 1
    with pytest.raises(ConfigError, match=rf"{'.'.join(path)} must be an "
                                          rf"integer in \[1, {bound}\]"):
        validate_scenario(scn)


def _json_type(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}.get(type(value), "null")


def _json_nodes(node, path=()):
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_nodes(child, path + (key,))


@pytest.mark.parametrize("name", ["fig5", "fig6"])
def test_value_of_another_json_type_is_rejected(name):
    """Every value of a bundled scenario, replaced by a value of each other
    JSON type, makes the scenario invalid."""
    import random
    rng = random.Random(7)
    pools = {"string": ["", "x", "ar1", "snr_db", "weak_jscc"],
             "number": [0, 1, -1, 2.5, 50],
             "boolean": [True, False],
             "null": [None],
             "list": [[], [1], [True], [[1.0, 0.0]]],
             "object": [{}, {"type": "ar1"}, {"k": 50}]}
    scn = _bundled(name)
    cases = 0
    for path, value in _json_nodes(scn):
        for kind, pool in pools.items():
            if kind == _json_type(value):
                continue
            mutated = copy.deepcopy(scn)
            replacement = copy.deepcopy(rng.choice(pool))
            if path:
                node = mutated
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = replacement
            else:
                mutated = replacement
            with pytest.raises(ConfigError):
                validate_scenario(mutated)
            cases += 1
    assert cases > 200


def _reference_dc_decode(res):
    """The per-block loop that undid the DC prediction before."""
    rows, cols = res.shape
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
    return dc


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 9), (7, 1), (5, 8), (11, 6)])
def test_dc_plane_decodes_like_the_per_block_loop(rows, cols, monkeypatch):
    import gjcodec.pipelines as pipelines
    from gjcodec.transform import symbol_to_signed
    rng = np.random.default_rng(rows * 100 + cols)
    dequantized = []
    real = pipelines.sq_dequantize

    def capture(q, step):
        dequantized.append(q.copy())
        return real(q, step)

    monkeypatch.setattr(pipelines, "sq_dequantize", capture)
    for _ in range(60):
        alphabet = int(rng.choice([4, 64, 4096]))
        syms = rng.integers(0, alphabet, rows * cols * 64)
        digital_image(syms, rows * 8, cols * 8, 16.0, alphabet)
        res = symbol_to_signed(syms[:rows * cols]).reshape(rows, cols)
        np.testing.assert_array_equal(
            dequantized[-1][:, 0].reshape(rows, cols), _reference_dc_decode(res))
