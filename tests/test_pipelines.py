import contextlib
import copy
import json
import signal

import numpy as np
import pytest

from gjcodec.channel import mcs_pick
from gjcodec.errors import ConfigError
from gjcodec.pipelines import (CSV_COLUMNS, build_context, digital_image,
                               digital_symbols, records_to_csv, run_record,
                               sweep)
from gjcodec.scenario import validate_scenario
from gjcodec.sources import ImageGrid, derive_seed


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


def test_every_scheme_has_a_spec_and_runners_for_the_same_kinds():
    """The scenario format and the sweep know the same schemes, and each
    scheme runs under exactly the condition kinds its spec accepts."""
    import gjcodec.pipelines as pipelines
    import gjcodec.scenario as scenario
    assert ({name: set(needs) for name, (_, needs) in scenario.SCHEMES.items()}
            == {name: set(s.runs) for name, s in pipelines._SCHEMES.items()})


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
    ctx = build_context(validate_scenario(_base_scenario()))
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


@pytest.mark.parametrize("kind,jobs", [("loss", 1), ("snr_db", 1),
                                       ("loss", 2), ("loss", 4),
                                       ("snr_db", 2)])
def test_sweep_pool_workers_build_nothing(monkeypatch, kind, jobs):
    """Every `jobs` value goes through one built context: the parent builds
    every artifact, FEC block and RNG-free record before it forks, so child
    processes (here up to twice as many as cores) never train, encode or
    decode a stream, nor encode parity; and the sweep keeps no reference to
    the built context once it returns."""
    import os
    import weakref

    import gjcodec.pipelines as pipelines
    parent = os.getpid()

    def parent_only(fn):
        def wrapper(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"{fn.__name__} ran in a child process")
            return fn(*args, **kwargs)
        return wrapper

    scn = _mixed_scenario(kind)
    serial = records_to_csv(sweep(scn))
    for module, name in [(pipelines, "vq_train"), (pipelines, "train"),
                         (pipelines, "ac_encode"), (pipelines, "ac_decode"),
                         (pipelines._fec, "fec_encode")]:
        monkeypatch.setattr(module, name, parent_only(getattr(module, name)))
    built = []
    real_built = pipelines.build_context

    def remember(scn):
        ctx = real_built(scn)
        built.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(pipelines, "build_context", remember)
    assert records_to_csv(sweep(scn, jobs=jobs)) == serial
    assert len(built) == 1 and built[0]() is None


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


def test_sweep_process_count_is_capped(monkeypatch):
    """A `jobs` far beyond the records' chunks asks for no more than
    _MAX_JOBS processes.  _fan_out is replaced by an in-process run, so no
    process is started."""
    import gjcodec.pipelines as pipelines

    scn = _base_scenario(num_seeds=150, schemes=[{"scheme": "analog_jscc",
                                                  "label": "analog"}])
    serial = records_to_csv(sweep(scn))
    asked = []
    real_fan_out = pipelines._fan_out

    def fan_out(ctx, tasks, jobs):
        asked.append(jobs)
        return real_fan_out(ctx, tasks, 1)

    monkeypatch.setattr(pipelines, "_fan_out", fan_out)
    assert serial.count("\n") == 1 + 300  # 75 chunks of four records
    assert records_to_csv(sweep(scn, jobs=10 ** 6)) == serial
    assert asked == [pipelines._MAX_JOBS] == [64]


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


# What build_context builds for the bundled scenarios at full size, stage by
# stage in build order: the source image; per artifact, in the order of the
# scheme entries, the digital symbols, the SHA-256 of the digital stream's
# payload, its FEC block's packets with the packet length (fig6 only: fig5
# sends no FEC block) and the decoded image; the codebook file's SHA-256, the
# neighborhood model's state_hash, the causal model's state_hash that every
# packet stream carries, the token grid and the SHA-256 of the per-stream
# SHA-256s of the weak packet payloads; the analog fitted variances and
# symbols; and the draw-free records as CSV lines in (scheme, condition)
# order.  A count that moves in a context concealment rarely reads moves no
# CSV pin, but moves these; a mismatch names the first stage that moved.
_BUILD_STAGES = {
    "fig5": {
        "source image":
            "f32e727f4bfbea55c6796770b7c3e6a3899c15e03cb83d3c2d5ec720c1892305",
        "digital symbols":
            "1142110a762d345584caf171cef866c669ffc06a0efc26cdc07ba3b73187c8d6",
        "digital stream":
            "80815ab03f31e693a9b4a1c9bf8ba63448e108d25da203cc926654ce5840951b",
        "decoded image":
            "18252bc905a48fb492c3a215158c56e642b0168dcadd63aade758678316ca741",
        "codebook":
            "4db486e5e5577abf1c0dbca3bc8c212900bc0f5d248f1c2d047fb1ab787e48c3",
        "neighborhood model": 0xf7da90d227d8790e,
        "causal model": {0x193061a247d5ba1c},
        "token grid":
            "799ad746b688c486b1f36d6e557ddd88166c885b2ea10fdc02a2badc698e19b9",
        "packets":
            "d46de3c89f6507089386e3777ff07fe329550c6a8a1f61fe6781484d395b9d97",
        "analog variances":
            "5421e83d8a0ef1b0b9386481261dada5b85b4eefe8eb9be83185bfc87fbfa36f",
        "analog symbols":
            "3786e5156e896d7573722512270b8f35f8688f4741dfbfe0cab5837285d7ed94",
        "records":
            "4bf1249b926fe4bb119f76aba178a6137561e584d97aab50179e28c4399271ec",
    },
    "fig6": {
        "source image":
            "db397f6a7fdf6082d598ae1cefe8032c6a0099322db55c5539b5f308701fb730",
        "codebook":
            "418967544a6780f2202d2eeff874319868f68728f8c07a34dfc05625001cdd83",
        "neighborhood model": 0x63f3e8f934a7b3bf,
        "causal model": {0x5ea9941248162bb0},
        "token grid":
            "9397d38be34f8f6dd421ea63682077322dbaea9a52359be55e48311bde95425b",
        "packets":
            "53670eb41ca6c6b2759a6c6aac958f3d2398411610a11c54707d454e1b43ea06",
        "digital symbols":
            "e9b2706cfeb753ecc4724c0dfeaba0aa604d3d11c83fcc6ec800957df6414caf",
        "digital stream":
            "9cc11a4e70e44ebc50f100959e53b849a8ebd46489472e86b6aef4c7f5cb128b",
        "FEC block": (
            "ac215451aa22951a2378ebbfe911c8d39545866698cba86cc3e6fd521c5b24a2",
            51),
        "decoded image":
            "1f531a98e1054157894520d1956cffb0437058619911f12bf0de098ae5313256",
        "records":
            "af7504c83c08639feae2fec5206899f95dbf19a34ae9c6ed354afac8d5246366",
    },
}


def _build_stages(ctx, tmp_path) -> dict:
    """{stage: digest} of a built context, in build order."""
    import hashlib

    from gjcodec.pipelines import _artifact_key
    from gjcodec.vq import save_codebook

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    def array(a, dtype):
        return sha(np.ascontiguousarray(a, dtype=dtype).tobytes())

    stages = {"source image": sha(ctx.image.samples.tobytes())}
    for sp in ctx.scenario["schemes"]:
        built = ctx.artifacts[_artifact_key(sp)]
        if sp["scheme"] == "digital_separate":
            stream, decoded, block = built
            stages["digital symbols"] = array(
                digital_symbols(ctx.image, sp["sq_step"], sp["sq_alphabet"]),
                "<i8")
            stages["digital stream"] = sha(stream.payload)
            if block is not None:
                packets, plen = block
                assert [p.index for p in packets] == list(range(len(packets)))
                stages["FEC block"] = (
                    sha(b"".join(p.payload for p in packets)), plen)
            stages["decoded image"] = sha(decoded.samples.tobytes())
        elif sp["scheme"] == "weak_jscc":
            save_codebook(built.codebook, tmp_path / "cb")
            stages["codebook"] = sha((tmp_path / "cb").read_bytes())
            stages["neighborhood model"] = built.neighbor.state_hash()
            stages["causal model"] = {s.model_hash for s in built.streams}
            stages["token grid"] = array(built.tokens, "<i8")
            stages["packets"] = sha(b"".join(hashlib.sha256(s.payload).digest()
                                              for s in built.streams))
        else:
            fitted_vars, code = built
            stages["analog variances"] = array(fitted_vars, "<f8")
            stages["analog symbols"] = array(code.symbols, "<f8")
    records = [row for _, row in sorted(ctx.records.items())]
    stages["records"] = sha(records_to_csv(records).encode("ascii"))
    return stages


@pytest.mark.parametrize("name", ["fig5", "fig6"])
def test_bundled_trained_models_golden_digest(tmp_path, name):
    from gjcodec.scenario import load_scenario

    want = _BUILD_STAGES[name]
    ctx = build_context(validate_scenario(load_scenario(name, [])))
    got = _build_stages(ctx, tmp_path)
    moved = [stage for stage in want if got.get(stage) != want[stage]]
    assert not moved, (f"first moved stage: {moved[0]}; "
                       f"every moved stage: {', '.join(moved)}")
    assert list(got) == list(want)


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


@pytest.mark.parametrize("kind", ["snr_db", "loss"])
@pytest.mark.parametrize("knob, reached", [
    ({"conceal_schedule": "raster"}, [("conceal", "raster")]),
    ({"conceal_mode": "marginal"}, [("marginal_fill", None)]),
], ids=["raster", "marginal"])
def test_weak_conceal_knobs_reach_their_functions(monkeypatch, tmp_path, kind,
                                                  knob, reached):
    """Each weak record conceals through the function its knobs name, and
    a two-process sweep gives the serial CSV."""
    import gjcodec.concealment as concealment
    from gjcodec.cli import main
    scn = _mixed_scenario(kind)
    weak = next(sp for sp in scn["schemes"] if sp["scheme"] == "weak_jscc")
    weak.update(knob)
    calls = []
    real_conceal, real_fill = concealment.conceal, concealment.marginal_fill

    def conceal(grid, model, schedule="confidence"):
        calls.append(("conceal", schedule))
        return real_conceal(grid, model, schedule=schedule)

    def marginal_fill(grid, model):
        calls.append(("marginal_fill", None))
        return real_fill(grid, model)

    monkeypatch.setattr(concealment, "conceal", conceal)
    monkeypatch.setattr(concealment, "marginal_fill", marginal_fill)
    serial = records_to_csv(sweep(scn))
    # 2 conditions x 3 trials, but under snr_db a weak record is built once
    # for all its trials
    assert calls == reached * (2 if kind == "snr_db" else 2 * 3)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scn))
    out = tmp_path / "jobs2.csv"
    assert main(["sweep", "--scenario", str(path), "--jobs", "2",
                 "--output", str(out)]) == 0
    assert out.read_text() == serial


def test_bandpass_texture_keeps_block_means_at_the_source_mean():
    """texture.bandpass removes each 8x8 block mean of the texture layer:
    over a flat base (sigma 0) every block of the image then averages to
    `mean` up to rounding, while without it the block means spread."""
    from gjcodec.transform import split_blocks
    spread = {}
    for bandpass in (False, True):
        scn = _base_scenario(schemes=[{"scheme": "analog_jscc",
                                       "label": "analog"}])
        scn["source"].update(sigma=0.0, mean=100.0, texture={
            "rho": 0.9, "sigma": 10.0, "bandpass": bandpass})
        image = build_context(validate_scenario(scn)).image.samples.astype(
            np.float64)
        means = split_blocks(image).mean(axis=(1, 2))
        spread[bandpass] = np.abs(means - 100.0).max()
    assert spread[True] <= 0.5
    assert spread[False] > 2.0


@pytest.mark.parametrize("kind", ["snr_db", "loss"])
def test_built_context_is_complete(kind):
    """Every task runs on a built context, which holds all it reads (a
    missing key would be a KeyError), and adds nothing to its artifacts or
    records, so no record of any share builds anything."""
    ctx = build_context(validate_scenario(_mixed_scenario(kind)))
    artifacts, records = dict(ctx.artifacts), dict(ctx.records)
    scn = ctx.scenario
    for si in range(len(scn["schemes"])):
        for ci in range(len(scn["conditions"]["values"])):
            for trial in range(scn["num_seeds"]):
                run_record(ctx, si, ci, trial)
    assert ctx.artifacts.keys() == artifacts.keys()
    assert ctx.records.keys() == records.keys()
    # every record at loss draws its channel; at snr_db only analog does
    assert artifacts and bool(records) == (kind == "snr_db")
    # under loss every digital artifact carries its FEC block
    digital = [value for key, value in artifacts.items()
               if key[0] == "digital_separate"]
    assert digital
    assert all((block is not None) == (kind == "loss")
               for _, _, block in digital)


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
        if len(model._rows):  # a trained model; coders start from empty ones
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
    # one block for the payload both digital schemes send, with every
    # parity row a block holds: 255 - k for k = 10
    used_r = {r["fec_r"] for r in recs if r["fec_r"] is not None}
    assert fec_blocks == [245] and max(used_r) <= 40


def test_corrupted_digital_check_decode_raises(monkeypatch):
    """A digital stream that does not decode to the coded symbols stops the
    build instead of silently changing the image every record reports."""
    import gjcodec.pipelines as pipelines
    from gjcodec.errors import CorruptStreamError
    real_decode = pipelines.ac_decode

    def corrupt(stream, model, adaptive=False):
        syms = np.array(real_decode(stream, model, adaptive), copy=True)
        syms[len(syms) // 2] ^= 1
        return syms

    monkeypatch.setattr(pipelines, "ac_decode", corrupt)
    scn = _base_scenario(schemes=_base_scenario()["schemes"][:1])
    with pytest.raises(CorruptStreamError, match="digital payload"):
        build_context(validate_scenario(scn))


def test_loss_sweep_encodes_parity_once_per_payload(monkeypatch):
    """Each distinct digital payload is FEC-encoded once, with every parity
    row a block can hold, whatever multiplier the schemes sending it use."""
    import gjcodec.pipelines as pipelines
    scn = _mixed_scenario("loss")
    coarse = dict(scn["schemes"][1], label="coarse_30x", sq_step=40.0,
                  fec_multiplier=30)
    scn["schemes"].append(coarse)
    blocks = []
    real = pipelines._fec.fec_encode

    def fec_encode(data, r):
        blocks.append((b"".join(data), r))
        return real(data, r)

    monkeypatch.setattr(pipelines._fec, "fec_encode", fec_encode)
    recs = sweep(scn, jobs=1)
    assert len({data for data, _ in blocks}) == len(blocks) == 2
    # k = 10: each payload gets 255 - k parity packets, the most a block
    # can hold
    assert sorted(r for _, r in blocks) == [245, 245]
    assert max(r["fec_r"] for r in recs if r["scheme"] == "coarse_30x") > 40


def test_fec_block_depends_on_its_own_scheme_entry():
    """A digital payload's FEC block is the same whether or not another
    scheme sending that payload asks for more parity."""
    scn = _mixed_scenario("loss")
    alone = dict(scn, schemes=[scn["schemes"][1]])

    def block(ctx):
        (_, _, (packets, plen)), = (value
                                    for key, value in ctx.artifacts.items()
                                    if key[0] == "digital_separate")
        return [(p.index, p.payload) for p in packets], plen

    assert (block(build_context(validate_scenario(scn)))
            == block(build_context(validate_scenario(alone))))


def test_loss_rate_beyond_the_burst_model_is_a_scenario_error():
    """p_gb = loss / ((1 - loss) * burst_mean) must not exceed 1: loss 0.5
    at burst_mean 1 (p_gb = 1, every good slot turns bad) sweeps, and any
    loss above it is rejected naming both fields."""
    scn = _mixed_scenario("loss")
    scn["conditions"].update(burst_mean=1, values=[0.5])
    recs = sweep(scn)
    assert {r["condition"] for r in recs} == {0.5}
    for loss in (0.6, 0.5000001):
        scn["conditions"]["values"] = [0.1, loss]
        with pytest.raises(ConfigError,
                           match=r"^conditions\.values\[1\] = .* "
                                 r"conditions\.burst_mean = 1 allows$"):
            validate_scenario(scn)


def _fail_in_share(monkeypatch, where):
    """Make every record of the parent's share, or of each child's, fail
    once the built context exists: `where` is "parent", "child" (a
    ConfigError) or "child-exit" (the child exits with code 1, unreported).
    When the parent's share fails, the children are still running."""
    import os
    import time

    import gjcodec.pipelines as pipelines
    parent = os.getpid()
    built = []
    real_built, real_record = pipelines.build_context, pipelines.run_record

    def built_context(scn):
        ctx = real_built(scn)
        built.append(True)
        return ctx

    def run_record(ctx, *task):
        in_parent = os.getpid() == parent
        if built and where == "parent" and not in_parent:
            time.sleep(3600)
        if built and in_parent == (where == "parent"):
            if where == "child-exit":
                os._exit(1)
            raise ConfigError(f"injected failure in the {where}")
        return real_record(ctx, *task)

    monkeypatch.setattr(pipelines, "build_context", built_context)
    monkeypatch.setattr(pipelines, "run_record", run_record)


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang into a failure: SIGALRM raises after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("where", ["parent", "child"])
def test_error_in_a_share_is_raised_and_no_child_is_left(monkeypatch, where,
                                                         jobs):
    import multiprocessing
    _fail_in_share(monkeypatch, where)
    with _deadline(30), pytest.raises(
            ConfigError, match=f"injected failure in the {where}"):
        sweep(_mixed_scenario("loss"), jobs=jobs)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [2, 3])
def test_child_that_exits_unreported_is_named(monkeypatch, jobs):
    import multiprocessing
    _fail_in_share(monkeypatch, "child-exit")
    with _deadline(30), pytest.raises(ChildProcessError,
                                      match="exited with code 1 before"):
        sweep(_mixed_scenario("loss"), jobs=jobs)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where, code", [("parent", 2), ("child", 2),
                                         ("child-exit", 3)])
def test_failed_share_exits_without_traceback(tmp_path, where, code):
    """Through the CLI, a failed share ends the sweep with its exit code, a
    one-line message and no traceback from any process."""
    import subprocess
    import sys
    import textwrap
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_mixed_scenario("loss")))
    script = textwrap.dedent(f"""
        import runpy
        import sys
        import pytest
        from gjcodec.cli import main
        fail_in_share = runpy.run_path({__file__!r})["_fail_in_share"]
        with pytest.MonkeyPatch.context() as mp:
            fail_in_share(mp, {where!r})
            sys.exit(main(["sweep", "--scenario", {str(scenario)!r},
                           "--jobs", "3"]))
    """)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == code, r.stderr
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert ("exited with code 1" if where == "child-exit"
            else f"injected failure in the {where}") in r.stderr


@pytest.mark.parametrize("kind", ["snr_db", "loss"])
def test_forked_shares_match_serial(kind):
    """Two and three processes, with shares of 9 and 9 or 6, 6 and 6
    records, give the serial CSV bytes."""
    scn = _mixed_scenario(kind)
    serial = records_to_csv(sweep(scn))
    assert records_to_csv(sweep(scn, jobs=2)) == serial
    assert records_to_csv(sweep(scn, jobs=3)) == serial


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
    # weak records at snr_db draw nothing: the build conceals each once
    assert len(conceal_calls) == (len(values) if kind == "snr_db" else 0)
    for si, sp in enumerate(scn["schemes"]):
        for ci, value in enumerate(values):
            # a built record holds no trial; the sweep's rows do
            for trial in (1, 2):
                row = run_record(ctx, si, ci, trial)
                assert list(row) == list(CSV_COLUMNS)
                assert row == next(r for r in recs
                                   if r["scheme"] == sp["label"]
                                   and r["condition"] == value
                                   and r["seed"] == trial)
    # so no trial conceals again there; under loss each trial conceals
    assert len(conceal_calls) == len(values) * (1 if kind == "snr_db" else 2)


@pytest.mark.parametrize("kind", ["snr_db", "loss"])
def test_simulate_gives_the_sweep_record(kind, tmp_path, capsys):
    """`gjcodec simulate` builds only its scheme, yet prints the record the
    whole scenario's sweep gives, for every scheme (the two loss schemes
    share one FEC payload but ask for different parity), condition and
    trial."""
    from gjcodec.cli import main
    scn = _mixed_scenario(kind)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scn))
    recs = sweep(scn)
    for sp in scn["schemes"]:
        for value in scn["conditions"]["values"]:
            for trial in (0, 2):
                assert main(["simulate", "--scenario", str(path),
                             "--scheme", sp["label"], "--condition",
                             str(value), "--trial", str(trial)]) == 0
                assert json.loads(capsys.readouterr().out) == next(
                    r for r in recs if r["scheme"] == sp["label"]
                    and r["condition"] == value and r["seed"] == trial)


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


def test_upsampled_ar_layer_gives_scipy_ndimage_zoom_bytes():
    """sources._ar1_layer calls ndimage's zoom kernel without scipy.ndimage's
    wrapper; it must give the bytes of the public zoom, for every factor
    on sides the scenario accepts (multiples of the factor and the 8x8
    block), the bundled fig5 source included."""
    import math

    from scipy.ndimage import zoom

    from gjcodec.sources import _ar1_layer, ar1_field

    cases = [(160, 160, 16, 0.9, 13)]
    for factor in range(2, 17):
        side = math.lcm(factor, 8)
        cases += [(side, side, factor, 0.9, factor),
                  (side, 3 * side, factor, 0.5, 100 + factor),
                  (2 * side, side, factor, 0.0, 200 + factor)]
    for height, width, factor, rho, seed in cases:
        base = ar1_field(height // factor, width // factor, rho, seed)
        want = zoom(base, factor, order=1, mode="nearest", grid_mode=True)
        got = _ar1_layer(height, width, rho, factor, seed)
        assert got.shape == want.shape == (height, width)
        assert got.tobytes() == want.tobytes(), (height, width, factor)
