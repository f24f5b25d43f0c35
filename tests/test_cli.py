import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from gjcodec.cli import main
from gjcodec.pipelines import CSV_COLUMNS
from gjcodec.sources import ImageGrid, load_pgm, save_pgm


def run_cli(*argv):
    """Invoke the CLI in-process, capturing streams and exit code."""
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def sample_pgm(tmp_path, rng):
    from gjcodec.pipelines import _ar1_textured
    img = _ar1_textured(32, 32, {"rho": 0.9, "sigma": 30.0, "mean": 128.0}, 21)
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    return path


def test_compress_decompress_round_trip(tmp_path, sample_pgm):
    comp = tmp_path / "img.gjc"
    rest = tmp_path / "restored.pgm"
    code, out, err = run_cli("compress", "--input", str(sample_pgm),
                             "--output", str(comp), "--step", "16")
    assert code == 0
    assert out.startswith("bpp=") and "cross_entropy=" in out
    code, _, _ = run_cli("decompress", "--input", str(comp),
                         "--output", str(rest))
    assert code == 0
    # token-exact: re-compressing the restored image yields identical bytes
    comp2 = tmp_path / "again.gjc"
    assert run_cli("compress", "--input", str(rest), "--output", str(comp2),
                   "--step", "16")[0] == 0
    assert comp.read_bytes() == comp2.read_bytes()


def test_uniform_noise_is_incompressible(tmp_path):
    rng = np.random.default_rng(77)
    noise = tmp_path / "noise.pgm"
    save_pgm(ImageGrid(rng.integers(0, 256, (64, 64), dtype=np.uint8)), noise)
    code, out, _ = run_cli("compress", "--input", str(noise),
                           "--output", str(tmp_path / "n.gjc"),
                           "--step", "1", "--alphabet", "512", "--order", "0")
    assert code == 0
    stats = dict(kv.split("=") for kv in out.split())
    assert float(stats["bpp"]) >= 7.9


def test_missing_input_is_usage_error(tmp_path):
    code, _, err = run_cli("compress", "--input", str(tmp_path / "nope.pgm"),
                           "--output", str(tmp_path / "x.gjc"))
    assert code == 2
    assert "nope.pgm" in err


def test_missing_model_file_is_usage_error(tmp_path, sample_pgm):
    missing = tmp_path / "ghost.model"
    code, _, err = run_cli("compress", "--input", str(sample_pgm),
                           "--output", str(tmp_path / "x.gjc"),
                           "--model", str(missing))
    assert code == 2
    assert "ghost.model" in err


def test_bad_magic_is_format_error(tmp_path):
    junk = tmp_path / "junk.gjc"
    junk.write_bytes(b"not a container at all")
    code, _, err = run_cli("decompress", "--input", str(junk),
                           "--output", str(tmp_path / "y.pgm"))
    assert code == 4
    assert "magic" in err


def test_color_pgm_is_format_error(tmp_path):
    bad = tmp_path / "c.ppm"
    bad.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    code, _, _ = run_cli("compress", "--input", str(bad),
                         "--output", str(tmp_path / "z.gjc"))
    assert code == 4


def test_static_model_workflow(tmp_path, sample_pgm, rng):
    """train-model -> compress --model -> decompress --model round trip.
    compress takes the alphabet and the order from the model: a 64-symbol
    model needs no --alphabet, and overrides the default of 256."""
    from gjcodec.context import CausalContextModel, train
    from gjcodec.pipelines import digital_image, digital_symbols

    model = tmp_path / "px.model"
    code, _, err = run_cli("train-model", str(sample_pgm),
                           "--output", str(model), "--order", "1")
    assert code == 0, err
    small = CausalContextModel(64, order=3)
    train(small, [load_pgm(sample_pgm).samples.astype(np.int64) // 4])
    small.save(tmp_path / "small.model")
    img = load_pgm(sample_pgm)
    for model, size, extra in ((model, 256, ["--alphabet", "256"]),
                               (tmp_path / "small.model", 64, [])):
        comp = tmp_path / "s.gjc"
        code, out, err = run_cli("compress", "--input", str(sample_pgm),
                                 "--output", str(comp), "--step", "8",
                                 *extra, "--model", str(model))
        assert code == 0, err
        rest = tmp_path / "s.pgm"
        assert run_cli("decompress", "--input", str(comp), "--output",
                       str(rest), "--model", str(model))[0] == 0
        expected = digital_image(digital_symbols(img, 8, size), img.height,
                                 img.width, 8, size)
        assert np.array_equal(load_pgm(rest).samples, expected.samples)
        # decompressing a model-coded stream without the model is a usage
        # error
        assert run_cli("decompress", "--input", str(comp),
                       "--output", str(rest))[0] == 2


def test_mismatched_model_is_format_error(tmp_path, sample_pgm):
    m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
    assert run_cli("train-model", str(sample_pgm), "--output", str(m1),
                   "--order", "1")[0] == 0
    assert run_cli("train-model", str(sample_pgm), "--output", str(m2),
                   "--order", "1", "--alpha", "0.25")[0] == 0
    comp = tmp_path / "m.gjc"
    assert run_cli("compress", "--input", str(sample_pgm), "--output",
                   str(comp), "--model", str(m1))[0] == 0
    code, _, err = run_cli("decompress", "--input", str(comp),
                           "--output", str(tmp_path / "m.pgm"),
                           "--model", str(m2))
    assert code == 4
    assert "hash" in err


def test_train_codebook(tmp_path, sample_pgm):
    cb = tmp_path / "cb.bin"
    code, _, err = run_cli("train-codebook", str(sample_pgm),
                           "--output", str(cb), "--size", "16",
                           "--iters", "5")
    assert code == 0, err
    assert cb.stat().st_size > 0


@pytest.mark.parametrize("seed, code", [(-1, 2), (2 ** 64 + 1, 2), (2 ** 64, 2),
                                        (2 ** 64 - 1, 0)])
def test_train_codebook_seed_is_a_u64(tmp_path, sample_pgm, seed, code):
    """The codebook file holds its seed as a u64: a seed it cannot hold
    exits 2 before training, with one line and no traceback, instead of
    being wrapped into the file; the largest it can hold is kept."""
    from gjcodec.vq import load_codebook
    cb = tmp_path / "cb.bin"
    got, _, err = run_cli("train-codebook", str(sample_pgm),
                          "--output", str(cb), "--size", "16",
                          "--iters", "5", "--seed", str(seed))
    assert got == code, err
    if code:
        assert len(err.splitlines()) == 1 and "seed" in err
        assert "Traceback" not in err
        assert not cb.exists()
    else:
        assert load_codebook(cb).train_seed == seed


def test_non_finite_codebook_is_format_error(tmp_path, sample_pgm):
    cb = tmp_path / "cb.bin"
    assert run_cli("train-codebook", str(sample_pgm), "--output", str(cb),
                   "--size", "16", "--iters", "2")[0] == 0
    data = bytearray(cb.read_bytes())
    data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    cb.write_bytes(bytes(data))
    code, _, err = run_cli("train-model", str(sample_pgm), "--kind",
                           "neighborhood", "--codebook", str(cb),
                           "--output", str(tmp_path / "nbr.model"))
    assert code == 4
    assert "NaN" in err


def test_simulate_emits_one_json_record(tmp_path):
    code, out, _ = run_cli("simulate", "--scenario", "fig5",
                           "--scheme", "analog_jscc", "--condition", "6.0",
                           "--trial", "0")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == set(CSV_COLUMNS)
    assert rec["scheme"] == "analog_jscc"
    assert not rec["decode_failed"]


def test_simulate_unknown_scheme(tmp_path):
    code, _, err = run_cli("simulate", "--scenario", "fig5",
                           "--scheme", "nope", "--condition", "6.0")
    assert code == 2
    assert "nope" in err


def test_sweep_to_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ("sweep", "--scenario", "fig5", "--set", "num_seeds=1")
    code, _, err = run_cli(*args, "--output", str(out1))
    assert code == 0
    assert "18 records" in err
    lines = out1.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 * 6 * 1
    assert run_cli(*args, "--output", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rejects_unknown_override(tmp_path):
    code, _, err = run_cli("sweep", "--scenario", "fig5",
                           "--set", "bogus_field=3",
                           "--output", str(tmp_path / "x.csv"))
    assert code == 2
    assert "bogus_field" in err


def test_sweep_io_failure(tmp_path, monkeypatch):
    import gjcodec.pipelines as pipelines

    def never(scn):
        raise AssertionError("sweep ran before its output file was opened")

    monkeypatch.setattr(pipelines, "build_context", never)
    code, _, err = run_cli("sweep", "--scenario", "fig5",
                           "--set", "num_seeds=1",
                           "--output", str(tmp_path / "no_dir" / "x.csv"))
    assert code == 3
    assert "I/O failure" in err


def _failing_sweep(tmp_path, output):
    """A sweep that fails in its build: its pgm source does not exist."""
    source = json.dumps({"type": "pgm", "path": str(tmp_path / "gone.pgm")})
    return run_cli("sweep", "--scenario", "fig5", "--set", f"source={source}",
                   "--output", str(output))


def test_failed_sweep_leaves_no_output_file(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = _failing_sweep(tmp_path, out_dir / "x.csv")
    assert code == 2 and "gone.pgm" in err
    assert list(out_dir.iterdir()) == []


def test_failed_sweep_keeps_the_previous_output(tmp_path):
    out = tmp_path / "x.csv"
    out.write_bytes(b"previous,bytes\n")
    assert _failing_sweep(tmp_path, out)[0] == 2
    assert out.read_bytes() == b"previous,bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_output_file_permissions_and_devices(tmp_path):
    import os
    import stat
    from gjcodec.errors import output_file
    umask = os.umask(0o022)
    os.umask(umask)
    with output_file(tmp_path / "new.bin") as fh:
        fh.write(b"abc")
    assert (tmp_path / "new.bin").read_bytes() == b"abc"
    assert stat.S_IMODE((tmp_path / "new.bin").stat().st_mode) == 0o666 & ~umask
    with output_file(os.devnull) as fh:  # written in place, never replaced
        fh.write(b"abc")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    (tmp_path / "link.bin").symlink_to("new.bin")
    with output_file(tmp_path / "link.bin") as fh:  # replaces the target
        fh.write(b"de")
    assert (tmp_path / "link.bin").is_symlink()
    assert (tmp_path / "new.bin").read_bytes() == b"de"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.bin", "new.bin"]


_DEEP = "[" * 5000 + "]" * 5000
_HUGE_INT = "9" * 5000


@pytest.mark.parametrize("via, text", [
    ("file", b'{"name": "\xff\xfe"}'),                       # not UTF-8
    ("file", _DEEP.encode()),
    ("file", b'{"seed": ' + _HUGE_INT.encode() + b"}"),
    ("set", _DEEP),
    ("set", _HUGE_INT),
], ids=["file-not-utf8", "file-deep", "file-huge-int", "set-deep",
        "set-huge-int"])
def test_hostile_scenario_text_is_a_usage_error(tmp_path, via, text):
    if via == "file":
        path = tmp_path / "scn.json"
        path.write_bytes(text)
        args = ("--scenario", str(path))
    else:
        args = ("--scenario", "fig5", "--set", f"seed={text}")
    code, out, err = run_cli("sweep", *args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("gjcodec: error:")


# container magic, version, height, width, step, alphabet, order, modeled,
# then the stream's magic, version, alphabet, symbol count and model hash
_HEADERS = struct.Struct("<4sBHHdHBB4sBHIQ")
_FIELDS = ("magic", "version", "height", "width", "step", "alphabet", "order",
           "modeled", "stream_magic", "stream_version", "stream_alphabet",
           "n_symbols", "model_hash")


@pytest.mark.parametrize("field,value,message", [
    ("n_symbols", 2**32 - 1, "symbols"),
    ("n_symbols", 32 * 32 + 1, "symbols"),
    ("height", 0, "multiple of 8"),
    ("width", 36, "multiple of 8"),
    ("step", float("nan"), "step"),
    ("step", float("inf"), "step"),
    ("step", 0.0, "step"),
    ("step", -16.0, "step"),
    # a step whose products overflow, or whose quotients leave int64
    ("step", 1e308, "step"),
    ("step", 1e-300, "step"),
    ("alphabet", 1, "alphabet"),
    ("stream_alphabet", 128, "alphabet"),
    # no model of context length 2 has an alphabet above 2**15
    ("alphabet stream_alphabet", 40000, "context length 2"),
    ("modeled", 2, "model flag 2"),
])
def test_hostile_container_rejected_before_decoding(tmp_path, sample_pgm,
                                                    monkeypatch, field, value,
                                                    message):
    """`field` names each header field that the case sets to `value`."""
    import gjcodec.cli as cli
    comp = tmp_path / "img.gjc"
    assert run_cli("compress", "--input", str(sample_pgm),
                   "--output", str(comp))[0] == 0
    blob = bytearray(comp.read_bytes())
    head = dict(zip(_FIELDS, _HEADERS.unpack_from(blob)))
    head.update(dict.fromkeys(field.split(), value))
    _HEADERS.pack_into(blob, 0, *(head[f] for f in _FIELDS))
    comp.write_bytes(bytes(blob))

    def never(*args, **kwargs):
        raise AssertionError("a hostile container reached the decoder")

    monkeypatch.setattr(cli, "ac_decode", never)
    code, _, err = run_cli("decompress", "--input", str(comp),
                           "--output", str(tmp_path / "out.pgm"))
    assert code == 4
    assert message in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_header_consistent_giant_container_is_bounded(tmp_path, sample_pgm,
                                                     run_bounded):
    """A 65528x65528 container whose headers agree (4,293,918,784 symbols)
    but whose payload is that of a 32x32 image exits 4 at once: the decoder
    bounds the symbol count by the payload before it allocates."""
    import time
    comp = tmp_path / "img.gjc"
    assert run_cli("compress", "--input", str(sample_pgm),
                   "--output", str(comp))[0] == 0
    blob = bytearray(comp.read_bytes())
    head = dict(zip(_FIELDS, _HEADERS.unpack_from(blob)))
    head.update(height=65528, width=65528, n_symbols=65528 * 65528)
    _HEADERS.pack_into(blob, 0, *(head[f] for f in _FIELDS))
    comp.write_bytes(bytes(blob))
    assert head["alphabet"] == 256

    start = time.perf_counter()
    code, _, err = run_cli("decompress", "--input", str(comp),
                           "--output", str(tmp_path / "out.pgm"))
    assert time.perf_counter() - start < 1.0
    assert code == 4 and "cannot hold" in err
    r = run_bounded("-m", "gjcodec.cli", "decompress", "--input", str(comp),
                    "--output", str(tmp_path / "out.pgm"))
    assert r.returncode == 4 and "cannot hold" in r.stderr
    assert "Traceback" not in r.stderr


def test_small_alphabet_giant_container_is_bounded(tmp_path, sample_pgm,
                                                   run_bounded, monkeypatch):
    """A 22360x22360 container over A = 2 symbols whose headers agree
    (499,969,600 symbols), with a 1.4 KB payload, passes the payload bound,
    which is loose at small alphabets.  The side bound rejects it with exit
    4 at once, before the decoder runs."""
    import time

    import gjcodec.cli as cli
    from gjcodec.entropy import _max_symbols
    comp = tmp_path / "img.gjc"
    assert run_cli("compress", "--input", str(sample_pgm), "--output",
                   str(comp), "--alphabet", "2")[0] == 0
    blob = bytearray(comp.read_bytes())
    assert len(blob) - _HEADERS.size < 1400
    head = dict(zip(_FIELDS, _HEADERS.unpack_from(blob)))
    head.update(height=22360, width=22360, n_symbols=22360 * 22360)
    _HEADERS.pack_into(blob, 0, *(head[f] for f in _FIELDS))
    comp.write_bytes(bytes(blob).ljust(_HEADERS.size + 1400, b"\x00"))
    assert _max_symbols(1400, 2) >= 22360 * 22360

    def never(*args, **kwargs):
        raise AssertionError("an oversized container reached the decoder")

    with monkeypatch.context() as m:
        m.setattr(cli, "ac_decode", never)
        start = time.perf_counter()
        code, _, err = run_cli("decompress", "--input", str(comp),
                               "--output", str(tmp_path / "out.pgm"))
        assert time.perf_counter() - start < 1.0
    assert code == 4 and "above 4096" in err
    r = run_bounded("-m", "gjcodec.cli", "decompress", "--input", str(comp),
                    "--output", str(tmp_path / "out.pgm"))
    assert r.returncode == 4 and "above 4096" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("height, width, code", [
    (8, 4096, 0), (4096, 8, 0), (8, 4104, 2), (4104, 8, 2)])
def test_compress_bounds_the_image_side(tmp_path, height, width, code):
    """Sides up to 4096 compress and decompress; a larger one exits 2 and
    writes nothing."""
    rng = np.random.default_rng(height + width)
    src = tmp_path / "wide.pgm"
    save_pgm(ImageGrid(rng.integers(0, 256, (height, width), dtype=np.uint8)),
             src)
    comp = tmp_path / "wide.gjc"
    got, _, err = run_cli("compress", "--input", str(src), "--output",
                          str(comp), "--order", "0", "--alphabet", "16")
    assert got == code, err
    if code:
        assert "above 4096" in err and not comp.exists()
        return
    rest = tmp_path / "wide_hat.pgm"
    assert run_cli("decompress", "--input", str(comp), "--output",
                   str(rest))[0] == 0
    assert load_pgm(rest).samples.shape == (height, width)


def _pgm_source_sweep(tmp_path, path):
    """`gjcodec sweep` of one fig5 trial with the PGM at `path` as its
    source, CSV to stdout."""
    scn = _bundled_scenario("fig5")
    scn.update(num_seeds=1, source={"type": "pgm", "path": str(path)})
    scn["train"]["images"] = 1
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(scn))
    return run_cli("sweep", "--scenario", str(scenario), "--output", "-")


@pytest.mark.parametrize("command", ["sweep", "train-model", "train-codebook"])
def test_every_pgm_read_bounds_the_image_side(tmp_path, sample_pgm, command):
    """A PGM with a side above 4096 exits 2 with one line and writes
    nothing, whether it is a scenario's source or a training image, as it
    does as the compress input."""
    rng = np.random.default_rng(4104)
    wide = tmp_path / "wide.pgm"
    save_pgm(ImageGrid(rng.integers(0, 256, (8, 4104), dtype=np.uint8)), wide)
    out_file = tmp_path / "out.bin"
    if command == "sweep":
        code, out, err = _pgm_source_sweep(tmp_path, wide)
    else:
        # with the sample image alone, each command writes its output
        extra = {"train-codebook": ["--size", "2", "--iters", "1"]}
        code, out, err = run_cli(command, str(sample_pgm), str(wide),
                                 "--output", str(out_file),
                                 *extra.get(command, []))
    assert code == 2, err
    assert "above 4096" in err and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert out == "" and not out_file.exists()


def test_missing_pgm_source_is_usage_error(tmp_path):
    """A scenario's PGM source is a user-supplied input: a missing one
    exits 2 naming the field and the path, not 3 as an I/O failure."""
    code, out, err = _pgm_source_sweep(tmp_path, tmp_path / "ghost.pgm")
    assert code == 2, err
    assert "source.path" in err and "ghost.pgm" in err
    assert out == ""


@pytest.mark.parametrize("error", [MemoryError(), ValueError("bad shape")])
def test_decode_failures_are_format_errors(tmp_path, sample_pgm, monkeypatch,
                                           error):
    """A MemoryError or ValueError on the decode path exits 4, not 1."""
    import gjcodec.cli as cli
    comp = tmp_path / "img.gjc"
    assert run_cli("compress", "--input", str(sample_pgm),
                   "--output", str(comp))[0] == 0

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "ac_decode", fail)
    code, _, err = run_cli("decompress", "--input", str(comp),
                           "--output", str(tmp_path / "out.pgm"))
    assert code == 4
    assert type(error).__name__ in err


def test_entry_point_runs_as_subprocess():
    r = subprocess.run([sys.executable, "-m", "gjcodec.cli", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "compress" in r.stdout and "sweep" in r.stdout


@pytest.mark.parametrize("context, count", [
    ((900,), 3), ((-7,), 3), ((0,), 2 ** 63), ((0,), 2 ** 31)])
def test_hostile_model_is_format_error(tmp_path, sample_pgm, context, count):
    """Out-of-alphabet context symbols and counts whose total could overflow
    the int64 table arithmetic exit 4, not 0 or a traceback."""
    model = tmp_path / "hostile.model"
    model.write_bytes(b"GJCM" + struct.pack("<BBHBIQ", 1, 0, 256, 1, 1 << 16, 1)
                      + struct.pack("<hHQ", *context, 1, count))
    code, _, err = run_cli("compress", "--input", str(sample_pgm), "--output",
                           str(tmp_path / "o.gjc"), "--alphabet", "256",
                           "--model", str(model))
    assert code == 4
    assert "model:" in err


_GOOD_ENTRIES = [((-1,), 0, 5), ((-1,), 3, 2), ((0,), 0, 7), ((0,), 9, 1)]


@pytest.mark.parametrize("entries", [
    _GOOD_ENTRIES[:2] + _GOOD_ENTRIES[1:],                       # repeated
    _GOOD_ENTRIES[:2] + [((-1,), 4, 0)] + _GOOD_ENTRIES[2:],     # zero count
    _GOOD_ENTRIES[:2] + _GOOD_ENTRIES[3:1:-1],                   # out of order
])
def test_decompress_with_noncanonical_model_is_format_error(
        tmp_path, sample_pgm, entries):
    """A model file holding the trained state but not in the form save()
    writes (each (context, symbol) once, ascending, non-zero) exits 4."""
    def model_file(name, entries):
        path = tmp_path / name
        path.write_bytes(
            b"GJCM" + struct.pack("<BBHBIQ", 1, 0, 256, 1, 1 << 16, len(entries))
            + b"".join(struct.pack("<hHQ", *key, sym, count)
                       for key, sym, count in entries))
        return str(path)
    comp = str(tmp_path / "img.gjc")
    assert run_cli("compress", "--input", str(sample_pgm), "--output", comp,
                   "--model", model_file("good.model", _GOOD_ENTRIES))[0] == 0
    code, _, err = run_cli("decompress", "--input", comp, "--output",
                           str(tmp_path / "out.pgm"), "--model",
                           model_file("bad.model", entries))
    assert code == 4
    assert "model:" in err


@pytest.fixture
def golden_inputs(tmp_path):
    from gjcodec.pipelines import _ar1_textured
    img = _ar1_textured(64, 64, {"rho": 0.9, "sigma": 30.0, "mean": 128.0}, 5)
    image, model = tmp_path / "img.pgm", tmp_path / "m.model"
    save_pgm(img, image)
    assert run_cli("train-model", str(image), "--output", str(model),
                   "--order", "1")[0] == 0
    return image, model


# stdout and container SHA-256 of `compress` on a 64x64 image, measured when
# compress priced every symbol a second time for its cross_entropy.
_COMPRESS_GOLDEN = {
    "adaptive": (["--step", "16"], "bpp=3.296875 cross_entropy=3.218174\n",
                 "415b906a2e4bb7b9a2e038b931e32a85d3ae869525040bb41b35a7a9eabc2dc1"),
    "adaptive order 3": (
        ["--step", "4", "--alphabet", "64", "--order", "3"],
        "bpp=5.066406 cross_entropy=4.986566\n",
        "0d3f4e8e48bab320ad2aa40583dfa5b345e2e7643b7bea6bd5850ed89ba6a9c3"),
    "static": (["--step", "8", "--model", None],
               "bpp=8.082031 cross_entropy=8.000492\n",
               "f3dd75ac3a067d246c69141d6b48cbde6b8cade38e90844bdd4b4883a2eb7df7"),
}


@pytest.mark.parametrize("mode", sorted(_COMPRESS_GOLDEN))
def test_compress_stdout_golden(tmp_path, golden_inputs, mode):
    import hashlib
    image, model = golden_inputs
    options, line, digest = _COMPRESS_GOLDEN[mode]
    comp = tmp_path / "img.gjc"
    code, out, err = run_cli("compress", "--input", str(image), "--output",
                             str(comp), *(o or str(model) for o in options))
    assert code == 0, err
    assert out == line
    assert hashlib.sha256(comp.read_bytes()).hexdigest() == digest


def test_adaptive_compress_prices_each_symbol_once(tmp_path, sample_pgm,
                                                   monkeypatch):
    import gjcodec.context as context
    calls = []
    real = context.sparse_pmf

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(context, "sparse_pmf", counting)
    code, out, err = run_cli("compress", "--input", str(sample_pgm),
                             "--output", str(tmp_path / "img.gjc"))
    assert code == 0, err
    assert len(calls) == 32 * 32


@pytest.mark.parametrize("step", ["nan", "inf", "0", "1e-300", "1e308"])
def test_compress_rejects_step_that_is_not_finite_and_positive(
        tmp_path, sample_pgm, step):
    comp = tmp_path / "img.gjc"
    code, _, err = run_cli("compress", "--input", str(sample_pgm),
                           "--output", str(comp), "--step", step)
    assert code == 2
    assert "step" in err
    assert not comp.exists()


@pytest.mark.parametrize("argv, message", [
    (["train-model", "IMG", "--alpha", "nan"], "alpha"),
    (["train-model", "IMG", "--alpha", "inf"], "alpha"),
    (["train-model", "IMG", "--alpha", "1e30"], "alpha"),
    (["train-model", "IMG", "--order", "40000"], "order"),
    (["compress", "--input", "IMG", "--order", "300"], "order"),
    (["compress", "--input", "IMG", "--alphabet", "65536"], "alphabet"),
    (["train-codebook", "IMG", "--patch", "0"], "patch"),
    (["compress", "--input", "IMG", "--alphabet", "40000"], "alphabet"),
])
def test_parameter_the_files_cannot_hold_is_usage_error(tmp_path, sample_pgm,
                                                        argv, message):
    """Parameters beyond what the model file, stream or container can hold
    exit 2 before any work, not 1 with a traceback."""
    argv = [str(sample_pgm) if a == "IMG" else a for a in argv]
    out = tmp_path / "out.bin"
    code, _, err = run_cli(*argv, "--output", str(out))
    assert code == 2, err
    assert message in err
    assert not out.exists()


def test_sweep_starts_no_idle_worker(tmp_path, monkeypatch):
    """--jobs 100 on an 18-record sweep runs on one process per chunk of
    four records: the parent and four forked children, each running its
    share of three or four records."""
    import os
    from collections import Counter

    import gjcodec.pipelines as pipelines
    ran = tmp_path / "ran"
    ran.mkdir()
    real = pipelines.run_record

    def run_record(ctx, *task):
        (ran / f"{os.getpid()}-{'-'.join(map(str, task))}").touch()
        return real(ctx, *task)

    monkeypatch.setattr(pipelines, "run_record", run_record)
    code, _, err = run_cli("sweep", "--scenario", "fig5", "--set", "num_seeds=1",
                           "--jobs", "100", "--output", str(tmp_path / "a.csv"))
    assert code == 0, err
    assert "18 records" in err
    per_process = Counter(int(p.name.split("-")[0]) for p in ran.iterdir())
    assert len(per_process) == 5 and os.getpid() in per_process
    children = [n for pid, n in per_process.items() if pid != os.getpid()]
    assert sorted(children) == [3, 3, 4, 4]


@pytest.mark.parametrize("burst", ["1e9", "1e300"])
def test_sweep_extreme_burst_mean_is_bounded(run_bounded, burst):
    """A bursty-loss sweep whose mean burst dwarfs the loss trace finishes
    in bounded time and memory: every trace is all lost or all clear."""
    r = run_bounded("-m", "gjcodec.cli", "sweep", "--scenario", "fig6",
                    "--set", "num_seeds=1", "--set", "train.images=1",
                    "--set", "conditions.values=[0.05, 0.3]",
                    "--set", f"conditions.burst_mean={burst}")
    assert r.returncode == 0, r.stderr
    rows = r.stdout.splitlines()[1:]
    assert len(rows) == 3 * 2
    assert {row.rsplit(",", 1)[1] for row in rows} <= {"0.0", "1.0"}


def _bundled_scenario(name):
    from importlib import resources
    ref = resources.files("gjcodec") / "scenarios" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, path, value, field", [
    ("fig6", "conditions.burst_mean", "x", "conditions.burst_mean"),
    ("fig6", "conditions.burst_mean", None, "conditions.burst_mean"),
    ("fig5", "conditions", [1], "conditions"),
    ("fig5", "source", [1], "source"),
    ("fig5", "schemes.0", 3, "schemes[0]"),
    ("fig5", "schemes.0.sq_step", "a", "schemes[0].sq_step"),
    ("fig5", "schemes.1.codebook_size", "a", "schemes[1].codebook_size"),
    ("fig5", "schemes.0.est_snr_db", "a", "schemes[0].est_snr_db"),
    ("fig5", "schemes.0.label", [1], "schemes[0].label"),
    ("fig5", "source.width", "a", "source.width"),
    ("fig5", "source.sigma", "a", "source.sigma"),
    ("fig5", "source.seed", "a", "source.seed"),
    ("fig5", "source.seed", -1, "source.seed"),
    ("fig5", "source.texture.rho", "a", "source.texture.rho"),
    ("fig5", "train.width", "a", "train.width"),
    ("fig5", "train", [1], "train"),
    ("fig6", "fec", [1], "fec"),
    ("fig6", "fec.k", True, "fec.k"),
    ("fig6", "packets", 100000, "packets"),
    ("fig5", "conditions.values", [True], "conditions.values[0]"),
    ("fig5", "conditions.values", [6.0, 1e9], "conditions.values[1]"),
    ("fig5", "mcs_table", [[True, 1.0]], "mcs_table[0][0]"),
    ("fig5", "seed", True, "seed"),
    ("fig6", "schemes.1.fec_multiplier", True, "schemes[1].fec_multiplier"),
    ("fig5", "source", {"type": "pgm", "path": 3}, "source.path"),
    # beyond what a codebook, and an i16 context symbol, can hold
    ("fig5", "schemes.1.codebook_size", 40000, "schemes[1].codebook_size"),
    # sizes that ended in a MemoryError traceback or ran for minutes
    ("fig5", "num_seeds", 10 ** 9, "num_seeds"),
    ("fig6", "num_seeds", 1e9, "num_seeds"),
    ("fig5", "source.width", 10 ** 9, "source.width"),
    ("fig6", "source.height", 10 ** 9, "source.height"),
    ("fig5", "train.width", 10 ** 9, "train.width"),
    ("fig6", "train.height", 10 ** 9, "train.height"),
    ("fig6", "train.images", 10 ** 9, "train.images"),
    ("fig6", "conditions.window", 10 ** 9, "conditions.window"),
    # under snr_db no window is read, so none is taken
    ("fig5", "conditions.window", 10 ** 9, "unknown conditions keys: window"),
    # values that overflowed a float, or warned and went on with garbage
    ("fig5", "bandwidth_ratio", 1e305, "bandwidth_ratio"),
    ("fig5", "mcs_table", [[1e308, -2.0]], "mcs_table"),
    ("fig5", "source.texture.sigma", 1e308, "source.texture.sigma"),
    ("fig5", "train.sigma", 1e308, "train.sigma"),
    ("fig5", "schemes.0.sq_step", 1e-300, "schemes[0].sq_step"),
])
def test_malformed_scenario_is_usage_error(tmp_path, name, path, value, field):
    """A malformed scenario file exits 2, naming the field, before any work
    starts.  These cases used to end in a traceback, to run, or to fail
    later without naming the field."""
    scn = _bundled_scenario(name)
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = scn
    for p in parents:
        node = node[p]
    node[last] = value
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(scn))
    code, out, err = run_cli("sweep", "--scenario", str(scenario),
                             "--output", str(tmp_path / "x.csv"))
    assert code == 2, err
    assert field in err
    assert out == ""


@pytest.mark.parametrize("packets, expected", [(255, 0), (256, 2)])
def test_weak_loss_packets_fit_the_loss_trace(tmp_path, packets, expected):
    """A weak record reads one slot per packet from the 255 slots its loss
    trace has after the monitoring window."""
    code, out, err = run_cli(
        "sweep", "--scenario", "fig6", "--set", "num_seeds=1",
        "--set", "train.images=1", "--set", "conditions.values=[0.3]",
        "--set", f"packets={packets}")
    assert code == expected, err
    if expected:
        assert "packets" in err
    else:
        assert len(out.splitlines()) == 1 + 3


@pytest.mark.parametrize("value", ["[" * 900 + "]" * 900, "x" * 10_000],
                         ids=["nested-list", "long-string"])
def test_scenario_error_quotes_a_short_value(value):
    """A wrong value is quoted clipped, so its error stays one short line."""
    code, out, err = run_cli("sweep", "--scenario", "fig5",
                             "--set", f"seed={value}")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "seed" in err


# Byte offset of the stream header inside a container.
_STREAM_AT = struct.calcsize("<4sBHHdHBB")
_MODEL_HEAD = struct.Struct("<4sBBHBIQ")
_CODEBOOK_HEAD = struct.Struct("<4sBHHQ")
_CODEWORDS = np.arange(4 * 16, dtype="<f4").tobytes()


def _decompress(mutate):
    def argv(tmp_path, pgm):
        comp = tmp_path / "img.gjc"
        assert run_cli("compress", "--input", str(pgm),
                       "--output", str(comp))[0] == 0
        comp.write_bytes(mutate(comp.read_bytes()))
        return ["decompress", "--input", str(comp),
                "--output", str(tmp_path / "out.pgm")]
    return argv


def _compress_with_model(blob):
    def argv(tmp_path, pgm):
        (tmp_path / "m.model").write_bytes(blob)
        return ["compress", "--input", str(pgm), "--output",
                str(tmp_path / "o.gjc"), "--model", str(tmp_path / "m.model")]
    return argv


def _train_with_codebook(blob):
    def argv(tmp_path, pgm):
        (tmp_path / "cb.bin").write_bytes(blob)
        return ["train-model", str(pgm), "--codebook", str(tmp_path / "cb.bin"),
                "--output", str(tmp_path / "m.model")]
    return argv


def _compress_pgm(blob):
    def argv(tmp_path, pgm):
        (tmp_path / "in.pgm").write_bytes(blob)
        return ["compress", "--input", str(tmp_path / "in.pgm"),
                "--output", str(tmp_path / "o.gjc")]
    return argv


def _sweep_fig5(path, value):
    def argv(tmp_path, pgm):
        return ["sweep", "--scenario", "fig5",
                "--set", f"{path}={json.dumps(value)}"]
    return argv


def _fig5_schemes(i, **fields):
    """The bundled fig5 schemes, with `fields` set on the i-th."""
    schemes = _bundled_scenario("fig5")["schemes"]
    schemes[i].update(fields)
    return schemes


@pytest.mark.parametrize("code, prefix, argv", [
    (4, "container: bad magic b'GJXX'",
     _decompress(lambda b: b"GJXX" + b[4:])),
    (4, "container: truncated header", _decompress(lambda b: b[:10])),
    (4, "container: unsupported version 2",
     _decompress(lambda b: b[:4] + b"\x02" + b[5:])),
    (4, "stream: bad magic b'GJXX'",
     _decompress(lambda b: b[:_STREAM_AT] + b"GJXX" + b[_STREAM_AT + 4:])),
    (4, "stream: truncated header",
     _decompress(lambda b: b[:_STREAM_AT + 6])),
    (4, "stream: unsupported version 2",
     _decompress(lambda b: b[:_STREAM_AT + 4] + b"\x02"
                 + b[_STREAM_AT + 5:])),
    (4, "model: bad magic b'GJXX'", _compress_with_model(
        _MODEL_HEAD.pack(b"GJXX", 1, 0, 256, 1, 1 << 16, 0))),
    (4, "model: truncated header", _compress_with_model(
        _MODEL_HEAD.pack(b"GJCM", 1, 0, 256, 1, 1 << 16, 0)[:-1])),
    (4, "model: unsupported version 2", _compress_with_model(
        _MODEL_HEAD.pack(b"GJCM", 2, 0, 256, 1, 1 << 16, 0))),
    (4, "model: bad neighborhood arity 3", _compress_with_model(
        _MODEL_HEAD.pack(b"GJCM", 1, 1, 256, 3, 1 << 16, 0))),
    (4, "codebook: bad magic b'GJXX'", _train_with_codebook(
        _CODEBOOK_HEAD.pack(b"GJXX", 1, 4, 16, 0) + _CODEWORDS)),
    (4, "codebook: truncated header", _train_with_codebook(
        _CODEBOOK_HEAD.pack(b"GJCB", 1, 4, 16, 0)[:-1])),
    (4, "codebook: unsupported version 2", _train_with_codebook(
        _CODEBOOK_HEAD.pack(b"GJCB", 2, 4, 16, 0) + _CODEWORDS)),
    (4, "codebook: payload holds 252 bytes, expected 256", _train_with_codebook(
        _CODEBOOK_HEAD.pack(b"GJCB", 1, 4, 16, 0) + _CODEWORDS[:-4])),
    (4, "pgm: truncated header", _compress_pgm(b"P5\n8 8")),
    (4, "pgm: field width is not an integer",
     _compress_pgm(b"P5\n8.5 8\n255\n" + bytes(64))),
    (4, "pgm: bad dimensions 0x8", _compress_pgm(b"P5\n0 8\n255\n")),
    (4, "pgm: maxval must be 255, got 65535",
     _compress_pgm(b"P5\n8 8\n65535\n" + bytes(128))),
    (4, "pgm: payload holds 63 bytes, expected 64",
     _compress_pgm(b"P5\n8 8\n255\n" + bytes(63))),
    (2, "est_snr_db -50",
     _sweep_fig5("schemes", _fig5_schemes(0, est_snr_db=-50))),
    (2, "mcs_table must list",
     _sweep_fig5("mcs_table", _bundled_scenario("fig5")["mcs_table"][::-1])),
    (2, "source.upsample must divide", _sweep_fig5("source.upsample", 3)),
    (2, "schemes[1].conceal_schedule must be one of: confidence, raster",
     _sweep_fig5("schemes", _fig5_schemes(1, conceal_schedule="spiral"))),
], ids=["container-magic", "container-truncated", "container-version",
        "stream-magic", "stream-truncated", "stream-version", "model-magic",
        "model-truncated", "model-version", "model-arity", "codebook-magic",
        "codebook-truncated", "codebook-version", "codebook-payload",
        "pgm-no-maxval", "pgm-width", "pgm-zero-width", "pgm-maxval",
        "pgm-payload", "est-snr-below-table", "mcs-table-descending",
        "upsample-divides", "conceal-schedule"])
def test_every_error_exit_names_what_failed(tmp_path, sample_pgm, code,
                                            prefix, argv):
    """Each malformed artifact or scenario exits with its documented code
    and one stderr line that starts by naming what is wrong."""
    got, out, err = run_cli(*argv(tmp_path, sample_pgm))
    assert got == code, err
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"gjcodec: error: {prefix}"), err


@pytest.mark.parametrize("argv, tile", [
    (["train-codebook", "a.pgm", "b.pgm", "--patch", "4", "--size", "4"],
     "--patch 4"),
    (["train-model", "a.pgm", "b.pgm", "--codebook", "cb.bin"],
     "the codebook's patch side 4"),
    (["compress", "--input", "b.pgm"], "the DCT block 8"),
], ids=["train-codebook", "train-model", "compress"])
def test_pgm_sides_off_the_tile_name_the_file_and_the_tile(
        tmp_path, monkeypatch, argv, tile):
    """An input PGM whose sides the command's tile does not divide exits 2
    before any training or coding, with one line naming the file, its
    sides and what sets the tile, and writes no output."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    for name, side in (("a.pgm", 32), ("b.pgm", 30)):
        save_pgm(ImageGrid(rng.integers(0, 256, (side, side), dtype=np.uint8)),
                 name)
    (tmp_path / "cb.bin").write_bytes(
        _CODEBOOK_HEAD.pack(b"GJCB", 1, 4, 16, 0) + _CODEWORDS)
    got, out, err = run_cli(*argv, "--output", "out.bin")
    assert (got, out) == (2, "")
    assert err == (f"gjcodec: error: b.pgm: sides 30x30 are not multiples "
                   f"of {tile}\n")
    assert not (tmp_path / "out.bin").exists()


def _mutations(blob: bytes, seed: int, truncations: int):
    """Seeded hostile copies of `blob`: each truncation, then four copies
    with one bit flipped."""
    rng = np.random.default_rng(seed)
    for _ in range(truncations):
        yield blob[:int(rng.integers(len(blob)))]
        for _ in range(4):
            bit = int(rng.integers(8 * len(blob)))
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << bit % 8
            yield bytes(flipped)


# Run in a bounded child: argv[1] is a JSON list of command lines; prints
# [exit code, stderr lines] for each.
_HOSTILE_CHILD = """
import contextlib, io, json, sys
from gjcodec.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        runs.append([main(argv), err.getvalue().count("\\n")])
print(json.dumps(runs))
"""


def test_hostile_files_and_scenarios_fail_cleanly(tmp_path, sample_pgm,
                                                  run_bounded):
    """40 seeded truncations and bit flips of each artifact of a 32x32
    image (adaptive and static containers, model, codebook, PGM) each exit
    0, 2 or 4 with at most one stderr line, in a child bounded in memory
    and time; 100 of each bundled scenario's JSON text each resolve and
    validate to a scenario or stop with a ConfigError."""
    from importlib import resources

    from gjcodec.cli import load_scenario
    from gjcodec.errors import ConfigError
    from gjcodec.pipelines import validate_scenario

    img, out = str(sample_pgm), str(tmp_path / "out")
    art = {name: str(tmp_path / name)
           for name in ("a.gjc", "s.gjc", "m.model", "cb.bin")}
    for argv in (["compress", "--input", img, "--output", art["a.gjc"]],
                 ["train-model", img, "--output", art["m.model"]],
                 ["compress", "--input", img, "--model", art["m.model"],
                  "--output", art["s.gjc"]],
                 ["train-codebook", img, "--patch", "4", "--size", "16",
                  "--iters", "2", "--output", art["cb.bin"]]):
        assert run_cli(*argv)[0] == 0
    formats = [
        (art["a.gjc"], ["decompress", "--input", "HOSTILE", "--output", out]),
        (art["s.gjc"], ["decompress", "--input", "HOSTILE",
                        "--model", art["m.model"], "--output", out]),
        (art["m.model"], ["compress", "--input", img, "--model", "HOSTILE",
                          "--output", out]),
        (art["cb.bin"], ["train-model", img, "--codebook", "HOSTILE",
                         "--output", out]),
        (img, ["compress", "--input", "HOSTILE", "--output", out]),
    ]
    cases = []
    for seed, (artifact, argv) in enumerate(formats):
        with open(artifact, "rb") as fh:
            blob = fh.read()
        for i, bad in enumerate(_mutations(blob, seed, 8)):
            hostile = tmp_path / f"hostile-{seed}-{i}"
            hostile.write_bytes(bad)
            cases.append([str(hostile) if a == "HOSTILE" else a for a in argv])
    r = run_bounded("-c", _HOSTILE_CHILD, json.dumps(cases))
    assert r.returncode == 0, r.stderr
    runs = json.loads(r.stdout)
    assert len(runs) == 5 * 40
    for argv, (code, lines) in zip(cases, runs):
        assert code in (0, 2, 4) and lines <= 1, (argv, code, lines)

    for seed, name in enumerate(("fig5", "fig6")):
        text = (resources.files("gjcodec") / "scenarios"
                / f"{name}.json").read_bytes()
        for i, bad in enumerate(_mutations(text, 100 + seed, 20)):
            path = tmp_path / f"{name}-{i}.json"
            path.write_bytes(bad)
            try:
                scn = validate_scenario(load_scenario(str(path), []))
            except ConfigError:
                continue
            assert isinstance(scn, dict)


def _weak_first_fig5(**digital_fields):
    digital, weak, analog = _fig5_schemes(0, **digital_fields)
    return ["--set", f"schemes={json.dumps([weak, digital, analog])}"]


@pytest.mark.parametrize("scenario, sets, message", [
    ("fig6", ["--set", "conditions.burst_mean=1",
              "--set", "conditions.values=[0.3, 0.6]"],
     "conditions.values[1] = 0.6 is above 0.5, the most loss "
     "conditions.burst_mean = 1 allows"),
    ("fig5", _weak_first_fig5(est_snr_db=-50),
     "est_snr_db -50 is below every mcs_table threshold"),
    ("fig5", _weak_first_fig5(sq_alphabet=40000),
     "schemes[1].sq_alphabet must be at most 32768 when context_order is "
     "above 0, got 40000"),
    ("fig5", ["--set", f"schemes={json.dumps(_fig5_schemes(1, patch=3))}"],
     "patch 3 of scheme 'weak_jscc' does not divide the train sides "
     "160x160"),
    ("fig6", ["--set", "train.width=126"],
     "patch 4 of scheme 'weak_jscc' does not divide the train sides "
     "126x128"),
    ("fig6", ["--set", "source.width=126"],
     "patch 4 of scheme 'weak_jscc' does not divide the source sides "
     "126x128"),
    ("fig6", ["--set", "source.width=124"],
     "block side 8 of scheme 'digital_fec_1x' does not divide the source "
     "sides 124x128"),
    ("fig5", ["--set", 'source={"type": "pgm", "path": "side12.pgm"}'],
     "block side 8 of scheme 'digital_separate' does not divide the source "
     "sides 16x12"),
    ("fig5", ["--set", "bandwidth_ratio=0.001"],
     "bandwidth_ratio 0.001 gives scheme 'analog_jscc' 25 symbols, less "
     "than one for each of its 400 8x8 blocks"),
], ids=["loss-beyond-burst-model", "est-snr-below-table",
        "alphabet-beyond-context-symbols", "patch-3", "patch-train-side",
        "patch-source-side", "block-source-side", "block-pgm-side",
        "analog-budget"])
def test_scenario_errors_stop_the_sweep_before_any_build(
        monkeypatch, tmp_path, scenario, sets, message):
    """A scenario rule that ties a field to another field or to the source
    image (a loss rate the burst model can reach, an SNR estimate some
    mcs_table entry accepts, an alphabet the context symbols can hold, a
    patch or DCT block that tiles the training and source images, an analog
    budget of a symbol per block) exits 2 with one line naming the field
    before any scheme's artifact is built."""
    import gjcodec.pipelines as pipelines

    def build(ctx, sp):
        raise AssertionError(f"built {sp['label']}")

    for name, scheme in list(pipelines._SCHEMES.items()):
        monkeypatch.setitem(pipelines._SCHEMES, name,
                            scheme._replace(build=build))
    monkeypatch.chdir(tmp_path)
    save_pgm(ImageGrid(np.full((12, 16), 90, dtype=np.uint8)), "side12.pgm")
    got, out, err = run_cli("sweep", "--scenario", scenario, *sets)
    assert (got, out, err) == (2, "", f"gjcodec: error: {message}\n")


@pytest.mark.parametrize("command, calls", [
    (["sweep", "--set", "num_seeds=1"], 1),
    (["simulate", "--scheme", "analog_jscc", "--condition", "6.0"], 1),
], ids=["sweep", "simulate"])
def test_scenario_is_validated_once_per_build(monkeypatch, command, calls):
    """sweep validates its scenario once, before it builds; simulate once,
    before it looks the scheme up, and builds that scheme from that copy."""
    import gjcodec.cli as cli
    import gjcodec.pipelines as pipelines
    real, seen = pipelines.validate_scenario, []

    def validate(scn):
        seen.append(scn)
        return real(scn)

    monkeypatch.setattr(cli, "validate_scenario", validate)
    monkeypatch.setattr(pipelines, "validate_scenario", validate)
    analog = _fig5_schemes(0)[2:]
    code, _, err = run_cli(command[0], "--scenario", "fig5",
                           "--set", f"schemes={json.dumps(analog)}",
                           *command[1:])
    assert code == 0, err
    assert len(seen) == calls


def test_set_reaches_list_entries(tmp_path):
    """A --set path part that indexes a list names that entry, as the same
    edit made in the scenario file does; an index past the end, or a
    negative one, names no entry."""
    small = ["--set", "num_seeds=1", "--set", "train.images=1"]
    scn = _bundled_scenario("fig5")
    scn["schemes"][0]["sq_step"] = 32
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(scn))
    code, by_file, err = run_cli("sweep", "--scenario", str(edited), *small)
    assert code == 0, err
    code, by_set, err = run_cli("sweep", "--scenario", "fig5", *small,
                                "--set", "schemes.0.sq_step=32")
    assert code == 0, err
    assert by_set == by_file
    for path in ("schemes.3.sq_step", "schemes.-1.sq_step"):
        assert run_cli("sweep", "--scenario", "fig5", "--set",
                       f"{path}=32") == (
            2, "", f"gjcodec: error: --set path {path!r} does not exist\n")


def test_train_model_on_codebook_tokens(tmp_path, sample_pgm):
    """train-model --codebook counts each image's VQ token grid."""
    from gjcodec.context import CausalContextModel, load_model, train
    from gjcodec.pipelines import _ar1_textured
    from gjcodec.vq import extract_patches, load_codebook, vq_encode
    other = tmp_path / "other.pgm"
    save_pgm(_ar1_textured(32, 32, {"rho": 0.5, "sigma": 20.0,
                                    "mean": 100.0}, 5), other)
    images = [str(sample_pgm), str(other)]
    cb_path, model_path = tmp_path / "cb.bin", tmp_path / "tok.model"
    assert run_cli("train-codebook", *images, "--output", str(cb_path),
                   "--size", "16", "--iters", "5")[0] == 0
    code, _, err = run_cli("train-model", *images, "--codebook", str(cb_path),
                           "--order", "1", "--output", str(model_path))
    assert code == 0, err
    cb = load_codebook(cb_path)
    grids = [vq_encode(cb, extract_patches(load_pgm(p).samples, 4))
             .reshape(8, 8) for p in images]
    model = load_model(model_path)
    assert isinstance(model, CausalContextModel)
    assert model.alphabet == cb.size == 16 and model.order == 1
    assert model.counts == train(CausalContextModel(16, order=1), grids).counts


def test_train_model_neighborhood(tmp_path, sample_pgm):
    from gjcodec.context import NeighborhoodModel, load_model, train
    path = tmp_path / "nb.model"
    code, _, err = run_cli("train-model", str(sample_pgm), "--kind",
                           "neighborhood", "--output", str(path))
    assert code == 0, err
    model = load_model(path)
    assert isinstance(model, NeighborhoodModel)
    grid = load_pgm(sample_pgm).samples.astype(np.int64)
    assert model.counts == train(NeighborhoodModel(256), [grid]).counts


def test_train_model_rejects_a_codebook_of_non_square_patches(tmp_path,
                                                               sample_pgm):
    from gjcodec.vq import Codebook, save_codebook
    cb = tmp_path / "cb.bin"
    save_codebook(Codebook(np.arange(12, dtype=np.float32).reshape(4, 3)), cb)
    code, _, err = run_cli("train-model", str(sample_pgm), "--codebook",
                           str(cb), "--output", str(tmp_path / "m.model"))
    assert code == 2
    assert "not a square patch" in err
    assert not (tmp_path / "m.model").exists()
