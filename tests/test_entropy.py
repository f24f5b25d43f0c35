import numpy as np
import pytest

from gjcodec.context import CausalContextModel, Pricer, train
from gjcodec.entropy import (Bitstream, _max_symbols, ac_decode, ac_encode,
                             sequence_cost_bits)
from gjcodec.errors import (CorruptStreamError, ModelMismatchError,
                            ParameterError)


def _random_model(rng, alphabet, order):
    m = CausalContextModel(alphabet, order=order)
    grid = rng.integers(0, alphabet, (20, 20))
    return train(m, [grid])


def test_uniform_model_costs_eight_bits_per_byte(rng):
    syms = rng.integers(0, 256, 1000)
    stream = ac_encode(syms, CausalContextModel(256, order=0))
    assert 8000 <= stream.payload_bits <= 8032


def test_skewed_frozen_pmf_is_cheap():
    # counts chosen so p(0) quantizes very close to 0.99
    m = CausalContextModel(2, order=0, alpha=2.0 ** -8)
    for _ in range(990):
        m.update((), 0)
    for _ in range(10):
        m.update((), 1)
    syms = [0] * 100
    ideal = sequence_cost_bits(m, syms)
    assert ideal == pytest.approx(-100 * np.log2(0.99), rel=0.05)
    stream = ac_encode(syms, m)
    assert stream.payload_bits <= 40
    np.testing.assert_array_equal(ac_decode(stream, m), syms)


def test_empty_sequence():
    stream = ac_encode([], CausalContextModel(4))
    assert stream.n_symbols == 0
    assert stream.payload == b""
    assert list(ac_decode(stream, CausalContextModel(4))) == []


def test_header_round_trip():
    st = ac_encode([1, 2, 3], CausalContextModel(4, order=1))
    again = Bitstream.from_bytes(st.to_bytes())
    assert (again.alphabet, again.n_symbols, again.model_hash,
            again.payload) == (st.alphabet, st.n_symbols, st.model_hash,
                               st.payload)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_round_trip_fuzz(seed, adaptive):
    rng = np.random.default_rng(seed * 2 + adaptive)
    alphabet = int(rng.integers(2, 64))
    order = int(rng.integers(0, 3))
    model = _random_model(rng, alphabet, order)
    syms = rng.integers(0, alphabet, int(rng.integers(0, 400)))
    stream = ac_encode(syms, model.copy(), adaptive=adaptive)
    out = ac_decode(stream, model.copy(), adaptive=adaptive)
    np.testing.assert_array_equal(out, syms)


def test_payload_tracks_model_cost(rng):
    """Actual payload stays within the termination allowance of ideal."""
    model = _random_model(rng, 16, 1)
    syms = rng.integers(0, 16, 3000)
    ideal = sequence_cost_bits(model, syms)
    stream = ac_encode(syms, model)
    assert stream.payload_bits >= ideal - 1e-6
    assert stream.payload_bits - ideal <= 32


def test_adaptive_cost_does_not_mutate(rng):
    model = _random_model(rng, 8, 1)
    h = model.state_hash()
    sequence_cost_bits(model, rng.integers(0, 8, 200), adaptive=True)
    assert model.state_hash() == h


def test_adaptive_coding_leaves_the_model_unchanged(rng):
    """An adaptive encode and then decode on one trained model price from
    its counts and change none of them: the same rows, the same hash."""
    model = _random_model(rng, 12, 2)
    rows, saved, digest = model._rows, model._serialize(), model.state_hash()
    syms = rng.integers(0, 12, 500)
    stream = ac_encode(syms, model, adaptive=True)
    np.testing.assert_array_equal(ac_decode(stream, model, adaptive=True), syms)
    assert model._serialize() == saved
    assert model._rows is rows
    assert model.state_hash() == digest
    model._hash = None
    assert model.state_hash() == digest


def test_truncated_stream_detected(rng):
    model = _random_model(rng, 16, 1)
    syms = rng.integers(0, 16, 500)
    blob = ac_encode(syms, model).to_bytes()
    with pytest.raises(CorruptStreamError):
        ac_decode(Bitstream.from_bytes(blob[:-1]), model)


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("alphabet", [2, 32, 256])
@pytest.mark.parametrize("top", [False, True])
def test_extreme_streams_fit_the_payload_bound(alphabet, top, adaptive):
    """The cheapest streams there are, 2e5 copies of one symbol coded with
    counts that favour it as much as a PMF can (static) or ever more
    (adaptive), pass the decoder's payload bound and decode.  The top
    symbol also takes the subdivision remainder."""
    n, sym = 200_000, alphabet - 1 if top else 0
    model = CausalContextModel(alphabet, order=0)
    if not adaptive:
        train(model, [np.full((1, n), sym)])
    stream = ac_encode([sym] * n, model.copy(), adaptive=adaptive)
    assert n <= _max_symbols(len(stream.payload), alphabet)
    out = ac_decode(stream, model.copy(), adaptive=adaptive)
    assert len(out) == n and (out == sym).all()


def test_symbol_count_beyond_the_payload_is_rejected_unread(monkeypatch):
    """A symbol count the payload cannot hold is corrupt before the decoder
    allocates or prices anything."""
    import gjcodec.entropy as entropy
    model = CausalContextModel(256, order=2)
    stream = ac_encode(np.arange(100) % 256, model.copy(), adaptive=True)
    limit = _max_symbols(len(stream.payload), 256)
    assert 100 < limit < 2 ** 32 - 1

    def never(*args, **kwargs):
        raise AssertionError("the decoder ran")

    monkeypatch.setattr(entropy.np, "empty", never)
    monkeypatch.setattr(entropy.Pricer, "decode", never)
    for count in (limit + 1, 2 ** 32 - 1):
        stream.n_symbols = count
        with pytest.raises(CorruptStreamError, match="cannot hold"):
            ac_decode(stream, model.copy(), adaptive=True)


def test_model_mismatch_detected(rng):
    model = _random_model(rng, 16, 1)
    stream = ac_encode(rng.integers(0, 16, 100), model)
    other = _random_model(np.random.default_rng(999), 16, 1)
    with pytest.raises(ModelMismatchError):
        ac_decode(stream, other)


def test_symbol_outside_alphabet_rejected():
    with pytest.raises(ParameterError):
        ac_encode([4], CausalContextModel(4))


@pytest.mark.parametrize("symbol", [4, -1])
@pytest.mark.parametrize("adaptive", [False, True])
def test_cost_of_symbol_outside_alphabet_rejected(symbol, adaptive):
    with pytest.raises(ParameterError):
        sequence_cost_bits(CausalContextModel(4), [0, symbol], adaptive=adaptive)


# SHA-256 of the adaptive stream and float.hex of the adaptive cost of one
# 64x64 image's DCT symbols, from a fresh model and from one trained on the
# first 1024 symbols; measured with the dense quantize_pmf table per step.
ADAPTIVE_GOLDEN = {
    (256, 2, "fresh"): ("d2bbcbc939e07c86a35b35e054b638c9995fd7a3b266aab3cbf0e2a7077f4be4",
                        "0x1.4a2c511d699c6p+14"),
    (256, 2, "trained"): ("834402835e60fbf6fd5f1919ec8c98692cb70f5fd29a688a52c862d6ea6e11ea",
                          "0x1.2e4570de32808p+14"),
    (32, 1, "fresh"): ("e82e10ab30334912a528a037e64446c95721267e168035b503bcc77664d7b259",
                       "0x1.ac97bfe3bee74p+12"),
    (32, 1, "trained"): ("0e179beb268973ce86398ea80ab325a1a66001183f62e955207457934704ae1c",
                         "0x1.93b7661a760a1p+12"),
    (5, 2, "fresh"): ("f1289574caf16d2be2813988d040fd967950bcc7a2d3c2675095443fbbeefb37",
                      "0x1.de58c78b87753p+11"),
    (5, 2, "trained"): ("c936408d65eec40c681f75746f831440baea5b9132ce76aeaa026b0fdb83a869",
                        "0x1.d2e53ac759e9bp+11"),
}
_GOLDEN_STEP = {256: 8.0, 32: 24.0, 5: 40.0}


@pytest.mark.parametrize("alphabet, order, start", sorted(ADAPTIVE_GOLDEN))
def test_adaptive_stream_golden_digest(alphabet, order, start):
    import hashlib

    from gjcodec.pipelines import digital_symbols
    from gjcodec.sources import ImageGrid, ar1_field
    img = ImageGrid.from_float(ar1_field(64, 64, 0.9, seed=5) * 40.0 + 128.0)
    syms = digital_symbols(img, _GOLDEN_STEP[alphabet], alphabet)
    model = CausalContextModel(alphabet, order=order)
    if start == "trained":
        train(model, [syms[:1024].reshape(16, 64)])
    stream = ac_encode(syms, model.copy(), adaptive=True)
    cost = sequence_cost_bits(model, syms, adaptive=True)
    digest, cost_hex = ADAPTIVE_GOLDEN[alphabet, order, start]
    assert hashlib.sha256(stream.to_bytes()).hexdigest() == digest
    assert cost.hex() == cost_hex
    np.testing.assert_array_equal(
        ac_decode(stream, model.copy(), adaptive=True), syms)


def test_adaptive_coding_builds_no_dense_table(rng, monkeypatch):
    import gjcodec.context as context
    calls = []
    real = context.quantize_pmf

    def counting(counts, alpha_fp):
        calls.append(1)
        return real(counts, alpha_fp)

    monkeypatch.setattr(context, "quantize_pmf", counting)
    model = _random_model(rng, 64, 2)
    syms = rng.integers(0, 64, 500)
    stream = ac_encode(syms, model.copy(), adaptive=True)
    ac_decode(stream, model.copy(), adaptive=True)
    sequence_cost_bits(model, syms, adaptive=True)
    assert calls == []
    ac_encode(syms, model.copy())  # static coding prices sparse tables too
    assert calls == []


def _reference_cost(model, syms, adaptive):
    """sum(16 - log2 width) as a float loop, with widths from the dense
    quantize_pmf table of each step (after counting the symbols before it,
    when adaptive)."""
    model = model.copy()
    total, hist = 0.0, ()
    for s in syms:
        total += 16.0 - float(np.log2(int(model.coding_table(hist)[0][s])))
        if adaptive:
            model.update(hist, s)
        if model.order:
            hist = (hist + (int(s),))[-model.order:]
    return total


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_encoder_cost_is_the_sequence_cost(seed, adaptive):
    """ac_encode's cost_bits, sequence_cost_bits and a float loop over the
    dense tables' widths are the same float, bit for bit."""
    rng = np.random.default_rng(100 + seed)
    alphabet = int(rng.integers(2, 300))
    model = _random_model(rng, alphabet, int(rng.integers(0, 4)))
    syms = rng.integers(0, alphabet, int(rng.integers(1, 600)))
    cost = ac_encode(syms, model.copy(), adaptive=adaptive).cost_bits
    assert cost == sequence_cost_bits(model, syms, adaptive=adaptive)
    assert cost == _reference_cost(model, syms, adaptive)


def test_empty_sequence_costs_nothing():
    assert ac_encode([], CausalContextModel(4)).cost_bits == 0.0


def test_cost_is_not_part_of_the_stream():
    st = ac_encode([1, 2, 3], CausalContextModel(4, order=1))
    again = Bitstream.from_bytes(st.to_bytes())
    assert again.cost_bits is None
    assert again == st


def test_array_log2_equals_scalar_log2():
    """The encoder takes log2 of all widths at once; a float loop takes it
    one width at a time.  Every width a 16-bit PMF can hold agrees."""
    widths = np.arange(1, (1 << 16) + 1)
    whole = np.log2(widths)
    assert all(float(np.log2(w)) == x for w, x in zip(widths.tolist(),
                                                     whole.tolist()))


def _histories(syms, order):
    return {tuple(syms[max(0, i - order):i]) for i in range(len(syms))}


@pytest.mark.parametrize("adaptive", [False, True])
def test_coding_validates_each_history_once(rng, monkeypatch, adaptive):
    """Encode, decode and cost build no dense table and never call
    coding_table.  Every pass, static or adaptive, validates each distinct
    history once: its tables live as long as the pass."""
    import gjcodec.context as context
    model = _random_model(rng, 24, 2)
    syms = rng.integers(0, 24, 800).tolist()
    validated, dense = [], []
    real_key = CausalContextModel._context_key

    def counting_key(self, ctx):
        validated.append(tuple(ctx))
        return real_key(self, ctx)

    def no_table(self, ctx):
        raise AssertionError("coding_table called")

    monkeypatch.setattr(CausalContextModel, "_context_key", counting_key)
    monkeypatch.setattr(CausalContextModel, "coding_table", no_table)
    monkeypatch.setattr(context, "quantize_pmf",
                        lambda *args: dense.append(1))
    distinct = sorted(_histories(syms, 2))
    stream = ac_encode(syms, model.copy(), adaptive=adaptive)
    assert sorted(validated) == distinct
    validated.clear()
    np.testing.assert_array_equal(
        ac_decode(stream, model.copy(), adaptive=adaptive), syms)
    assert sorted(validated) == distinct
    validated.clear()
    sequence_cost_bits(model, syms, adaptive=adaptive)
    assert sorted(validated) == distinct
    assert dense == []


@pytest.mark.parametrize("alphabet, order", [(24, 2), (300, 1), (7, 0)])
def test_static_decode_builds_starts_for_reused_tables_only(
        rng, monkeypatch, alphabet, order):
    """A static decode walks a table at its first search and builds its
    sparse_starts for the next, once per history it decodes twice or more
    (bisection beats the walk on a table searched many times); an adaptive
    pass, whose tables change at every step, never builds them."""
    import gjcodec.context as context
    model = _random_model(rng, alphabet, order)
    syms = rng.integers(0, alphabet, 600).tolist()
    built = []
    real = context.sparse_starts

    def counting(table):
        built.append(1)
        return real(table)

    monkeypatch.setattr(context, "sparse_starts", counting)
    seen = [tuple(syms[max(0, i - order):i]) for i in range(len(syms))]
    reused = {h for h in seen if seen.count(h) > 1}
    for adaptive in (False, True):
        built.clear()
        stream = ac_encode(syms, model, adaptive=adaptive)
        np.testing.assert_array_equal(
            ac_decode(stream, model, adaptive=adaptive), syms)
        assert len(built) == (0 if adaptive else len(reused))


def test_carry_ripples_through_ff_bytes():
    """A carry into trailing 0xFF bytes zeroes them and bumps the byte
    before them."""
    from gjcodec.entropy import _propagate_carry
    buf = bytearray(b"\x12\xff\xff")
    _propagate_carry(buf)
    assert buf == b"\x13\x00\x00"


def _steered_symbols(model, n, target_bits):
    """n symbols, each the one whose code interval holds the point
    T = 1/2 + 2**-target_bits, by a full-precision copy of the coder's
    arithmetic: the code bits of T are 0111... below 1/2 and cross it only
    late, which is where carries come from.  `low` is the interval's start
    in units of 2**-(64 + emitted bits), so it never overflows."""
    low, range_, emitted = 0, 1 << 64, 0
    top = model.alphabet - 1
    pricer = Pricer(model)
    syms = []
    for _ in range(n):
        # T in the same units, times 2**target_bits to stay an integer
        t = (1 << (emitted + 63 + target_bits)) + (1 << (emitted + 64))
        r = range_ >> 16
        for s in range(model.alphabet):
            lo, width = pricer.code((), s)
            base = r * lo
            new = range_ - base if s == top else r * width
            if (low + base) << target_bits <= t \
                    < (low + base + new) << target_bits:
                break
        syms.append(s)
        low, range_ = low + base, new
        while range_ < 1 << 32:
            low, range_, emitted = low << 16, range_ << 16, emitted + 16
    return syms


@pytest.mark.parametrize("alphabet, n, target_bits, sites", [
    (3, 60, 60, [0]), (5, 60, 60, [0]), (7, 60, 60, [0]),
    (3, 60, 130, [1]), (3, 200, 60, [0, 1]),
])
def test_steered_streams_carry_and_round_trip(monkeypatch, alphabet, n,
                                              target_bits, sites):
    """Seeded random streams practically never carry, so these steer the
    code interval onto a point just above 1/2: the carry inside the coding
    loop (site 0), the one in the final flush (site 1) or both run, and
    the stream still decodes to its symbols."""
    import inspect
    import sys

    import gjcodec.entropy as entropy
    source, first = inspect.getsourcelines(entropy._encode)
    lines = [first + i for i, text in enumerate(source)
             if "_propagate_carry(out)" in text]
    assert len(lines) == 2
    real, ran = entropy._propagate_carry, []

    def propagate_carry(buf):
        ran.append(lines.index(sys._getframe(1).f_lineno))
        real(buf)

    monkeypatch.setattr(entropy, "_propagate_carry", propagate_carry)
    model = CausalContextModel(alphabet, order=0)
    syms = _steered_symbols(model, n, target_bits)
    stream = ac_encode(syms, model)
    assert ran == sites
    np.testing.assert_array_equal(ac_decode(stream, model), syms)
