import hashlib

import numpy as np
import pytest
from conftest import neighbor_context

from gjcodec.context import (ABSENT, PMF_BITS, PMF_TOTAL, CausalContextModel,
                             NeighborhoodModel, Pricer, cross_entropy,
                             load_model, quantize_pmf, train)
from gjcodec.entropy import ac_encode
from gjcodec.errors import ParameterError


def _contexts(model):
    """Every context the model's rows hold counts for, in row order."""
    return list(dict.fromkeys(map(tuple, model._rows["context"].tolist())))


def _count_dict(model):
    """{context: (symbols, counts)} of every context the model's rows
    hold, each pair read through its lookup."""
    return {key: tuple(map(tuple, model._run(key))) for key in _contexts(model)}


def _with_counts(model, counts):
    """`model`, untrained, given `counts` ({context: (symbols, counts)})."""
    rows = [(key, s, n) for key in sorted(counts)
            for s, n in zip(*counts[key])]
    model._merge(np.array(rows, model._rows.dtype))
    return model


def _assert_counts(model, frozen):
    """Each context of `frozen` ({context: (symbols, counts)}) looks up its
    pair, and no other context looks up any count."""
    for key, (symbols, counts) in frozen.items():
        assert model._run(key) == (list(symbols), list(counts)), key
    assert set(_contexts(model)) == frozen.keys()


def test_untrained_model_is_uniform():
    m = CausalContextModel(4, order=0, alpha=1.0)
    w = m.coding_table(())[0]
    np.testing.assert_array_equal(w, [16384] * 4)
    assert int(w.sum()) == PMF_TOTAL


def test_laplace_estimate_before_quantization():
    """Three observations of symbol 2 under alpha=1: p(2) = 4/7."""
    m = CausalContextModel(4, order=0, alpha=1.0)
    for _ in range(3):
        m.update((), 2)
    assert m._run(()) == ([2], [3])
    probs = m.coding_table(())[0] / PMF_TOTAL
    assert probs[2] == pytest.approx(4 / 7, abs=2 / PMF_TOTAL)
    assert probs[0] == pytest.approx(1 / 7, abs=2 / PMF_TOTAL)


@pytest.mark.parametrize("seed", range(8))
def test_quantized_pmf_sums_exactly(seed):
    rng = np.random.default_rng(seed)
    a = int(rng.integers(2, 300))
    counts = rng.integers(0, 10_000, a)
    alpha_fp = int(rng.integers(1, 1 << 16))
    w = quantize_pmf(counts, alpha_fp)
    assert int(w.sum()) == PMF_TOTAL
    assert w.min() >= 1


def test_update_strictly_increases_probability():
    m = CausalContextModel(8, order=1, alpha=1.0)
    before = m.coding_table((3,))[0][5]
    m.update((3,), 5)
    after = m.coding_table((3,))[0][5]
    assert after > before


def test_update_counts_accumulate():
    m = CausalContextModel(8, order=1)
    for _ in range(37):
        m.update((2,), 6)
    assert m._run((2,)) == ([6], [37])


def test_updates_are_context_local():
    m = CausalContextModel(8, order=1)
    base = m.coding_table((1,))[0]
    for _ in range(50):
        m.update((0,), 4)
    np.testing.assert_array_equal(m.coding_table((1,))[0], base)


def test_train_constant_corpus_prefers_constant():
    grids = [np.full((6, 6), 5, dtype=np.int64) for _ in range(4)]
    m = train(CausalContextModel(8, order=2), grids)
    assert np.argmax(m.coding_table((5, 5))[0]) == 5


def test_train_single_cell_grid_only_marginal():
    m = train(NeighborhoodModel(4), [np.array([[2]])])
    marginal = m.coding_table((ABSENT,) * 4)[0]
    assert np.argmax(marginal) == 2
    # no neighbours exist, so no directional context can have been seen
    ctx_weights = m.coding_table((2, ABSENT, ABSENT, ABSENT))[0]
    np.testing.assert_array_equal(ctx_weights, marginal)


def test_order0_training_equals_histogram(rng):
    grid = rng.integers(0, 16, (40, 40))
    m = train(CausalContextModel(16, order=0), [grid])
    hist = np.bincount(grid.ravel(), minlength=16)
    assert m._run(()) == (np.flatnonzero(hist).tolist(),
                          hist[hist > 0].tolist())


def test_cross_entropy_uniform():
    m = CausalContextModel(256, order=0)
    grid = np.arange(64, dtype=np.int64).reshape(8, 8)
    assert cross_entropy(m, grid) == pytest.approx(8.0)


def test_cross_entropy_deterministic_corpus():
    grid = np.zeros((100, 100), dtype=np.int64)
    m = train(CausalContextModel(2, order=1, alpha=1.0), [grid])
    assert cross_entropy(m, grid) < 0.01


def test_cross_entropy_is_the_static_cost_of_each_row():
    """A causal history restarts at every grid row: on a sequence the mean
    times its length is static ac_encode's ideal cost, and on a grid it is
    the sum of that cost over the rows, not the cost of the flattened
    grid."""
    rng = np.random.default_rng(5)
    m = train(CausalContextModel(8, order=2), [rng.integers(0, 8, (12, 9))])
    seq = rng.integers(0, 8, 40)
    assert cross_entropy(m, seq) * seq.size == pytest.approx(
        ac_encode(seq, m).cost_bits, rel=1e-12)
    grid = rng.integers(0, 8, (5, 7))
    rows = sum(ac_encode(row, m).cost_bits for row in grid)
    assert cross_entropy(m, grid) * grid.size == pytest.approx(rows, rel=1e-12)
    assert cross_entropy(m, grid) * grid.size != pytest.approx(
        ac_encode(grid.ravel(), m).cost_bits, rel=1e-6)


def test_cross_entropy_non_negative(rng):
    for _ in range(5):
        grid = rng.integers(0, 7, (12, 12))
        m = train(CausalContextModel(7, order=1), [grid])
        assert cross_entropy(m, grid) >= 0.0


def test_alpha_floor():
    with pytest.raises(ParameterError):
        CausalContextModel(4, alpha=2.0 ** -17)


@pytest.mark.parametrize("make", [
    lambda: CausalContextModel(4, alpha=float("nan")),
    lambda: CausalContextModel(4, alpha=float("inf")),
    lambda: CausalContextModel(4, alpha=2.0 ** 16),       # alpha_fp = 2**32
    lambda: NeighborhoodModel(2 ** 15 + 1, alpha=2.0 ** 16 - 1),  # A*fp >= 2**47
    lambda: CausalContextModel(4, order=256),
    lambda: CausalContextModel(2 ** 16),
    lambda: CausalContextModel(2 ** 16 - 1, order=0, alpha=2.0 ** 16 - 1),
    # context symbols are i16 in the model file
    lambda: CausalContextModel(2 ** 15 + 1, order=1),
    lambda: CausalContextModel(40000, order=2),
    lambda: NeighborhoodModel(2 ** 15 + 1),
])
def test_model_the_file_cannot_hold_is_rejected(make):
    with pytest.raises(ParameterError):
        make()


def test_largest_model_parameters_save_and_load(tmp_path):
    """The largest alpha for the alphabet, the largest alphabet and the
    largest order the constructors accept survive save and load."""
    path = tmp_path / "m.model"
    for model in (CausalContextModel(4, order=255, alpha=(2 ** 32 - 1) / 2 ** 16),
                  NeighborhoodModel(2 ** 15, alpha=(2 ** 32 - 1) / 2 ** 16),
                  CausalContextModel(2 ** 16 - 1, order=0,
                                     alpha=(2 ** 31 - 1) / 2 ** 16)):
        model.save(path)
        assert load_model(path).state_hash() == model.state_hash()


def test_largest_context_symbol_saves_and_loads(tmp_path):
    model = CausalContextModel(2 ** 15, order=1)
    model.update((2 ** 15 - 1,), 2 ** 15 - 1)
    model.save(tmp_path / "m.model")
    loaded = load_model(tmp_path / "m.model")
    assert loaded.state_hash() == model.state_hash()
    assert _count_dict(loaded) == _count_dict(model)


@pytest.mark.parametrize("kind, alphabet, ctx_len", [
    (0, 2 ** 15 + 1, 1), (0, 40000, 3), (1, 2 ** 15 + 1, 4)])
def test_model_file_too_wide_for_its_context_symbols(tmp_path, kind, alphabet,
                                                     ctx_len):
    """A header whose alphabet the i16 context symbols cannot hold is a
    malformed file, even with no entries."""
    import struct

    from gjcodec.errors import FormatError
    path = tmp_path / "m.model"
    path.write_bytes(b"GJCM" + struct.pack("<BBHBIQ", 1, kind, alphabet,
                                           ctx_len, 1 << 16, 0))
    with pytest.raises(FormatError, match="alphabet"):
        load_model(path)


def test_neighbor_context_borders():
    tokens = np.array([[1, 2], [3, 4]])
    avail = np.ones((2, 2), dtype=bool)
    # top-left cell: up and left are outside the grid
    ctx = neighbor_context(tokens, avail, 0, 0)
    assert ctx == (ABSENT, ABSENT, 2, 3)
    avail[1, 0] = False
    assert neighbor_context(tokens, avail, 0, 0) == (ABSENT, ABSENT, 2, ABSENT)


def test_state_hash_tracks_state():
    a = CausalContextModel(16, order=1)
    b = CausalContextModel(16, order=1)
    assert a.state_hash() == b.state_hash()
    a.update((3,), 7)
    assert a.state_hash() != b.state_hash()
    b.update((3,), 7)
    assert a.state_hash() == b.state_hash()


def test_copy_is_independent():
    m = CausalContextModel(8, order=1)
    c = m.copy()
    c.update((0,), 1)
    assert m.state_hash() != c.state_hash()


@pytest.mark.parametrize("factory", [
    lambda: CausalContextModel(40, order=2),
    lambda: NeighborhoodModel(40),
], ids=["causal", "neighborhood"])
def test_trained_copy_shares_no_mutable_state(rng, factory):
    """Copies share the trained rows; an update on a copy, or a static or
    an adaptive pass over the model itself, leaves the original's counts
    and hash as they were."""
    m = train(factory(), [rng.integers(0, 40, (20, 20))])
    saved, digest = m._serialize(), m.state_hash()
    key = _contexts(m)[0]
    symbols = m._run(key)[0]
    dup = m.copy()
    dup.update(key, symbols[0])
    dup.update(key, 39 - symbols[0])
    assert dup.state_hash() != digest
    for adaptive in (False, True):
        pricer = Pricer(m, adaptive)
        for s in (symbols[0], 39 - symbols[0], symbols[0]):
            pricer.code(key, s)
        assert m._serialize() == saved
        assert m.state_hash() == digest
        m._hash = None
    assert m._serialize() == saved
    assert m.state_hash() == digest


@pytest.mark.parametrize("factory", [
    lambda: CausalContextModel(16, order=2, alpha=0.5),
    lambda: NeighborhoodModel(16, alpha=2.0),
])
def test_save_load_round_trip(tmp_path, rng, factory):
    m = factory()
    grid = rng.integers(0, 16, (10, 10))
    train(m, [grid])
    path = tmp_path / "model.bin"
    m.save(path)
    loaded = load_model(path)
    assert type(loaded) is type(m)
    assert loaded.state_hash() == m.state_hash()


def _sparse_dense(counts, alpha_fp):
    """Weights and cumsum of the sparse evaluation, plus its symbol search at
    every interval boundary, checked against itself."""
    from gjcodec.context import sparse_interval, sparse_locate, sparse_pmf
    counts = np.asarray(counts, dtype=np.int64)
    a = len(counts)
    nz = np.flatnonzero(counts)
    table = sparse_pmf(nz.tolist(), counts[nz].tolist(), a, alpha_fp)
    pairs = [sparse_interval(table, s) for s in range(a)]
    cum = np.array([lo for lo, _ in pairs] + [PMF_TOTAL])
    w = np.array([width for _, width in pairs])
    for s, (lo, width) in enumerate(pairs):
        for target in (lo, lo + width - 1):
            assert sparse_locate(table, target) == (s, lo, width)
    return w, cum


def _assert_sparse_matches(counts, alpha_fp):
    ref = quantize_pmf(counts, alpha_fp)
    w, cum = _sparse_dense(counts, alpha_fp)
    np.testing.assert_array_equal(w, ref)
    np.testing.assert_array_equal(cum, np.concatenate(([0], np.cumsum(ref))))


@pytest.mark.parametrize("alpha_fp", [1, 1 << 8, 3 << 14, 1 << 16, 1 << 17,
                                      12345])
def test_sparse_pmf_matches_quantize_pmf(alpha_fp):
    rng = np.random.default_rng(alpha_fp)
    for a in (2, 3, 5, 32, 256, 300):
        for _ in range(12):
            counts = np.zeros(a, dtype=np.int64)
            nnz = int(rng.integers(0, min(a, 24) + 1))
            idx = rng.choice(a, nnz, replace=False)
            high = int(rng.choice([4, 1000, 10 ** 6, 10 ** 9]))
            counts[idx] = rng.integers(1, high, nnz)
            _assert_sparse_matches(counts, alpha_fp)


@pytest.mark.parametrize("counts, alpha_fp", [
    ([0, 0, 0, 0], 1 << 16),                          # empty context
    ([10, 11, 0, 19, 7, 0, 6, 9, 5, 9, 9], 1 << 16),  # tie branch
    ([0, 45, 21, 31, 0, 39, 36, 18, 38, 0, 2], 1 << 16),
    ([2, 32, 0, 13, 21, 5, 27], 1 << 12),             # deficit past the zeros
    ([0, 7 * 10 ** 8, 3, 0, 5 * 10 ** 8, 0], 1),      # excess branch
])
def test_sparse_locate_by_starts_matches_the_walk(counts, alpha_fp):
    """Bisecting sparse_starts finds every interval the walk over the
    non-zeros finds: at its first and last target, on fixed tables of each
    sparse_pmf branch and on random ones up to 300 symbols."""
    from gjcodec.context import (sparse_interval, sparse_locate, sparse_pmf,
                                 sparse_starts)
    rng = np.random.default_rng(len(counts))
    cases = [np.asarray(counts)]
    for a in (2, 7, 256, 300):
        c = np.zeros(a, dtype=np.int64)
        nnz = int(rng.integers(1, min(a, 80) + 1))
        c[rng.choice(a, nnz, replace=False)] = rng.integers(1, 10 ** 6, nnz)
        cases.append(c)
    for c in cases:
        nz = np.flatnonzero(c)
        table = sparse_pmf(nz.tolist(), c[nz].tolist(), len(c), alpha_fp)
        starts = sparse_starts(table)
        assert starts == [sparse_interval(table, i)[0] for i in nz.tolist()]
        for symbol in range(len(c)):
            lo, width = sparse_interval(table, symbol)
            for target in (lo, lo + width - 1):
                assert (sparse_locate(table, target, starts)
                        == sparse_locate(table, target) == (symbol, lo, width))


def _deficit_groups(counts, alpha_fp):
    """Units of deficit left after the non-zeros with remainder above r0,
    the size of the group tied at r0, and how many non-zeros lie below."""
    c = np.asarray(counts, dtype=np.int64)
    num = c * PMF_TOTAL + alpha_fp
    total = int(num.sum())
    rem = num * PMF_TOTAL % total
    r0 = alpha_fp * PMF_TOTAL % total
    deficit = PMF_TOTAL - int(np.maximum(num * PMF_TOTAL // total, 1).sum())
    nz = c > 0
    tied = int((~nz).sum() + (nz & (rem == r0)).sum())
    return (deficit - int((nz & (rem > r0)).sum()), tied,
            int((nz & (rem < r0)).sum()), int((nz & (rem == r0)).sum()))


@pytest.mark.parametrize("counts, alpha_fp", [
    ([10, 11, 0, 19, 7, 0, 6, 9, 5, 9, 9], 1 << 16),
    ([15, 5, 0, 12, 1, 12], 1 << 15),
    ([15, 0, 1, 6], 1 << 15),
    ([4, 12, 4, 10, 11, 0, 0, 3], 1 << 15),
])
def test_sparse_pmf_tie_branch(counts, alpha_fp):
    """A non-zero count whose remainder equals that of the zero counts joins
    their index-ordered group."""
    left, tied, _, nonzero_ties = _deficit_groups(counts, alpha_fp)
    assert nonzero_ties and 0 < left < tied
    _assert_sparse_matches(counts, alpha_fp)


@pytest.mark.parametrize("counts, alpha_fp", [
    ([2, 32, 0, 13, 21, 5, 27], 1 << 12),
    ([0, 45, 21, 31, 0, 39, 36, 18, 38, 0, 2], 1 << 16),
    ([40, 39, 0, 28, 0, 43, 10, 18, 0, 0], 1 << 12),
])
def test_sparse_pmf_deficit_past_the_zero_counts(counts, alpha_fp):
    """The deficit outlasts every zero count and reaches, by remainder,
    some of the non-zeros whose remainders are below r0."""
    left, tied, below, _ = _deficit_groups(counts, alpha_fp)
    assert 0 < left - tied < below
    _assert_sparse_matches(counts, alpha_fp)


@pytest.mark.parametrize("counts, alpha_fp", [
    ([10 ** 9, 0, 0, 0], 1),
    ([0, 7 * 10 ** 8, 3, 0, 5 * 10 ** 8, 0], 1),
    ([10 ** 6] * 5 + [0] * 295, 1),
])
def test_sparse_pmf_excess_branch(counts, alpha_fp):
    """Flooring zero-count weights up to 1 overshoots 2**16; the excess is
    taken back from the non-zeros."""
    c = np.asarray(counts, dtype=np.int64)
    num = c * PMF_TOTAL + alpha_fp
    floors = np.maximum(num * PMF_TOTAL // int(num.sum()), 1)
    assert int(floors.sum()) > PMF_TOTAL
    _assert_sparse_matches(counts, alpha_fp)


def test_predict_is_the_dense_argmax():
    """sparse_argmax and predict() give np.argmax of the quantize_pmf
    weights (the lowest symbol on ties) and its weight, on seeded random
    sparse counts that reach every case: an empty context, a full alphabet,
    tied non-zeros, a zero-count symbol tying the heaviest non-zero from
    either side, and the excess branch where w0 is floored to 1."""
    from gjcodec.context import sparse_argmax, sparse_pmf
    rng = np.random.default_rng(17)
    ctx = (ABSENT,) * 4
    reached = set()
    for _ in range(1500):
        a = int(rng.choice([2, 3, 5, 16, 256, 300]))
        alpha_fp = int(rng.choice([1, 1 << 8, 3 << 14, 1 << 16, 1 << 20,
                                   1 << 24, (1 << 32) - 1]))
        if a * alpha_fp >= 1 << 47:
            continue
        nnz = int(rng.integers(0, (a if rng.random() < 0.5 else min(a, 6)) + 1))
        c = np.zeros(a, dtype=np.int64)
        high = int(rng.choice([2, 4, 1000, 10 ** 6, 10 ** 9]))
        c[rng.choice(a, nnz, replace=False)] = rng.integers(1, high, nnz)
        w = quantize_pmf(c, alpha_fp)
        best = int(np.argmax(w))
        nz = np.flatnonzero(c)
        table = sparse_pmf(nz.tolist(), c[nz].tolist(), a, alpha_fp)
        assert sparse_argmax(table, a) == (best, int(w[best]))
        counts = {ctx: (nz.tolist(), c[nz].tolist())} if nnz else {}
        model = _with_counts(NeighborhoodModel(a, alpha=alpha_fp / PMF_TOTAL),
                             counts)
        assert model.predict(ctx) == (best, int(w[best]))
        top = w == w.max()
        num = c * PMF_TOTAL + alpha_fp
        reached.update(name for name, hit in (
            ("empty", nnz == 0),
            ("full", nnz == a),
            ("non-zeros tie", (top & (c > 0)).sum() > 1),
            ("zero-count wins a tie", c[best] == 0 and (top & (c > 0)).any()),
            ("non-zero wins a tie", c[best] > 0 and (top & (c == 0)).any()),
            ("excess", np.maximum(num * PMF_TOTAL // int(num.sum()), 1).sum()
             > PMF_TOTAL)) if hit)
    assert reached == {"empty", "full", "non-zeros tie",
                       "zero-count wins a tie", "non-zero wins a tie",
                       "excess"}


def test_predict_memo_follows_the_counts(rng):
    """train() and update() on top of a model clear its predictions; a copy
    predicts from its own memo, so training the copy leaves the original's
    predictions as they were."""
    marginal = (ABSENT,) * 4
    m = train(NeighborhoodModel(8), [np.full((6, 6), 3)])
    assert m.predict(marginal)[0] == 3
    dup = m.copy()
    train(dup, [np.full((9, 9), 5)])
    assert dup.predict(marginal)[0] == 5
    assert m.predict(marginal)[0] == 3
    train(m, [np.full((9, 9), 6)])
    assert m.predict(marginal)[0] == 6
    for _ in range(200):
        m.update(marginal, 1)
    assert m.predict(marginal)[0] == 1
    grid = rng.integers(0, 8, (7, 7))
    train(m, [grid])
    for ctx in _contexts(m):
        w = m.coding_table(ctx)[0]
        assert m.predict(ctx) == (int(np.argmax(w)), int(w.max()))


def test_adaptive_pricer_prices_like_update_then_coding_table(rng):
    """An adaptive pass's code() and decode() give the coding_table interval
    of the counts so far, as one update() per symbol would leave them, and
    change no model."""
    m = train(CausalContextModel(40, order=2), [rng.integers(0, 40, (30, 30))])
    digest, ref = m.state_hash(), m.copy()
    enc, dec = Pricer(m, adaptive=True), Pricer(m, adaptive=True)
    hist = ()
    for s in rng.integers(0, 40, 600).tolist() + [39, 39, 39]:
        w, cum = ref.coding_table(hist)
        expect = (int(cum[s]), int(w[s]))
        assert enc.code(hist, s) == expect
        assert dec.decode(hist, expect[0] + expect[1] - 1) == (s, *expect)
        ref.update(hist, s)
        hist = (hist + (s,))[-2:]
    assert ref.state_hash() != digest
    m._hash = None
    assert m.state_hash() == digest


def _model_file(path, alphabet, entries, order=1, alpha_fp=1 << 16, kind=0):
    import struct
    head = b"GJCM" + struct.pack("<BBHBIQ", 1, kind, alphabet, order, alpha_fp,
                                 len(entries))
    fmt = "<" + "h" * order + "HQ"
    path.write_bytes(head + b"".join(struct.pack(fmt, *key, sym, count)
                                     for key, sym, count in entries))
    return path


@pytest.mark.parametrize("entries, alpha_fp", [
    ([((900,), 1, 3)], 1 << 16),                # context symbol >= alphabet
    ([((-7,), 1, 3)], 1 << 16),                 # below ABSENT
    ([((0,), 1, 2 ** 63)], 1 << 16),            # does not fit int64
    ([((0,), 1, 2 ** 30), ((0,), 2, 2 ** 30)], 1 << 16),  # total 2**31
    ([((-1,), 0, 2 ** 31 - 1)], 1 << 16),       # 2**47 - 2**16 + 4 * 2**16
    ([], 0),                                    # alpha below 2**-16
    ([((0,), 1, 3), ((0,), 1, 3)], 1 << 16),    # repeated (context, symbol)
    ([((0,), 1, 0)], 1 << 16),                  # zero count
    ([((0,), 2, 3), ((0,), 1, 3)], 1 << 16),    # symbols out of order
    ([((1,), 0, 3), ((0,), 2, 3)], 1 << 16),    # contexts out of order
])
def test_load_model_rejects_hostile_entries(tmp_path, entries, alpha_fp):
    from gjcodec.errors import FormatError
    path = _model_file(tmp_path / "m.model", 4, entries, alpha_fp=alpha_fp)
    with pytest.raises(FormatError):
        load_model(path)


def test_load_model_accepts_the_largest_total(tmp_path):
    """t * 2**16 + A * alpha_fp = 2**47 - 2**16 is the largest total kept,
    and every sparse table agrees with the dense one on it: static and
    adaptive code and decode, and a neighborhood model's predict.  The
    lookup hands sparse_pmf Python ints, exact at any size: here count *
    2**32 comes within 2**36 of the int64 limit."""
    total = (2 ** 47 - 2 ** 16 - 4 * (1 << 16)) // (1 << 16)
    m = load_model(_model_file(tmp_path / "m.model", 4,
                               [((-1,), 0, total - 5), ((-1,), 3, 5)]))
    assert m._run((-1,)) == ([0, 3], [total - 5, 5])
    assert all(type(v) is int for v in sum(m._run((-1,)), []))
    w, cum = m.coding_table((-1,))
    static = Pricer(m)  # walks the table at the first decode, then bisects
    for s in range(4):
        interval = (int(cum[s]), int(w[s]))
        assert Pricer(m).code((-1,), s) == interval
        assert Pricer(m, adaptive=True).code((-1,), s) == interval
        for target in (interval[0], sum(interval) - 1):
            found = (s, *interval)
            assert static.decode((-1,), target) == found
            assert Pricer(m, adaptive=True).decode((-1,), target) == found
    ctx = (ABSENT,) * 4
    nb = load_model(_model_file(tmp_path / "nb.model", 4,
                                [(ctx, 1, 5), (ctx, 2, total - 5)], order=4,
                                kind=1))
    w = nb.coding_table(ctx)[0]
    assert nb.predict(ctx) == (int(np.argmax(w)), int(w.max()))
    assert nb.predict(ctx)[0] == 2


def _reference_train(model, corpus):
    """Per-cell training as the models did it before vectorized counting:
    a causal model counts each cell under its in-row history; a neighborhood
    model counts it under every distinct subset of its present neighbors."""
    for grid in corpus:
        g = np.asarray(grid)
        if isinstance(model, CausalContextModel):
            for row in g:
                hist = ()
                for s in row.tolist():
                    model.update(hist, s)
                    hist = (hist + (s,))[-model.order:] if model.order else ()
            continue
        avail = np.ones_like(g, dtype=bool)
        for r in range(g.shape[0]):
            for c in range(g.shape[1]):
                key = neighbor_context(g, avail, r, c)
                present = [i for i, s in enumerate(key) if s != ABSENT]
                seen = set()
                for mask in range(1 << len(present)):
                    sub = list(key)
                    for bit, pos in enumerate(present):
                        if not mask >> bit & 1:
                            sub[pos] = ABSENT
                    if tuple(sub) not in seen:
                        seen.add(tuple(sub))
                        model.update(sub, int(g[r, c]))
    return model


def _reference_cross_entropy(model, grid):
    """cross_entropy as a per-cell loop in raster order."""
    g = np.asarray(grid)
    g = g[None, :] if g.ndim == 1 else g
    avail = np.ones_like(g, dtype=bool)
    total = 0.0
    for r in range(g.shape[0]):
        hist = ()
        for c in range(g.shape[1]):
            s = int(g[r, c])
            if isinstance(model, CausalContextModel):
                w, _ = model.coding_table(hist)
                hist = (hist + (s,))[-model.order:] if model.order else ()
            else:
                w, _ = model.coding_table(neighbor_context(g, avail, r, c))
            total += PMF_BITS - np.log2(int(w[s]))
    return float(total / g.size)


def _fresh(kind, alphabet):
    if kind == "neighborhood":
        return NeighborhoodModel(alphabet, alpha=0.5)
    return CausalContextModel(alphabet, order=kind, alpha=0.5)


@pytest.mark.parametrize("alphabet", [2, 256])
@pytest.mark.parametrize("kind", [0, 1, 2, 3, "neighborhood"])
def test_train_matches_per_cell_reference(tmp_path, kind, alphabet):
    """Vectorized training leaves the counts, hash and saved bytes of the
    per-cell walk, alone and on top of earlier training, and cross_entropy
    sums the same floats in the same order."""
    rng = np.random.default_rng(alphabet)
    grids = [rng.integers(0, alphabet, shape)
             for shape in ((1, 1), (1, 9), (9, 1), (7, 11))]
    more = [(rng.geometric(0.4, (6, 8)) - 1) % alphabet,
            rng.integers(0, alphabet, (5, 3))]
    for corpus in [[g] for g in grids] + [grids]:
        got, ref = _fresh(kind, alphabet), _fresh(kind, alphabet)
        for batch in (corpus, more):
            train(got, batch)
            _reference_train(ref, batch)
            _assert_counts(got, _count_dict(ref))
            assert got.state_hash() == ref.state_hash()
            got.save(tmp_path / "got")
            ref.save(tmp_path / "ref")
            assert ((tmp_path / "got").read_bytes()
                    == (tmp_path / "ref").read_bytes())
        for g in corpus + more + [grids[1][0]]:
            assert cross_entropy(got, g) == _reference_cross_entropy(ref, g)


@pytest.mark.parametrize("factory, digest", [
    (lambda: CausalContextModel(16, order=2, alpha=0.5),
     "6dbea3cf1554dcba019133cdc678d09d6fb5dad559f8926d5eb0e6c964854df9"),
    (lambda: NeighborhoodModel(16, alpha=2.0),
     "ca4ad77ae1dbe2625c034078a257ccb8370adbeaecd2058cf1c23ef8bc8ec117"),
], ids=["causal", "neighborhood"])
def test_trained_model_golden_digest(tmp_path, factory, digest):
    """SHA-256 of the saved bytes of a model trained on a fixed corpus, as
    the per-cell training that vectorized counting replaced wrote them."""
    rng = np.random.default_rng(2024)
    walk = np.cumsum(rng.integers(-1, 2, (3, 9, 14)), axis=2) % 16
    corpus = [walk[0], walk[1], rng.integers(0, 16, (5, 7)), walk[2][:1]]
    path = tmp_path / "model.bin"
    train(factory(), corpus).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_neighborhood_training_peak_memory_is_bounded():
    """Training stores each context's non-zero counts, not an int64 vector
    over the whole alphabet (2 KiB at A = 256) for each of ~6.6k contexts."""
    import tracemalloc
    corpus = [np.random.default_rng(0).integers(0, 256, (24, 24))]
    tracemalloc.start()
    try:
        m = train(NeighborhoodModel(256), corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_contexts(m)) > 6000
    assert peak < 6 * 2**20


def test_lookup_index_is_built_at_the_first_lookup_and_stays_small():
    """train holds the entry rows and no lookup index.  Looking up 2.5% of
    the contexts, about the share a bundled sweep reads, then holds at most
    24 bytes per context beyond the rows: the packed keys, the run bounds
    and the memo (a dict index held 171)."""
    import tracemalloc
    corpus = [np.random.default_rng(0).integers(0, 256, (24, 24))]
    contexts = _contexts(train(NeighborhoodModel(256), corpus))
    probes = contexts[::40] + [(255,) * 4]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        m = train(NeighborhoodModel(256), corpus)
        trained = tracemalloc.get_traced_memory()[0]
        assert m._keys is None
        for key in probes:
            m._run(m._resolve_key(key))
        looked_up = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(contexts) > 6000
    assert trained - start < m._rows.nbytes + 4096
    assert looked_up - trained <= 24 * len(contexts)


def _per_entry_load_model(path):
    """load_model as it read a file one entry at a time with struct and
    _context_key, before the entries were read through one numpy dtype."""
    import struct

    from gjcodec.context import (_MAX_SCALED_TOTAL, KIND_CAUSAL, KIND_NEIGHBOR,
                                 MODEL_MAGIC, MODEL_VERSION)
    from gjcodec.errors import FormatError
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MODEL_MAGIC:
        raise FormatError(f"model: bad magic {data[:4]!r}")
    head_fmt = "<BBHBIQ"
    head_size = 4 + struct.calcsize(head_fmt)
    if len(data) < head_size:
        raise FormatError("model: truncated header")
    version, kind, alphabet, ctx_len, alpha_fp, n_entries = struct.unpack_from(
        head_fmt, data, 4)
    if version != MODEL_VERSION:
        raise FormatError(f"model: unsupported version {version}")
    try:
        if kind == KIND_CAUSAL:
            model = CausalContextModel(alphabet, order=ctx_len,
                                       alpha=alpha_fp / PMF_TOTAL)
        elif kind == KIND_NEIGHBOR:
            model = NeighborhoodModel(alphabet, alpha=alpha_fp / PMF_TOTAL)
            if ctx_len != model.arity:
                raise FormatError(f"model: bad neighborhood arity {ctx_len}")
        else:
            raise FormatError(f"model: unknown kind {kind}")
    except ParameterError as exc:
        raise FormatError(f"model: bad header: {exc}") from None
    fmt = "<" + "h" * ctx_len + "HQ"
    entry_size = struct.calcsize(fmt)
    if len(data) - head_size != n_entries * entry_size:
        raise FormatError("model: payload size")
    entries = {}
    off = head_size
    for _ in range(n_entries):
        *key, sym, count = struct.unpack_from(fmt, data, off)
        off += entry_size
        if sym >= alphabet:
            raise FormatError(f"model: entry symbol {sym} outside alphabet")
        if count == 0:
            raise FormatError(f"model: zero count for symbol {sym}")
        try:
            key = model._context_key(key)
        except ParameterError as exc:
            raise FormatError(f"model: {exc}") from None
        if entries and (key, sym) <= last:
            raise FormatError(f"model: entry {key}, {sym} is out of order")
        last = key, sym
        entries.setdefault(key, []).append((sym, count))
    scaled_alpha = alphabet * model.alpha_fp
    for key, pairs in entries.items():
        symbols, counts = zip(*pairs)
        if sum(counts) * PMF_TOTAL + scaled_alpha >= _MAX_SCALED_TOTAL:
            raise FormatError(f"model: counts of context {key} total too much")
        entries[key] = (symbols, counts)
    return _with_counts(model, entries)


def _loader_fuzz_cases(rng, blob):
    """Mutations of one model file, each a (name, bytes) pair: bit flips,
    truncation and extension, a wrong entry count, swapped and duplicated
    entries, and counts, symbols and context symbols at and past each bound
    load_model enforces."""
    import struct
    head = struct.Struct("<4sBBHBIQ")
    _, _, _, alphabet, ctx_len, alpha_fp, n = head.unpack_from(blob)
    entry = struct.Struct("<" + "h" * ctx_len + "HQ")
    rows = [list(entry.unpack_from(blob, head.size + k * entry.size))
            for k in range(n)]

    def file(rows, count=None):
        return (blob[:head.size - 8] + struct.pack("<Q", len(rows) if count is None
                                                   else count)
                + b"".join(entry.pack(*row) for row in rows))

    def changed(field, value, k=None):
        k = int(rng.integers(n)) if k is None else k
        out = [list(row) for row in rows]
        out[k][field] = value
        return file(out)

    yield "original", blob
    for _ in range(12):
        flipped = bytearray(blob)
        bit = int(rng.integers(8 * len(blob)))
        flipped[bit // 8] ^= 1 << bit % 8
        yield "bit flip", bytes(flipped)
    yield "truncated", blob[:int(rng.integers(len(blob)))]
    yield "extended", blob + rng.bytes(int(rng.integers(1, 2 * entry.size)))
    yield "n_entries + 1", file(rows, n + 1)
    if not n:
        return
    yield "n_entries - 1", file(rows, n - 1)
    yield "last entry dropped", file(rows[:-1])
    k = int(rng.integers(n))
    yield "entry duplicated", file(rows[:k + 1] + rows[k:])
    if n > 1:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        yield "entries swapped", file(rows[:i] + [rows[j]] + rows[i + 1:j]
                                      + [rows[i]] + rows[j + 1:])
    for count in (0, 1, 2 ** 31, 2 ** 63, int(rng.integers(1, 2 ** 20))):
        yield f"count {count}", changed(-1, count)
    pairs = [k for k in range(n - 1) if rows[k][:ctx_len] == rows[k + 1][:ctx_len]]
    if pairs:
        k = pairs[int(rng.integers(len(pairs)))]
        out = [list(row) for row in rows]
        out[k][-1], out[k + 1][-1] = 2 ** 64 - 1, 2  # a sum that wraps to 1
        yield "context total past 2**64", file(out)
    # Counts that bring one context's total to the largest kept and to the
    # smallest refused: t * 2**16 + alphabet * alpha_fp < 2**47.
    limit = -(-(2 ** 47 - alphabet * alpha_fp) // PMF_TOTAL)
    k = int(rng.integers(n))
    others = sum(row[-1] for row in rows if row[:ctx_len] == rows[k][:ctx_len])
    others -= rows[k][-1]
    for total in (limit - 1, limit):
        yield f"context total {total - limit:+d} from the limit", changed(
            -1, max(1, total - others), k)
    for symbol in (alphabet - 1, alphabet, int(rng.integers(alphabet, 1 << 16))):
        yield f"symbol {symbol}", changed(ctx_len, symbol)
    if ctx_len:
        j = int(rng.integers(ctx_len))
        for value in (ABSENT, ABSENT - 1, int(rng.integers(-(1 << 15), -1)),
                      alphabet - 1, alphabet, int(rng.integers(alphabet, 1 << 15))):
            yield f"context symbol {value}", changed(j, value)


def _load_outcome(loader, path):
    from gjcodec.errors import FormatError
    try:
        model = loader(path)
    except FormatError:
        return None
    return type(model), _count_dict(model), model.state_hash()


def test_load_model_matches_per_entry_loader(tmp_path):
    """Seeded mutations of causal (orders 0, 1, 2, 3) and neighborhood model
    files: the numpy loader accepts exactly the files the per-entry loader
    accepts, with the same counts and state_hash, rejects the rest with
    FormatError, and saves an accepted model as the bytes it read."""
    rng = np.random.default_rng(6)
    models = [(CausalContextModel(5, order=0, alpha=0.5), (1, 40)),
              (CausalContextModel(16, order=1), (6, 9)),
              (CausalContextModel(7, order=3, alpha=2.0), (5, 6)),
              (NeighborhoodModel(6, alpha=0.25), (4, 5)),
              (CausalContextModel(300, order=2), (1, 1))]
    path, saved = tmp_path / "m.model", tmp_path / "saved.model"
    accepted = rejected = 0
    for model, shape in models:
        train(model, [rng.integers(0, model.alphabet, shape)])
        model.save(path)
        blob = path.read_bytes()
        for _ in range(2):
            for name, case in _loader_fuzz_cases(rng, blob):
                path.write_bytes(case)
                got = _load_outcome(load_model, path)
                assert got == _load_outcome(_per_entry_load_model, path), name
                if got is None:
                    rejected += 1
                    continue
                accepted += 1
                load_model(path).save(saved)
                assert saved.read_bytes() == case, name
    assert accepted > 30 and rejected > 150


@pytest.mark.parametrize("factory", [
    lambda: CausalContextModel(9, order=0),
    lambda: CausalContextModel(16, order=2, alpha=0.5),
    lambda: NeighborhoodModel(16, alpha=2.0),
])
def test_save_of_loaded_model_rewrites_the_file(tmp_path, rng, factory):
    """A loaded model saves as the bytes it was read from, and its state_hash
    (taken from those bytes) is the hash of its counts."""
    path, again = tmp_path / "model.bin", tmp_path / "again.bin"
    train(factory(), [rng.integers(0, 9, (10, 10))]).save(path)
    loaded = load_model(path)
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()
    fresh = loaded.copy()
    fresh._hash = None
    assert loaded.state_hash() == fresh.state_hash()


# -- frozen copies of train and of load_model's checks as they built the
# counts dict: int64 rows, one (symbols, counts) pair of tuples per context,
# merged into a dict --

def _frozen_rows(model, grid):
    grid = np.asarray(grid, dtype=np.int64)
    rows, cols = grid.shape
    pad = max((abs(d) for off in model.offsets for d in off), default=0)
    padded = np.pad(grid, pad, constant_values=ABSENT)
    keys = np.empty((rows * cols, model.context_len), dtype=np.int64)
    for j, (dr, dc) in enumerate(model.offsets):
        keys[:, j] = padded[pad + dr:pad + dr + rows,
                            pad + dc:pad + dc + cols].ravel()
    symbols = grid.ravel()
    if isinstance(model, CausalContextModel):
        return keys, symbols
    present = keys != ABSENT
    parts, part_symbols = [], []
    for m in range(1 << model.arity):
        keep = np.array([m >> i & 1 for i in range(model.arity)], dtype=bool)
        take = present[:, keep].all(axis=1)
        parts.append(np.where(keep, keys[take], ABSENT))
        part_symbols.append(symbols[take])
    return np.concatenate(parts), np.concatenate(part_symbols)


def _frozen_train(model, corpus, counts):
    """`counts` ({context: (symbols, counts)}) plus the counts of `corpus`
    under the contexts of `model`."""
    rows = [_frozen_rows(model, g) for g in corpus]
    keys, symbols = (np.concatenate(part) for part in zip(*rows))
    order = np.lexsort((symbols, *keys.T[::-1]))
    keys, symbols = keys[order], symbols[order]
    new_context = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    starts = np.flatnonzero(new_context | np.r_[True, symbols[1:] != symbols[:-1]])
    sizes = np.diff(starts, append=len(symbols)).tolist()
    symbols = symbols[starts].tolist()
    firsts = np.flatnonzero(new_context[starts]).tolist()
    fresh = {tuple(key): (tuple(symbols[lo:hi]), tuple(sizes[lo:hi]))
             for key, lo, hi in zip(keys[starts[firsts]].tolist(), firsts,
                                    firsts[1:] + [len(starts)])}
    for key in fresh.keys() & counts.keys():
        merged = dict(zip(*counts[key]))
        for s, n in zip(*fresh[key]):
            merged[s] = merged.get(s, 0) + n
        fresh[key] = tuple(sorted(merged)), tuple(v for _, v in sorted(merged.items()))
    counts.update(fresh)
    return counts


def _frozen_checked_counts(entries, alphabet, scaled_alpha):
    from gjcodec.context import _MAX_SCALED_TOTAL
    from gjcodec.errors import FormatError
    keys = entries["context"].astype(np.int64)
    symbols, counts = entries["symbol"], entries["count"]
    if symbols.max() >= alphabet:
        raise FormatError(f"model: entry symbol {symbols.max()} outside alphabet")
    if not counts.all():
        raise FormatError("model: zero count")
    if keys.size and ((keys < ABSENT) | (keys >= alphabet)).any():
        raise FormatError(
            f"model: context symbol outside [{ABSENT}, {alphabet})")
    step = np.diff(np.column_stack((keys, symbols)), axis=0)
    first = (step != 0).argmax(axis=1)
    if (step[np.arange(len(step)), first] <= 0).any():
        raise FormatError("model: entries are not strictly ascending in "
                          "(context, symbol)")
    limit = -(-(_MAX_SCALED_TOTAL - scaled_alpha) // PMF_TOTAL)
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    if counts.max() >= limit or np.add.reduceat(counts, starts).max() >= limit:
        raise FormatError("model: the counts of a context total too much")
    bounds = starts.tolist() + [len(entries)]
    symbols, counts = symbols.tolist(), counts.tolist()
    return {tuple(key): (tuple(symbols[lo:hi]), tuple(counts[lo:hi]))
            for key, lo, hi in zip(keys[starts].tolist(), bounds, bounds[1:])}


def _frozen_resolve_key(counts, key):
    """NeighborhoodModel._resolve_key as it walked the counts dict."""
    while key not in counts:
        present = [i for i, s in enumerate(key) if s != ABSENT]
        if not present:
            return key
        last = present[-1]
        key = key[:last] + (ABSENT,) + key[last + 1:]
    return key


def _file_entries(path, context_len):
    import struct
    from gjcodec.context import _MODEL_HEAD_FMT, MODEL_MAGIC
    head = len(MODEL_MAGIC) + struct.calcsize(_MODEL_HEAD_FMT)
    dtype = np.dtype([("context", "<i2", (context_len,)), ("symbol", "<u2"),
                      ("count", "<u8")])
    return np.frombuffer(path.read_bytes()[head:], dtype)


def _skewed_corpus(rng, alphabet):
    """Seeded grids mixing uniform tokens with a few frequent ones, so that
    many contexts hold the same (symbols, counts) pair."""
    skewed = (rng.geometric(0.5, (24, 20)) - 1) % alphabet
    return [rng.integers(0, alphabet, (1, 1)), rng.integers(0, alphabet, (9, 1)),
            rng.integers(0, alphabet, (7, 11)), skewed]


@pytest.mark.parametrize("kind, alphabet", [
    *((order, a) for order in range(4) for a in (2, 256, 32768)),
    (0, 65535),
    *(("neighborhood", a) for a in (2, 3, 16, 256, 1024)),
])
def test_train_and_load_match_the_frozen_count_dict(tmp_path, kind, alphabet):
    """train and load_model hold the counts dict of the frozen code, each
    context looked up through the index, with the bytes and state_hash the
    struct writer gives that dict, alone and on top of earlier training.
    Seeded neighborhood keys, most of them untrained, back off as the frozen
    walk over the dict does."""
    rng = np.random.default_rng(alphabet + 7 * (kind == "neighborhood"))
    corpus, more = _skewed_corpus(rng, alphabet), _skewed_corpus(rng, alphabet)
    got = train(_fresh(kind, alphabet), corpus)
    ref = _frozen_train(got, corpus, {})
    _assert_counts(got, ref)
    train(got, more)
    _frozen_train(got, more, ref)
    _assert_counts(got, ref)
    blob = _struct_save(got, ref)
    got.save(tmp_path / "got")
    assert (tmp_path / "got").read_bytes() == blob
    assert got.state_hash() == int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "little")
    loaded = load_model(tmp_path / "got")
    _assert_counts(loaded, _frozen_checked_counts(
        _file_entries(tmp_path / "got", got.context_len), alphabet,
        alphabet * got.alpha_fp))
    _assert_counts(loaded, ref)
    assert loaded.state_hash() == got.state_hash()
    if kind == "neighborhood":
        keys = [tuple(key) for key in
                rng.integers(ABSENT, alphabet, (300, 4)).tolist()]
        untrained = [key for key in keys if key not in ref]
        assert len(untrained) > 100 or alphabet < 16
        for key in keys:
            want = _frozen_resolve_key(ref, key)
            assert got._resolve_key(key) == loaded._resolve_key(key) == want
        for key in untrained:
            assert got._run(key) == loaded._run(key) == ([], [])


def _absent_keys(rng, model, frozen):
    """Seeded context keys without counts: random ones, each context with
    its last symbol moved up by one, and the all-ABSENT and all-top keys."""
    alphabet, n = model.alphabet, model.context_len
    keys = [tuple(key) for key in
            rng.integers(ABSENT, alphabet, (200, n)).tolist()]
    keys += [key[:-1] + (key[-1] + 1,) for key in frozen
             if n and key[-1] + 1 < alphabet]
    keys += [(ABSENT,) * n, (alphabet - 1,) * n]
    return [key for key in dict.fromkeys(keys) if key not in frozen]


def _assert_lookups(model, counts, keys):
    """_resolve_key of a neighborhood model, then _run and the membership
    test (a non-empty _find), answer each of `keys` as a walk over the
    frozen count dict `counts` does."""
    if isinstance(model, NeighborhoodModel):
        for key in keys:
            assert model._resolve_key(key) == _frozen_resolve_key(counts, key)
    for key in keys:
        symbols, values = counts.get(key, ((), ()))
        assert model._run(key) == (list(symbols), list(values)), key
        assert bool(model._find(key)) == (key in counts), key


@pytest.mark.parametrize("alphabet", [2, 256, 32768])
@pytest.mark.parametrize("kind", [0, 1, 2, 5, 8, "neighborhood"])
def test_lookup_matches_the_frozen_dict_walk(tmp_path, kind, alphabet):
    """Lookups answer as the frozen dict walk on every context with counts
    and on seeded absent keys, for a model untrained, trained, trained
    again after lookups, loaded, and copied before its first lookup, after
    it, and before it was trained again.  The corpus holds the top symbol,
    so contexts hold it beside ABSENT; a context of five or more symbols
    packs wider than 64 bits."""
    rng = np.random.default_rng(alphabet + 31 * (kind == "neighborhood"))
    corpus = _skewed_corpus(rng, alphabet) + [np.full((2, 3), alphabet - 1)]
    more = _skewed_corpus(rng, alphabet)
    empty = _fresh(kind, alphabet)
    _assert_lookups(empty, {}, _absent_keys(rng, empty, {}))
    model = train(_fresh(kind, alphabet), corpus)
    once = _frozen_train(model, corpus, {})
    keys = list(once) + _absent_keys(rng, model, once)
    _assert_lookups(model, once, keys)
    before = model.copy()
    train(model, more)
    twice = _frozen_train(model, more, dict(once))
    model.save(tmp_path / "m")
    early = model.copy()
    keys = list(twice) + _absent_keys(rng, model, twice) + keys
    for got in (model, load_model(tmp_path / "m"), early, model.copy()):
        _assert_lookups(got, twice, keys)
    _assert_lookups(before, once, keys)


def _struct_save(model, counts) -> bytes:
    """The file of `model` holding `counts` ({context: (symbols, counts)}),
    as save() wrote it one entry at a time with struct, before the entries
    were written through one numpy record array."""
    import struct
    entries = [(key, sym, count) for key in sorted(counts)
               for sym, count in zip(*counts[key])]
    head = b"GJCM" + struct.pack("<BBHBIQ", 1, model.kind, model.alphabet,
                                 model.context_len, model.alpha_fp,
                                 len(entries))
    fmt = "<" + "h" * model.context_len + "HQ"
    return head + b"".join(struct.pack(fmt, *key, sym, count)
                           for key, sym, count in entries)


def _writer_cases():
    rng = np.random.default_rng(11)
    corpus = _skewed_corpus(rng, 16)
    for order in range(4):
        yield f"causal order {order}", train(
            CausalContextModel(16, order=order, alpha=0.5), corpus)
    yield "neighborhood", train(NeighborhoodModel(16), corpus)
    for order in (0, 2):
        yield f"empty causal order {order}", CausalContextModel(16, order=order)
    yield "empty neighborhood", NeighborhoodModel(16)
    for alphabet in (2, 32768):
        m = CausalContextModel(alphabet, order=3)
        top = alphabet - 1
        for context, symbol in (((), top), ((top,), 0), ((0, top), top),
                                ((ABSENT, 0, top), 1), ((top,) * 3, 0)):
            m.update(context, symbol)
        yield f"alphabet {alphabet}", m
    m = NeighborhoodModel(32768)
    m.update((ABSENT, 32767, ABSENT, 0), 32767)
    yield "neighborhood alphabet 32768", m
    # The largest context totals load_model accepts under alpha = 1.
    limit = ((1 << 47) - 2 * PMF_TOTAL) // PMF_TOTAL
    yield "counts near the load bound", _with_counts(
        CausalContextModel(2, order=1),
        {(ABSENT,): ((0,), (limit - 1,)), (0,): ((0, 1), (1, limit - 2))})


@pytest.mark.parametrize("name, model", list(_writer_cases()),
                         ids=[name for name, _ in _writer_cases()])
def test_save_writes_the_struct_writers_bytes(tmp_path, name, model):
    """save() writes, and state_hash() digests, the bytes a per-entry
    struct writer gives for the counts the lookup reads, and load_model
    reads them back to the same counts."""
    want = _struct_save(model, _count_dict(model))
    model.save(tmp_path / "m.gjm")
    assert (tmp_path / "m.gjm").read_bytes() == want
    assert model.state_hash() == int.from_bytes(
        hashlib.blake2b(want, digest_size=8).digest(), "little")
    loaded = load_model(tmp_path / "m.gjm")
    assert _count_dict(loaded) == _count_dict(model)
    assert loaded.state_hash() == model.state_hash()


def _two_contexts_with_equal_counts(counts):
    by_pair = {}
    for key, pair in counts.items():
        by_pair.setdefault(pair, []).append(key)
    return next(keys[:2] for keys in by_pair.values() if len(keys) > 1)


@pytest.mark.parametrize("factory", [
    lambda: CausalContextModel(16, order=1, alpha=0.5),
    lambda: NeighborhoodModel(16, alpha=2.0),
], ids=["causal", "neighborhood"])
def test_shared_entries_carry_no_change_across_contexts_or_models(factory):
    """Copies share the trained rows.  An update of one of two contexts
    with equal counts, an adaptive pass over the model and training into a
    copy each leave the other context and the original model as they
    were."""
    # order 1: contexts (3,) and (4,) both hold ((5,), (1,))
    m = train(factory(), [np.array([[3, 5, 9], [4, 5, 9], [0, 0, 1]])])
    before, rows, digest = _count_dict(m), m._rows, m.state_hash()
    one, other = _two_contexts_with_equal_counts(before)

    dup = m.copy()
    dup.update(one, 15)
    assert _count_dict(dup)[one] != before[other]
    assert _count_dict(dup)[other] == before[other]

    if isinstance(m, CausalContextModel):
        ac_encode([3, 15, 15, 0, 15], m, adaptive=True)

    dup = m.copy()
    train(dup, [np.full((3, 4), 5)])
    assert dup.state_hash() != digest

    empty = factory()
    fresh = empty.copy()
    train(fresh, [np.full((3, 4), 15)])
    assert _count_dict(empty) == {} and _count_dict(fresh)

    assert _count_dict(m) == before
    assert m._rows is rows
    assert m.state_hash() == digest
    m._hash = None
    assert m.state_hash() == digest
