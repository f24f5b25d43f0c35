import hashlib

import numpy as np
import pytest

from gjcodec.context import (ABSENT, PMF_BITS, PMF_TOTAL, AdaptiveCounts,
                             CausalContextModel, NeighborhoodModel,
                             cross_entropy, load_model, neighbor_context,
                             quantize_pmf, train)
from gjcodec.errors import ParameterError


def test_untrained_model_is_uniform():
    m = CausalContextModel(4, order=0, alpha=1.0)
    w = m.pmf(()).weights
    np.testing.assert_array_equal(w, [16384] * 4)
    assert int(w.sum()) == PMF_TOTAL


def test_laplace_estimate_before_quantization():
    """Three observations of symbol 2 under alpha=1: p(2) = 4/7."""
    m = CausalContextModel(4, order=0, alpha=1.0)
    for _ in range(3):
        m.update((), 2)
    assert m.counts[()] == ((2,), (3,))
    probs = m.pmf(()).probabilities()
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
    before = m.pmf((3,)).probabilities()[5]
    m.update((3,), 5)
    after = m.pmf((3,)).probabilities()[5]
    assert after > before


def test_update_counts_accumulate():
    m = CausalContextModel(8, order=1)
    for _ in range(37):
        m.update((2,), 6)
    assert m.counts[(2,)] == ((6,), (37,))


def test_updates_are_context_local():
    m = CausalContextModel(8, order=1)
    base = m.pmf((1,)).weights.copy()
    for _ in range(50):
        m.update((0,), 4)
    np.testing.assert_array_equal(m.pmf((1,)).weights, base)


def test_train_constant_corpus_prefers_constant():
    grids = [np.full((6, 6), 5, dtype=np.int64) for _ in range(4)]
    m = train(CausalContextModel(8, order=2), grids)
    assert m.pmf((5, 5)).argmax() == 5


def test_train_single_cell_grid_only_marginal():
    m = train(NeighborhoodModel(4), [np.array([[2]])])
    assert m.marginal().argmax() == 2
    # no neighbours exist, so no directional context can have been seen
    ctx_weights = m.pmf((2, ABSENT, ABSENT, ABSENT)).weights
    np.testing.assert_array_equal(ctx_weights, m.marginal().weights)


def test_order0_training_equals_histogram(rng):
    grid = rng.integers(0, 16, (40, 40))
    m = train(CausalContextModel(16, order=0), [grid])
    hist = np.bincount(grid.ravel(), minlength=16)
    assert m.counts[()] == (tuple(np.flatnonzero(hist).tolist()),
                            tuple(hist[hist > 0].tolist()))


def test_cross_entropy_uniform():
    m = CausalContextModel(256, order=0)
    grid = np.arange(64, dtype=np.int64).reshape(8, 8)
    assert cross_entropy(m, grid) == pytest.approx(8.0)


def test_cross_entropy_deterministic_corpus():
    grid = np.zeros((100, 100), dtype=np.int64)
    m = train(CausalContextModel(2, order=1, alpha=1.0), [grid])
    assert cross_entropy(m, grid) < 0.01


def test_cross_entropy_non_negative(rng):
    for _ in range(5):
        grid = rng.integers(0, 7, (12, 12))
        m = train(CausalContextModel(7, order=1), [grid])
        assert cross_entropy(m, grid) >= 0.0


def test_alpha_floor():
    with pytest.raises(ParameterError):
        CausalContextModel(4, alpha=2.0 ** -17)


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
    """Copies share the trained entries; an update or an adaptive pass on a
    copy leaves the original's counts and hash as they were."""
    m = train(factory(), [rng.integers(0, 40, (20, 20))])
    saved, digest = m._serialize(), m.state_hash()
    key, (symbols, _) = next(iter(m.counts.items()))
    dup = m.copy()
    dup.update(key, symbols[0])
    dup.update(key, 39 - symbols[0])
    assert dup.state_hash() != digest
    if isinstance(m, CausalContextModel):
        dup = m.copy()
        counts = AdaptiveCounts(dup)
        for s in (symbols[0], 39 - symbols[0], symbols[0]):
            counts.code(key, s)
        counts.commit()
        assert dup.state_hash() != digest
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


def test_adaptive_counts_price_like_update_then_coding_table(rng):
    """code() and decode() give the coding_table interval of the counts so
    far, and commit() leaves the state that one update() per symbol does."""
    m = train(CausalContextModel(40, order=2), [rng.integers(0, 40, (30, 30))])
    ref, coded, decoded = m.copy(), m.copy(), m.copy()
    enc, dec = AdaptiveCounts(coded), AdaptiveCounts(decoded)
    hist, seen = (), []
    for s in rng.integers(0, 40, 600).tolist() + [39, 39, 39]:
        seen.append(hist)
        coded.coding_table(hist)  # a cached table commit() must drop
        w, cum = ref.coding_table(hist)
        expect = (int(cum[s]), int(w[s]))
        assert enc.code(hist, s) == expect
        assert dec.decode(hist, expect[0] + expect[1] - 1) == (s, *expect)
        ref.update(hist, s)
        hist = (hist + (s,))[-2:]
    assert coded.state_hash() == m.state_hash()  # untouched until commit
    enc.commit()
    dec.commit()
    assert coded.state_hash() == decoded.state_hash() == ref.state_hash()
    assert list(coded.counts) == list(ref.counts)
    for hist in seen:
        np.testing.assert_array_equal(coded.coding_table(hist)[1],
                                      ref.coding_table(hist)[1])


def _model_file(path, alphabet, entries, order=1, alpha_fp=1 << 16):
    import struct
    head = b"GJCM" + struct.pack("<BBHBIQ", 1, 0, alphabet, order, alpha_fp,
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
    and the sparse and dense tables agree on it."""
    total = (2 ** 47 - 2 ** 16 - 4 * (1 << 16)) // (1 << 16)
    path = _model_file(tmp_path / "m.model", 4,
                       [((-1,), 0, total - 5), ((-1,), 3, 5)])
    m = load_model(path)
    w, cum = m.coding_table((-1,))
    for s in range(4):
        assert AdaptiveCounts(m).code((-1,), s) == (cum[s], w[s])


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
            assert got.counts == ref.counts
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
    assert len(m.counts) > 6000
    assert peak < 6 * 2**20
