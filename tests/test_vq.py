import numpy as np
import pytest

from gjcodec.errors import FormatError, ParameterError
from gjcodec.vq import (Codebook, _nearest, assemble_patches, extract_patches,
                        load_codebook, save_codebook, vq_decode, vq_encode,
                        vq_train)


# -- references: the direct-difference k-means that _nearest must reproduce --

def _reference_sq_dist(x, c, chunk=2048):
    """Full (N, K) squared distances by direct differences."""
    out = np.empty((x.shape[0], c.shape[0]), dtype=np.float64)
    for s in range(0, x.shape[0], chunk):
        d = x[s:s + chunk, None, :] - c[None, :, :]
        out[s:s + chunk] = np.einsum("nkd,nkd->nk", d, d)
    return out


def _reference_nearest(x, c):
    d2 = _reference_sq_dist(x, c)
    idx = np.argmin(d2, axis=1)
    return idx, d2[np.arange(x.shape[0]), idx]


def _reference_vq_train(vectors, k, iters, seed):
    """Full-matrix k-means with per-cluster boolean-mask means.

    Returns (float32 codewords, distortion history, clusters re-seeded)."""
    x = np.asarray(vectors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centers, seen = [], set()
    for idx in rng.permutation(x.shape[0]):
        key = (x[idx] + 0.0).tobytes()  # -0.0 and 0.0 are one row
        if key not in seen:
            seen.add(key)
            centers.append(x[idx])
            if len(centers) == k:
                break
    c = np.array(centers)
    history, reseeded = [], 0
    for _ in range(iters):
        d2 = _reference_sq_dist(x, c)
        assign = np.argmin(d2, axis=1)
        per_point = d2[np.arange(x.shape[0]), assign]
        history.append(float(per_point.mean()))
        new_c = c.copy()
        counts = np.bincount(assign, minlength=k)
        for j in np.nonzero(counts)[0]:
            new_c[j] = x[assign == j].mean(axis=0)
        empties = np.nonzero(counts == 0)[0]
        reseeded += len(empties)
        if len(empties):
            worst = np.argsort(-per_point, kind="stable")
            taken, used = 0, set()
            for j in empties:
                while worst[taken] in used:
                    taken += 1
                new_c[j] = x[worst[taken]]
                used.add(worst[taken])
                taken += 1
        c = new_c
    return c.astype(np.float32), history, reseeded


def _nearest_case(name):
    rng = np.random.default_rng(11)
    if name == "normal":
        return rng.normal(0, 40, (3000, 16)), rng.normal(0, 40, (256, 16))
    if name == "integer_ties":
        c = np.unique(rng.integers(0, 5, (60, 3)), axis=0).astype(np.float64)
        return rng.integers(0, 5, (2000, 3)).astype(np.float64), c
    if name == "large_offset":
        return (1e6 + rng.normal(0, 1e-3, (2000, 8)),
                1e6 + rng.normal(0, 1e-3, (128, 8)))
    # every codeword at squared distance 9 from every row
    return np.zeros((300, 8)), 3.0 * np.eye(8)


@pytest.mark.parametrize("name", ["normal", "integer_ties", "large_offset",
                                  "equidistant"])
def test_nearest_matches_direct_argmin_bit_for_bit(name):
    x, c = _nearest_case(name)
    ref_idx, ref_d = _reference_nearest(x, c)
    idx, d = _nearest(x, c)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(d.view(np.uint64), ref_d.view(np.uint64))
    d2 = _reference_sq_dist(x, c)
    if name in ("integer_ties", "equidistant"):
        # the case has rows with several exact minimisers
        assert ((d2 == ref_d[:, None]).sum(axis=1) > 1).any()
    if name == "large_offset":
        # the GEMM form alone picks a different codeword on some rows
        screen = (c * c).sum(axis=1) - 2.0 * x @ c.T
        assert (screen.argmin(axis=1) != ref_idx).any()


@pytest.mark.parametrize("shape,k,seed,reseeds", [
    ((400, 16), 128, 3, True),
    ((300, 4), 60, 6, True),
    ((500, 1), 20, 2, False),
])
def test_vq_train_matches_reference_bit_for_bit(shape, k, seed, reseeds):
    x = np.random.default_rng(seed).standard_t(1, shape)
    ref_c, ref_hist, reseeded = _reference_vq_train(x, k, 10, seed)
    assert (reseeded > 0) == reseeds
    cb = vq_train(x, k, iters=10, seed=seed)
    np.testing.assert_array_equal(cb.vectors.view(np.uint32),
                                  ref_c.view(np.uint32))
    assert cb.distortion_history == ref_hist


def _fixed_point_corpus(name):
    """(vectors, k, seed) of a seeded corpus for the early-stop test."""
    rng = np.random.default_rng(5)
    if name == "blobs":
        centres = rng.normal(0, 50, (8, 4))
        return centres[rng.integers(0, 8, 400)] + rng.normal(0, 1, (400, 4)), 8, 1
    if name == "ar1_patches":
        from gjcodec.sources import ar1_image
        img = ar1_image(64, 64, {"rho": 0.9, "sigma": 26.0, "mean": 120.0},
                        7)
        return extract_patches(img.samples, 4), 32, 2
    if name == "heavy_tails":
        return np.random.default_rng(3).standard_t(1, (400, 16)), 128, 3
    if name == "integer_ties":
        return rng.integers(0, 5, (500, 3)).astype(np.float64), 20, 4
    if name == "one_dim":
        return rng.normal(0, 10, (500, 1)), 20, 5
    # 2e-300 and 0.0 are distinct starting centres whose squared distance
    # underflows to 0: one cluster stays empty while the assignment
    # repeats, so the fixed point is not reached there (found by a seeded
    # search)
    t = 2e-300
    x = np.array([1, 4, 1, 0, 1, 0, -2, -4, 4, -4, 1, t, t, 2, 3, 2, -4, t,
                  -2, 3, 4, 3, t, t, 3, 2, t, -2, -3, 1]).reshape(15, 2)
    return x, 7, 383


@pytest.mark.parametrize("name, stops, reseeds", [
    ("blobs", True, False),
    ("ar1_patches", True, False),
    ("heavy_tails", True, True),
    ("integer_ties", True, False),
    ("one_dim", True, False),
    ("empty_while_repeating", True, True),
])
def test_vq_train_stops_at_its_fixed_point(monkeypatch, name, stops, reseeds):
    """Training that stops once an assignment repeats with no cluster empty
    gives the codebook and the 25-entry distortion history of every
    iteration run, bit for bit."""
    import gjcodec.vq as vq
    x, k, seed = _fixed_point_corpus(name)
    ref_c, ref_hist, reseeded = _reference_vq_train(x, k, 25, seed)
    assert (reseeded > 0) == reseeds
    calls = []
    nearest = vq._nearest
    monkeypatch.setattr(vq, "_nearest",
                        lambda *a: calls.append(1) or nearest(*a))
    cb = vq_train(x, k, iters=25, seed=seed)
    np.testing.assert_array_equal(cb.vectors.view(np.uint32),
                                  ref_c.view(np.uint32))
    assert cb.distortion_history == ref_hist
    assert (len(calls) < 25) == stops


def test_vq_train_peak_memory_is_bounded():
    """Training allocates O(block * K), not an (N, K, dim) difference array
    (one 2048-row chunk of which is 64 MB at this size)."""
    import tracemalloc
    x = np.random.default_rng(0).normal(0, 30, (3200, 16))
    tracemalloc.start()
    try:
        vq_train(x, k=256, iters=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_non_finite_vectors_and_codewords_rejected():
    bad = np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]])
    with pytest.raises(ParameterError):
        Codebook(bad)
    with pytest.raises(ParameterError):
        Codebook(np.array([[0.0, np.inf], [1.0, 1.0]]))
    with pytest.raises(ParameterError):
        vq_train(bad, k=2, iters=1, seed=0)
    cb = Codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ParameterError):
        vq_encode(cb, np.array([[0.0, -np.inf]]))


def test_negative_zero_is_not_a_distinct_vector():
    """-0.0 and 0.0 compare equal, so they are one training vector: too few
    for k = 3, and never both seeded for k = 2."""
    x = np.array([[0.0], [-0.0], [1.0]])
    with pytest.raises(ParameterError, match="only 2 distinct vectors, need 3"):
        vq_train(x, k=3, iters=1, seed=0)
    for seed in range(64):
        cb = vq_train(x, k=2, iters=1, seed=seed)
        assert sorted(cb.vectors.ravel().tolist()) == [0.0, 1.0]
        assert cb.distortion_history == [0.0]


def test_k_distinct_points_are_a_fixed_point():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    cb = vq_train(np.tile(pts, (30, 1)), k=4, iters=10, seed=0)
    got = sorted(map(tuple, cb.vectors.tolist()))
    assert got == sorted(map(tuple, pts.tolist()))
    assert cb.distortion_history[-1] == pytest.approx(0.0, abs=1e-12)


def test_two_cluster_centroids_match_cluster_means(rng):
    """K=2 on well-separated clusters recovers the per-cluster means."""
    a = rng.normal(0.0, 1.0, (1000, 3))
    b = rng.normal(20.0, 1.0, (1000, 3))
    cb = vq_train(np.concatenate([a, b]), k=2, iters=30, seed=1)
    lo, hi = sorted(cb.vectors, key=lambda v: v[0])
    assert np.abs(lo - a.mean(axis=0)).max() < 0.1
    assert np.abs(hi - b.mean(axis=0)).max() < 0.1


@pytest.mark.parametrize("seed", range(4))
def test_distortion_monotone_non_increasing(seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(0, 5, (800, 16))
    cb = vq_train(vecs, k=32, iters=15, seed=seed)
    hist = cb.distortion_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_encode_nearest_and_tie_break():
    from gjcodec.vq import Codebook
    cb = Codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert vq_encode(cb, np.array([[0.2, 0.1]]))[0] == 0
    # exactly equidistant input goes to the lower index
    assert vq_encode(cb, np.array([[0.5, 0.5]]))[0] == 0


def test_codewords_are_fixed_points(rng):
    from gjcodec.vq import Codebook
    cb = Codebook(rng.normal(0, 10, (17, 4)))
    toks = vq_encode(cb, cb.vectors)
    np.testing.assert_array_equal(toks, np.arange(17))
    np.testing.assert_array_equal(vq_decode(cb, toks), cb.vectors)


def test_patch_round_trip(rng):
    img = rng.uniform(0, 255, (24, 32))
    patches = extract_patches(img, 4)
    assert patches.shape == (48, 16)
    np.testing.assert_array_equal(assemble_patches(patches, 24, 32, 4), img)


def test_codebook_save_load(tmp_path, rng):
    cb = vq_train(rng.normal(0, 3, (300, 8)), k=16, iters=5, seed=9)
    path = tmp_path / "cb.bin"
    save_codebook(cb, path)
    loaded = load_codebook(path)
    np.testing.assert_array_equal(loaded.vectors, cb.vectors)


def test_codebook_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_codebook(path)


@pytest.mark.parametrize("last", [np.nan, np.inf, 0.0, -0.0])
def test_codebook_with_bad_entries_is_format_error(tmp_path, last):
    """NaN, infinite or duplicate codewords in a file are malformed data."""
    path = tmp_path / "bad.bin"
    save_codebook(Codebook(np.array([[0.0, 0.0], [1.0, 1.0]])), path)
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([0.0, last], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_codebook(path)
