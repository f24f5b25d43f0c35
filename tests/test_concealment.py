import heapq

import numpy as np
import pytest
from conftest import neighbor_context

from gjcodec.concealment import (TokenGrid, apply_loss_mask, conceal,
                                 marginal_fill, strided_assignment)
from gjcodec.context import NeighborhoodModel, train
from gjcodec.errors import ParameterError
from gjcodec.sources import ar1_field


def _grid(tokens, missing=None, alphabet=8):
    tokens = np.asarray(tokens, dtype=np.int64)
    if missing is None:
        missing = np.zeros(tokens.shape, dtype=bool)
    return TokenGrid(tokens=tokens, missing=np.asarray(missing, dtype=bool),
                     alphabet=alphabet)


def _ar1_tokens(rng_seed, shape=(16, 16), alphabet=8, rho=0.9):
    f = ar1_field(shape[0], shape[1], rho, rng_seed)
    edges = np.quantile(f, np.linspace(0, 1, alphabet + 1)[1:-1])
    return np.digitize(f, edges).astype(np.int64)


def _trained_model(alphabet=8, grids=20):
    corpus = [_ar1_tokens(1000 + i) for i in range(grids)]
    return train(NeighborhoodModel(alphabet), corpus)


def test_strided_assignment_partitions():
    a = strided_assignment(8, 8, 4)
    assert a.shape == (8, 8)
    counts = np.bincount(a.ravel(), minlength=4)
    np.testing.assert_array_equal(counts, [16] * 4)


def test_strided_losses_are_never_adjacent():
    """One lost packet of four leaves 16 holes, none 4-adjacent."""
    a = strided_assignment(8, 8, 4)
    g = apply_loss_mask(_grid(np.zeros((8, 8))), {2}, a)
    assert g.missing.sum() == 16
    miss = g.missing
    assert not (miss[:-1] & miss[1:]).any()      # vertical neighbours
    assert not (miss[:, :-1] & miss[:, 1:]).any()  # horizontal neighbours


def test_apply_loss_mask_empty_and_full():
    a = strided_assignment(6, 6, 3)
    base = _grid(np.arange(36).reshape(6, 6), alphabet=64)
    same = apply_loss_mask(base, set(), a)
    assert not same.missing.any()
    np.testing.assert_array_equal(same.tokens, base.tokens)
    gone = apply_loss_mask(base, {0, 1, 2}, a)
    assert gone.missing.all()


def test_apply_loss_mask_requires_partition():
    bad = np.zeros((4, 4), dtype=np.int64)  # every cell claims packet 0
    bad[0, 0] = 9
    with pytest.raises(ParameterError):
        apply_loss_mask(_grid(np.zeros((4, 4))), {0}, bad[:2])


def test_conceal_identity_when_nothing_missing():
    model = _trained_model()
    g = _grid(_ar1_tokens(5))
    out = conceal(g, model)
    np.testing.assert_array_equal(out.tokens, g.tokens)
    assert not out.missing.any()


def test_conceal_never_touches_received_tokens():
    model = _trained_model()
    tokens = _ar1_tokens(6)
    a = strided_assignment(16, 16, 4)
    g = apply_loss_mask(_grid(tokens), {1}, a)
    out = conceal(g, model)
    kept = ~g.missing
    np.testing.assert_array_equal(out.tokens[kept], tokens[kept])
    assert not out.missing.any()


def test_all_missing_backs_off_to_marginal():
    # corpus dominated by one token: marginal mode and every context agree
    corpus = [np.full((8, 8), 3, dtype=np.int64) for _ in range(3)]
    model = train(NeighborhoodModel(8), corpus)
    g = _grid(np.zeros((6, 6)), missing=np.ones((6, 6), dtype=bool))
    out = conceal(g, model)
    assert (out.tokens == model.marginal().argmax()).all()


def test_constant_corpus_fills_constant():
    corpus = [np.full((10, 10), 7, dtype=np.int64) for _ in range(2)]
    model = train(NeighborhoodModel(8), corpus)
    tokens = np.full((8, 8), 7, dtype=np.int64)
    g = apply_loss_mask(_grid(tokens), {0, 2}, strided_assignment(8, 8, 4))
    assert g.missing.sum() == 32  # 50% strided missing
    out = conceal(g, model)
    assert (out.tokens == 7).all()


def test_marginal_fill_uses_global_mode():
    model = _trained_model()
    fill = model.marginal().argmax()
    g = _grid(np.zeros((5, 5)), missing=np.ones((5, 5), dtype=bool))
    out = marginal_fill(g, model)
    assert (out.tokens == fill).all()


def test_alphabet_mismatch_rejected():
    model = NeighborhoodModel(4)
    with pytest.raises(ParameterError):
        conceal(_grid(np.zeros((3, 3)), alphabet=8), model)


@pytest.mark.parametrize("schedule", ["confidence", "raster"])
def test_schedules_fill_everything(schedule):
    model = _trained_model()
    g = apply_loss_mask(_grid(_ar1_tokens(9)), {0, 3},
                        strided_assignment(16, 16, 5))
    out = conceal(g, model, schedule=schedule)
    assert not out.missing.any()
    assert out.tokens.min() >= 0 and out.tokens.max() < 8


def test_unknown_schedule_rejected():
    with pytest.raises(ParameterError):
        conceal(_grid(np.zeros((2, 2))), NeighborhoodModel(8), schedule="magic")


def test_neighborhood_beats_marginal_on_correlated_grids():
    """Spot check of the concealment-vs-baseline gap on a few trials."""
    model = _trained_model()
    better = 0
    for t in range(10):
        truth = _ar1_tokens(7000 + t)
        g = apply_loss_mask(_grid(truth), {t % 5},
                            strided_assignment(16, 16, 5))
        holes = g.missing
        acc_n = (conceal(g, model).tokens[holes] == truth[holes]).mean()
        acc_m = (marginal_fill(g, model).tokens[holes] == truth[holes]).mean()
        better += acc_n > acc_m
    assert better >= 8


def _reference_conceal(grid, model, schedule="confidence"):
    """conceal as a numpy cell walk that prices each context with its
    dense coding_table, kept frozen as the oracle for the list walk."""
    out = grid.copy()
    tokens, missing = out.tokens, out.missing
    rows, cols = tokens.shape
    avail = ~missing

    def predict(r, c):
        w, _ = model.coding_table(neighbor_context(tokens, avail, r, c))
        tok = int(np.argmax(w))
        return tok, int(w[tok])

    if schedule == "raster":
        for r in range(rows):
            for c in range(cols):
                if missing[r, c]:
                    tokens[r, c] = predict(r, c)[0]
                    avail[r, c] = True
                    missing[r, c] = False
        return out
    version = np.zeros(tokens.shape, dtype=np.int64)
    heap = []

    def push(r, c):
        tok, wmax = predict(r, c)
        heapq.heappush(heap, (-wmax, r * cols + c, int(version[r, c]), tok))

    for r in range(rows):
        for c in range(cols):
            if missing[r, c]:
                push(r, c)
    while heap:
        _, flat, ver, tok = heapq.heappop(heap)
        r, c = divmod(flat, cols)
        if not missing[r, c] or ver != version[r, c]:
            continue
        tokens[r, c] = tok
        avail[r, c] = True
        missing[r, c] = False
        for dr, dc in ((-1, 0), (0, -1), (0, 1), (1, 0)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols and missing[nr, nc]:
                version[nr, nc] += 1
                push(nr, nc)
    return out


def test_conceal_matches_the_dense_reference():
    """Both schedules fill every grid as the dense per-cell walk does, on
    seeded models (alphabets 2-256, alpha 0.01-300, smooth and noisy
    corpora) and grids of every shape up to 13x13 and loss fraction."""
    rng = np.random.default_rng(99)
    grids = 0
    for t in range(80):
        a = int(rng.choice([2, 3, 8, 16, 256]))
        alpha = float(rng.choice([0.01, 0.5, 1.0, 4.0, 300.0]))
        corpus = [rng.integers(0, a, (int(rng.integers(1, 12)),
                                      int(rng.integers(1, 12))))
                  for _ in range(int(rng.integers(1, 4)))]
        if t % 2:
            corpus = [np.cumsum(g, axis=1) % a for g in corpus]
        model = train(NeighborhoodModel(a, alpha), corpus)
        for _ in range(3):
            shape = (int(rng.integers(1, 14)), int(rng.integers(1, 14)))
            g = _grid(rng.integers(0, a, shape),
                      rng.random(shape) < rng.random(), alphabet=a)
            for schedule in ("confidence", "raster"):
                out = conceal(g, model, schedule)
                ref = _reference_conceal(g, model, schedule)
                np.testing.assert_array_equal(out.tokens, ref.tokens)
                assert not out.missing.any()
            grids += 1
    assert grids >= 200


def test_concealment_builds_no_dense_table(monkeypatch):
    """Concealment and marginal filling predict from sparse tables: they
    never call coding_table or quantize_pmf."""
    import gjcodec.context as context

    def dense(*args):
        raise AssertionError("dense table built")

    model = _trained_model()
    monkeypatch.setattr(NeighborhoodModel, "coding_table", dense)
    monkeypatch.setattr(context, "quantize_pmf", dense)
    g = apply_loss_mask(_grid(_ar1_tokens(11)), {0, 2},
                        strided_assignment(16, 16, 4))
    for schedule in ("confidence", "raster"):
        assert not conceal(g, model, schedule).missing.any()
    assert not marginal_fill(g, model).missing.any()
