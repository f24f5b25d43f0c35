"""Package-level acceptance checks.

One test per headline guarantee; each line of `pytest -v` output on this
module is one pass/fail verdict.  Thresholds and runtime budgets are pinned
here on purpose — do not loosen them to make a regression green.
"""

import itertools
import json
import time
from collections import defaultdict
from importlib import resources

import numpy as np
import pytest
from scipy.stats import norm

from gjcodec.channel import awgn, gilbert_elliott
from gjcodec.concealment import (TokenGrid, conceal, marginal_fill,
                                 strided_assignment)
from gjcodec.context import (PMF_TOTAL, CausalContextModel, NeighborhoodModel,
                             quantize_pmf, train)
from gjcodec.entropy import ac_decode, ac_encode, sequence_cost_bits
from gjcodec.errors import FecDecodeError
from gjcodec.fec import fec_decode, fec_encode
from gjcodec.metrics import detect_cliff
from gjcodec.pipelines import sweep
from gjcodec.sources import ar1_field
from gjcodec.transform import dct2, idct2
from gjcodec.vq import vq_train


def _bundled(name: str) -> dict:
    ref = resources.files("gjcodec") / "scenarios" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _by_scheme_condition(records):
    table = defaultdict(list)
    for r in records:
        table[(r["scheme"], r["condition"])].append(r)
    return table


def test_criterion_1_losslessness_fuzz():
    """1000 random (sequence, model) pairs round-trip exactly, < 10 s."""
    rng = np.random.default_rng(0xF00D)
    start = time.monotonic()
    for i in range(1000):
        alphabet = int(rng.integers(2, 64))
        order = int(rng.integers(0, 3))
        model = CausalContextModel(alphabet, order=order)
        if rng.random() < 0.7:
            train(model, [rng.integers(0, alphabet, (15, 15))])
        syms = rng.integers(0, alphabet, int(rng.integers(0, 200)))
        adaptive = bool(i % 2)
        stream = ac_encode(syms, model.copy(), adaptive=adaptive)
        decoded = ac_decode(stream, model.copy(), adaptive=adaptive)
        assert np.array_equal(decoded, syms)
    assert time.monotonic() - start < 10.0


def test_criterion_2_payload_tracks_likelihood():
    """payload - sum(-log2 p) <= 32 bits at 1e4 symbols; noise >= 7.9 bpp."""
    rng = np.random.default_rng(2)
    for alphabet, order in ((4, 0), (16, 1), (64, 2)):
        model = train(CausalContextModel(alphabet, order=order),
                      [rng.integers(0, alphabet, (30, 30))])
        syms = rng.integers(0, alphabet, 10_000)
        stream = ac_encode(syms, model)
        ideal = sequence_cost_bits(model, syms)
        assert stream.payload_bits >= ideal - 1e-6
        assert stream.payload_bits - ideal <= 32.0

    noise = rng.integers(0, 256, 10_000)
    stream = ac_encode(noise, CausalContextModel(256, order=0))
    assert stream.payload_bits / len(noise) >= 7.9


def test_criterion_3_fec_is_mds_exhaustively():
    """All k <= 6, r <= 3, every loss pattern: success iff losses <= r."""
    rng = np.random.default_rng(3)
    start = time.monotonic()
    for k in range(1, 7):
        for r in range(0, 4):
            data = [rng.integers(0, 256, 5, dtype=np.uint8).tobytes()
                    for _ in range(k)]
            packets = fec_encode(data, r)
            total = k + r
            for width in range(total + 1):
                for gone in itertools.combinations(range(total), width):
                    kept = [p for p in packets if p.index not in gone]
                    if width <= r:
                        assert fec_decode(kept, k, total) == data
                    else:
                        with pytest.raises(FecDecodeError):
                            fec_decode(kept, k, total)
    assert time.monotonic() - start < 30.0


def test_criterion_4_gilbert_elliott_statistics():
    """Loss rate within 0.005 of stationary; burst mean within 5% of 1/p_bg."""
    cases = [(0.1, 0.5, 0.0, 1.0), (0.125, 0.5, 0.0, 1.0)]
    for i, (p_gb, p_bg, loss_g, loss_b) in enumerate(cases):
        tr = gilbert_elliott(1_000_000, p_gb, p_bg, loss_g, loss_b,
                             np.random.default_rng(40 + i))
        pi_b = p_gb / (p_gb + p_bg)
        analytic = (1 - pi_b) * loss_g + pi_b * loss_b
        assert abs(float(tr.lost.mean()) - analytic) < 0.005

        padded = np.concatenate([[0], tr.lost.astype(np.int8), [0]])
        starts = int(np.sum((padded[1:] == 1) & (padded[:-1] == 0)))
        mean_burst = float(tr.lost.sum() / starts)
        assert abs(mean_burst - 1 / p_bg) <= 0.05 * (1 / p_bg)


def test_criterion_5_awgn_calibration():
    """Realized SNR within 0.1 dB of configured at 1e6 symbols."""
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1.5, 1_000_000)
    for snr_db in (-4.0, 0.0, 6.0, 12.0):
        y = awgn(x, snr_db, np.random.default_rng(int(snr_db) + 100))
        realized = 10 * np.log10(np.mean(x ** 2) / np.mean((y - x) ** 2))
        assert abs(realized - snr_db) < 0.1


def test_criterion_6_cliff_versus_graceful():
    """fig5: digital cliffs (>10 dB, flat above); analog degrades gently."""
    scn = _bundled("fig5")
    assert scn["num_seeds"] >= 20
    assert scn["bandwidth_ratio"] == 0.02
    start = time.monotonic()
    records = sweep(scn)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert len(records) == 360

    table = _by_scheme_condition(records)
    conditions = scn["conditions"]["values"]          # best -> worst
    assert conditions == sorted(conditions, reverse=True)

    def curve(label):
        return [(c, float(np.mean([r["psnr"] for r in table[(label, c)]])))
                for c in conditions]

    digital = curve("digital_separate")
    ok_psnrs = [r["psnr"] for c in conditions
                for r in table[("digital_separate", c)]
                if not r["decode_failed"]]
    assert ok_psnrs, "digital path never succeeded"
    assert any(r["decode_failed"] for c in conditions
               for r in table[("digital_separate", c)]), \
        "no failure boundary inside the swept range"
    # leveling: every successful record reconstructs identically
    assert len({round(p, 9) for p in ok_psnrs}) == 1
    assert detect_cliff(digital) > 10.0

    analog = curve("analog_jscc")
    psnrs = [p for _, p in analog]
    assert all(a >= b - 1e-9 for a, b in zip(psnrs, psnrs[1:]))
    assert detect_cliff(analog) <= 1.5


def test_criterion_7_resilience_versus_fec():
    """fig6: weak never fails and degrades monotonely; FEC pays or breaks."""
    scn = _bundled("fig6")
    start = time.monotonic()
    records = sweep(scn)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0

    table = _by_scheme_condition(records)
    conditions = scn["conditions"]["values"]
    k = scn["fec"]["k"]

    weak = [r for c in conditions for r in table[("weak_jscc", c)]]
    assert weak and not any(r["decode_failed"] for r in weak)
    by_realized = sorted(
        (float(np.mean([r["realized_loss_rate"] for r in table[("weak_jscc", c)]])),
         float(np.mean([r["psnr"] for r in table[("weak_jscc", c)]])))
        for c in conditions)
    assert all(a[1] >= b[1] - 1e-9
               for a, b in zip(by_realized, by_realized[1:]))

    fec1 = [r for c in conditions for r in table[("digital_fec_1x", c)]]
    overloaded_failures = sum(
        r["decode_failed"] for r in fec1
        if r["realized_loss_rate"] * (k + r["fec_r"]) > r["fec_r"])
    assert overloaded_failures >= 1

    fec4 = [r for c in conditions for r in table[("digital_fec_4x", c)]]
    parity_bpp_1 = sum(r["bpp"] * r["fec_r"] / (k + r["fec_r"]) for r in fec1)
    parity_bpp_4 = sum(r["bpp"] * r["fec_r"] / (k + r["fec_r"]) for r in fec4)
    assert parity_bpp_4 >= 4.0 * parity_bpp_1 - 1e-9


def test_criterion_8_concealment_beats_marginal_fill():
    """20% strided loss on AR(1) token grids: contexts beat the marginal."""
    alphabet, shape, packets = 8, (24, 24), 5
    edges = norm.ppf(np.linspace(0, 1, alphabet + 1)[1:-1])
    # conditional mean of a standard normal inside each quantile bin
    bounds = np.concatenate([[-np.inf], edges, [np.inf]])
    centers = np.array([
        (norm.pdf(a) - norm.pdf(b)) / max(norm.cdf(b) - norm.cdf(a), 1e-12)
        for a, b in zip(bounds[:-1], bounds[1:])])

    def tokens_of(seed):
        field = ar1_field(shape[0], shape[1], 0.9, seed)
        return np.digitize(field, edges).astype(np.int64), field

    model = train(NeighborhoodModel(alphabet),
                  [tokens_of(50_000 + i)[0] for i in range(40)])
    assignment = strided_assignment(shape[0], shape[1], packets)

    acc_ctx = acc_mrg = mse_ctx = mse_mrg = 0.0
    for trial in range(200):
        truth, field = tokens_of(90_000 + trial)
        grid = TokenGrid(truth.copy(),
                         np.isin(assignment, [trial % packets]), alphabet)
        holes = grid.missing
        assert holes.mean() == pytest.approx(0.2, abs=0.02)
        filled_ctx = conceal(grid, model).tokens
        filled_mrg = marginal_fill(grid, model).tokens
        acc_ctx += float((filled_ctx[holes] == truth[holes]).mean())
        acc_mrg += float((filled_mrg[holes] == truth[holes]).mean())
        mse_ctx += float(np.mean((centers[filled_ctx] - field) ** 2))
        mse_mrg += float(np.mean((centers[filled_mrg] - field) ** 2))

    assert acc_ctx / 200 > acc_mrg / 200
    assert mse_ctx / 200 < mse_mrg / 200


def test_criterion_9_numerical_core():
    """Transform exactness, k-means monotonicity, fixed-point PMF totals."""
    rng = np.random.default_rng(9)
    blocks = rng.uniform(-200, 200, (64, 8, 8))
    assert np.abs(idct2(dct2(blocks)) - blocks).max() <= 1e-9
    energy_in = float(np.sum(blocks ** 2))
    energy_out = float(np.sum(dct2(blocks) ** 2))
    assert abs(energy_in - energy_out) / energy_in <= 1e-6

    for seed in range(3):
        vectors = np.random.default_rng(90 + seed).normal(0, 4, (600, 9))
        hist = vq_train(vectors, k=17, iters=12, seed=seed).distortion_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    for i in range(1000):
        a = int(rng.integers(2, 500))
        counts = rng.integers(0, 1 << int(rng.integers(1, 20)), a)
        alpha_fp = int(rng.integers(1, 1 << 16))
        assert int(quantize_pmf(counts, alpha_fp).sum()) == PMF_TOTAL
