import numpy as np
import pytest

from gjcodec.channel import ChannelTrace, as_rng, awgn, gilbert_elliott
from gjcodec.errors import ParameterError


def test_awgn_high_snr_is_nearly_transparent(rng):
    x = rng.normal(0, 1, 10_000)
    y = awgn(x, 100.0, np.random.default_rng(1))
    assert np.sqrt(np.mean((y - x) ** 2)) < 1e-4


def test_awgn_noise_variance_at_0db():
    rng = np.random.default_rng(5)
    x = rng.choice([-1.0, 1.0], 1_000_000)  # exactly unit power
    y = awgn(x, 0.0, np.random.default_rng(6))
    noise_var = np.var(y - x)
    assert abs(noise_var - 1.0) < 0.01


def test_awgn_deterministic_under_seeded_rng(rng):
    x = rng.normal(0, 1, 1000)
    a = awgn(x, 10.0, np.random.default_rng(3))
    b = awgn(x, 10.0, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("snr_db", [-4.0, 0.0, 6.0, 20.0])
def test_awgn_realized_snr(snr_db, rng):
    x = rng.normal(0, 2.0, 200_000)
    y = awgn(x, snr_db, np.random.default_rng(int(snr_db) + 50))
    realized = 10 * np.log10(np.mean(x ** 2) / np.mean((y - x) ** 2))
    assert abs(realized - snr_db) < 0.1


def test_gilbert_elliott_stationary_loss_rate():
    """Loss rate converges to pi_B = p_gb / (p_gb + p_bg) for loss_b=1."""
    tr = gilbert_elliott(1_000_000, 0.1, 0.5, 0.0, 1.0,
                         np.random.default_rng(2))
    assert abs(float(tr.lost.mean()) - 1 / 6) < 0.005


def test_gilbert_elliott_all_clear_and_all_lost():
    rng = np.random.default_rng(0)
    clear = gilbert_elliott(5000, 0.2, 0.5, 0.0, 0.0, rng)
    assert not clear.lost.any()
    lost = gilbert_elliott(5000, 0.2, 0.5, 1.0, 1.0, np.random.default_rng(1))
    assert lost.lost.all()


def test_gilbert_elliott_mean_burst_length():
    p_bg = 0.5
    tr = gilbert_elliott(1_000_000, 0.05, p_bg, 0.0, 1.0,
                         np.random.default_rng(8))
    m = np.concatenate([[0], tr.lost.astype(np.int8), [0]])
    starts = np.sum((m[1:] == 1) & (m[:-1] == 0))
    bursts = tr.lost.sum() / starts
    assert abs(bursts - 1 / p_bg) / (1 / p_bg) < 0.05


def test_gilbert_elliott_probability_domain():
    with pytest.raises(ParameterError):
        gilbert_elliott(10, 1.5, 0.5, 0.0, 1.0, np.random.default_rng(0))


def _gilbert_elliott_unclipped(n, p_gb, p_bg, loss_g, loss_b, rng):
    """Frozen copy of gilbert_elliott before sojourns were clipped to n
    (parameter checks left out)."""
    g = as_rng(rng)
    pi_b = p_gb / (p_gb + p_bg)
    state = int(g.random() < pi_b)
    out_p = (p_gb, p_bg)
    p_a, p_b = out_p[state], out_p[1 - state]
    if p_a == 0.0:
        states = np.full(n, state, dtype=np.uint8)
    elif p_b == 0.0:
        first = min(int(g.geometric(p_a)), n)
        states = np.full(n, 1 - state, dtype=np.uint8)
        states[:first] = state
    else:
        mean_cycle = 1.0 / p_a + 1.0 / p_b
        parts = []
        covered = 0
        while covered < n:
            m = max(16, int((n - covered) / mean_cycle * 1.25) + 16)
            pair = np.empty(2 * m, dtype=np.int64)
            pair[0::2] = g.geometric(p_a, size=m)
            pair[1::2] = g.geometric(p_b, size=m)
            parts.append(pair)
            covered += int(pair.sum())
        lens = np.concatenate(parts)
        run_states = np.empty(len(lens), dtype=np.uint8)
        run_states[0::2] = state
        run_states[1::2] = 1 - state
        k = int(np.searchsorted(np.cumsum(lens), n, side="left")) + 1
        states = np.repeat(run_states[:k], lens[:k])[:n]
    u = g.random(n)
    lost = u < np.where(states == 0, loss_g, loss_b)
    return ChannelTrace(states=states, lost=lost)


@pytest.mark.parametrize("p_gb,p_bg", [
    (0.1, 0.5), (0.5, 0.5), (1.0, 1.0), (0.01, 0.02), (1e-4, 1e-3),
    (0.0, 0.3), (0.3, 0.0), (1.0, 0.0), (0.05 / 0.95 * 0.5, 0.5)])
def test_gilbert_elliott_matches_unclipped_reference(p_gb, p_bg):
    """Clipping sojourns to n changes no trace and no later draw."""
    for n in (1, 2, 7, 64, 305, 2000):
        for seed in range(12):
            new_rng, old_rng = (np.random.default_rng(seed) for _ in range(2))
            got = gilbert_elliott(n, p_gb, p_bg, 0.1, 0.9, new_rng)
            want = _gilbert_elliott_unclipped(n, p_gb, p_bg, 0.1, 0.9, old_rng)
            assert got.states.tobytes() == want.states.tobytes()
            assert got.lost.tobytes() == want.lost.tobytes()
            assert new_rng.random() == old_rng.random()


def test_gilbert_elliott_extreme_bursts_are_bounded(run_bounded):
    """Mean bursts of 1e9 and 1e300 packets (sojourns far beyond the trace,
    up to the int64 maximum) give a 305-slot trace in bounded memory."""
    code = (
        "from gjcodec.channel import gilbert_elliott\n"
        "for burst in (1e9, 1e300):\n"
        "    for loss in (0.05, 0.3, 0.9):\n"
        "        p_bg = 1.0 / burst\n"
        "        for seed in range(8):\n"
        "            tr = gilbert_elliott(305, p_bg * loss / (1 - loss), p_bg,\n"
        "                                 0.0, 1.0, seed)\n"
        "            assert len(tr.states) == len(tr.lost) == 305\n"
        "            assert tr.lost.all() or not tr.lost.any()\n"
        "print('ok')\n")
    r = run_bounded("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "ok"

