"""Channel abstractions: AWGN, Gilbert-Elliott packet loss, loss monitoring."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


def as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def awgn(symbols: np.ndarray, snr_db: float, rng) -> np.ndarray:
    """Add white Gaussian noise at the given SNR relative to mean input power."""
    x = np.asarray(symbols, dtype=np.float64)
    if x.size == 0:
        raise ParameterError("awgn: empty symbol vector")
    power = float(np.mean(x * x))
    if power == 0.0:
        raise ParameterError("awgn: input has zero power, SNR is undefined")
    noise_var = power / (10.0 ** (snr_db / 10.0))
    return x + as_rng(rng).normal(0.0, np.sqrt(noise_var), size=x.shape)


@dataclass
class ChannelTrace:
    """Per-packet channel states (0=good, 1=bad) and loss flags."""

    states: np.ndarray
    lost: np.ndarray
    params: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.lost)

    def loss_rate(self) -> float:
        return float(np.mean(self.lost))


def gilbert_elliott(n: int, p_gb: float, p_bg: float, loss_g: float,
                    loss_b: float, rng) -> ChannelTrace:
    """Two-state Markov (Gilbert-Elliott) loss trace of length n.

    p_gb / p_bg are the good->bad / bad->good transition probabilities per
    packet; loss_g / loss_b the per-state loss probabilities.  The chain
    starts from its stationary distribution, so the trace has no transient.
    Sojourns are drawn as geometric run lengths, which is distribution-exact
    and much faster than stepping packet by packet.
    """
    if n <= 0:
        raise ParameterError(f"trace length must be positive, got {n}")
    for name, p in (("p_gb", p_gb), ("p_bg", p_bg),
                    ("loss_g", loss_g), ("loss_b", loss_b)):
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"{name} must be in [0, 1], got {p}")
    if p_gb == 0.0 and p_bg == 0.0:
        raise ParameterError(
            "p_gb = p_bg = 0 has no unique stationary state distribution")

    g = as_rng(rng)
    pi_b = p_gb / (p_gb + p_bg)
    state = int(g.random() < pi_b)  # 0 good, 1 bad

    out_p = (p_gb, p_bg)  # probability of leaving state 0 / state 1
    p_a, p_b = out_p[state], out_p[1 - state]
    if p_a == 0.0:
        states = np.full(n, state, dtype=np.uint8)
    elif p_b == 0.0:
        # The other state absorbs: one sojourn here, then stuck there.
        first = min(int(g.geometric(p_a)), n)
        states = np.full(n, 1 - state, dtype=np.uint8)
        states[:first] = state
    else:
        # Alternating geometric sojourns, drawn as interleaved batches of
        # complete (state, other) pairs until the trace is covered; appending
        # further i.i.d. batches keeps the run sequence distribution-exact.
        # A run is clipped to n: the trace ends inside it either way, and
        # huge (or int64-max) lengths neither allocate nor overflow the sum.
        mean_cycle = 1.0 / p_a + 1.0 / p_b
        parts: list[np.ndarray] = []
        covered = 0
        while covered < n:
            m = max(16, int((n - covered) / mean_cycle * 1.25) + 16)
            pair = np.empty(2 * m, dtype=np.int64)
            pair[0::2] = g.geometric(p_a, size=m)
            pair[1::2] = g.geometric(p_b, size=m)
            np.minimum(pair, n, out=pair)
            parts.append(pair)
            covered += int(pair.sum())
        lens = np.concatenate(parts)
        run_states = np.empty(len(lens), dtype=np.uint8)
        run_states[0::2] = state
        run_states[1::2] = 1 - state
        k = int(np.searchsorted(np.cumsum(lens), n, side="left")) + 1
        states = np.repeat(run_states[:k], lens[:k])[:n]

    u = g.random(n)
    loss_p = np.where(states == 0, loss_g, loss_b)
    lost = u < loss_p
    params = {"p_gb": p_gb, "p_bg": p_bg, "loss_g": loss_g, "loss_b": loss_b}
    return ChannelTrace(states=states, lost=lost, params=params)


def interval_loss_rate(lost: np.ndarray, window: int) -> list[float]:
    """Mean loss rate over consecutive windows; the final partial window is
    averaged over its actual length."""
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    flags = np.asarray(lost, dtype=np.float64)
    return [float(flags[s:s + window].mean())
            for s in range(0, len(flags), window)]

