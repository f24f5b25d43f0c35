"""Channels: AWGN, Gilbert-Elliott packet loss, and the MCS choice."""

from __future__ import annotations

from dataclasses import dataclass

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


def burst_transitions(loss: float, burst_mean: float) -> tuple[float, float]:
    """(p_gb, p_bg) of a Gilbert-Elliott channel with mean burst length
    `burst_mean` and stationary loss rate `loss`."""
    p_bg = 1.0 / burst_mean
    return p_bg * loss / (1.0 - loss), p_bg


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
    # A state that cannot be left is the only one the start can pick: with
    # p_bg = 0, pi_b is exactly 1.0 and the start is bad; with p_gb = 0,
    # pi_b is 0.0 and the start is good.  Either way p_a = 0, so past this
    # test both states can be left.
    if p_a == 0.0:
        states = np.full(n, state, dtype=np.uint8)
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
    return ChannelTrace(states=states, lost=lost)


def mcs_pick(table: list, snr_db: float):
    """Index of the most efficient entry usable at snr_db, or None."""
    best = None
    for i, (_eff, min_snr) in enumerate(table):
        if snr_db >= min_snr:
            best = i
    return best
