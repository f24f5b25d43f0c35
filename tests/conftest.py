import numpy as np
import pytest

from gjcodec.context import ABSENT, NEIGHBOR_OFFSETS


def neighbor_context(tokens: np.ndarray, available: np.ndarray,
                     r: int, c: int) -> tuple:
    """4-neighbor context of cell (r, c), cell by cell: borders and
    unavailable cells -> ABSENT.  The reference the per-cell training,
    cross-entropy and concealment walks of the tests read contexts with."""
    rows, cols = tokens.shape
    ctx = []
    for dr, dc in NEIGHBOR_OFFSETS:
        rr, cc = r + dr, c + dc
        if 0 <= rr < rows and 0 <= cc < cols and available[rr, cc]:
            ctx.append(int(tokens[rr, cc]))
        else:
            ctx.append(ABSENT)
    return tuple(ctx)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def run_bounded():
    """Run `python ARGS` in a child capped at 1 GiB of address space and
    60 s, so a runaway allocation or loop fails the test instead of
    exhausting the machine."""
    import resource
    import subprocess
    import sys

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, timeout=60, preexec_fn=limit)
    return run
