import numpy as np
import pytest


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
