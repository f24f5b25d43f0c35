"""scipy's compiled kernels, loaded without importing the scipy packages.

gjcodec needs two compiled scipy functions: pocketfft's DCT (for the
block transform) and ndimage's spline zoom (for coarse AR sources).
Importing ``scipy.fft`` or ``scipy.ndimage`` to reach them also imports
scipy's array-API shims, ``numpy.f2py``, ``numpy.testing`` and
``scipy.special``, about 0.25 s and 20 MB per fresh process.  So each
kernel is loaded straight from its extension file in scipy's install
directory, and its callers make the same call that scipy's Python wrapper
makes: the bytes are scipy's.  That call is private to scipy, so a kernel is
run once on a known answer as it loads, and a scipy whose kernel answers
otherwise fails at import rather than in a result.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

import numpy as np


def load_kernel(name: str, probe):
    """The extension module ``scipy.<name>``, loaded from its file and
    checked by check_kernel(name, module, probe).

    Neither ``scipy`` nor the packages above the module are imported, and a
    later ``import scipy.<package>`` still loads the same file.  Raises
    ImportError naming the file when scipy has no such extension file.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("gjcodec needs scipy, which is not installed")
    stem = os.path.join(spec.submodule_search_locations[0], *name.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem + suffix
        if os.path.isfile(path):
            fullname = f"scipy.{name}"
            loader = importlib.machinery.ExtensionFileLoader(fullname, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(fullname, path,
                                                       loader=loader))
            loader.exec_module(module)
            return check_kernel(name, module, probe)
    raise ImportError(
        f"scipy {_scipy_version()} has no extension file {stem}"
        f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")


def check_kernel(name: str, module, probe):
    """`module`, if it passes probe(module).

    The probe makes gjcodec's call of the kernel on a fixed input and
    returns the answer and the known answer (a flat list), which must agree
    to rounding.  A wrong answer, or a TypeError from a call that no longer
    fits the kernel, raises ImportError naming the kernel and scipy's
    version."""
    try:
        got, want = probe(module)
    except TypeError as exc:
        why = f"raises TypeError ({exc})"
    else:
        got = np.ravel(got).tolist()
        if len(got) == len(want) and all(
                math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
                for x, y in zip(got, want)):
            return module
        why = "gives a wrong known answer"
    raise ImportError(f"scipy {_scipy_version()}: gjcodec's call of the "
                      f"kernel scipy.{name} {why}")


def _scipy_version() -> str:
    from importlib.metadata import version
    return version("scipy")
