"""scipy's compiled kernels, loaded without importing the scipy packages.

gjcodec needs two compiled scipy functions: pocketfft's DCT (for the
block transform) and ndimage's spline zoom (for coarse AR sources).
Importing ``scipy.fft`` or ``scipy.ndimage`` to reach them also imports
scipy's array-API shims, ``numpy.f2py``, ``numpy.testing`` and
``scipy.special``, about 0.25 s and 20 MB per fresh process.  So each
kernel is loaded straight from its extension file in scipy's install
directory, and its callers make the same call that scipy's Python wrapper
makes: the bytes are scipy's.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os


def load_kernel(name: str):
    """The extension module ``scipy.<name>``, loaded from its file.

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
            return module
    from importlib.metadata import version
    raise ImportError(
        f"scipy {version('scipy')} has no extension file {stem}"
        f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")
