"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.
"""

import os


class GjcError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GjcError, ValueError):
    """A function argument is outside its documented domain."""


class ConfigError(GjcError):
    """A config file / scenario / CLI usage problem (exit code 2)."""


class FormatError(GjcError):
    """A serialized artifact (PGM, codebook, model, stream) is malformed (exit code 4)."""


class CorruptStreamError(FormatError):
    """An entropy-coded payload is truncated or otherwise inconsistent."""


class ModelMismatchError(FormatError):
    """Decoder model state does not match the hash recorded in the stream header."""


class FecDecodeError(GjcError):
    """Erasure decoding is impossible (more losses than parity).

    This is a *signal*, not a crash: pipelines catch it and record a failed
    transmission.
    """


def existing_input(path, field: str | None = None):
    """`path`, if it exists: a missing user-supplied input is a usage error
    (ConfigError), not an operating-system I/O failure.  `field` names where
    a scenario gave the path."""
    if not os.path.exists(path):
        where = f"{field}: " if field else ""
        raise ConfigError(f"{where}input file not found: {path}")
    return path
