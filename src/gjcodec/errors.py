"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.
"""

import contextlib
import os
import struct
import uuid


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


def read_header(data: bytes, magic: bytes, fmt: str, version: int, what: str):
    """(the fields of `fmt` after its leading version field, the offset after
    the header) of a binary artifact that starts with `magic`, then `fmt`.
    A wrong magic, a short header or another version raises FormatError
    naming `what`."""
    if data[:len(magic)] != magic:
        raise FormatError(f"{what}: bad magic {data[:len(magic)]!r}")
    end = len(magic) + struct.calcsize(fmt)
    if len(data) < end:
        raise FormatError(f"{what}: truncated header")
    got, *fields = struct.unpack_from(fmt, data, len(magic))
    if got != version:
        raise FormatError(f"{what}: unsupported version {got}")
    return fields, end


def existing_input(path, field: str | None = None):
    """`path`, if it exists: a missing user-supplied input is a usage error
    (ConfigError), not an operating-system I/O failure.  `field` names where
    a scenario gave the path."""
    if not os.path.exists(path):
        where = f"{field}: " if field else ""
        raise ConfigError(f"{where}input file not found: {path}")
    return path


@contextlib.contextmanager
def output_file(path):
    """A binary file handle whose contents replace `path` whole, or not at
    all: writes go to a new file beside `path`, created at entry with the
    permissions open() gives a new file, moved over `path` on success and
    removed on failure.  An existing target that is not a regular file (a
    device such as /dev/null, a pipe) is written in place instead."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    path = os.path.realpath(path)  # a symlink keeps pointing at the output
    tmp = os.path.join(os.path.dirname(path), f".gjcodec-{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
