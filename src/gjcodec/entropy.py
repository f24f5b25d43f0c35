"""Adaptive arithmetic (range) coding over fixed-point context-model PMFs.

The coder keeps a 64-bit window (`low`, `range`) onto the code interval and
renormalizes in 16-bit steps whenever `range` falls below 2**32, emitting the
settled top 16 bits.  Because `range` is always at least 2**32 when a symbol
is coded and PMF totals are 2**16, the per-symbol rounding loss of the
integer subdivision is below log2(1 + 2**-16) bits, and termination costs at
most 16 extra bits beyond what is already pending in the window.  Hence for
any stream of up to about a million symbols:

    payload_bits  <=  sum(-log2 p(sym | ctx))  +  32

with p taken from the same quantized PMFs the decoder uses.  Carries are
propagated directly into the output buffer, so no code space is ever
discarded.  The subdivision remainder goes to the top symbol of the
alphabet; encoder and decoder share this rule exactly.

One causal walk serves static and adaptive coding alike.  It prices each
symbol in the history of the symbols before it through a context.Pricer,
which owns the pass: its sparse_pmf tables hold the model's counts and, in
an adaptive pass, a count of every symbol coded before in that history.
No pass changes the model or builds an alphabet-wide array, and no table
outlives its pass.
ac_decode runs the same walk in reverse.  The encoder keeps each symbol's
width and returns the ideal cost sum(-log2 p) on the Bitstream
(`cost_bits`, neither serialised nor compared), so a caller that needs the
cost prices each symbol once; sequence_cost_bits returns ac_encode's cost.

Stream layout (little-endian header): magic "GJS1", u8 version=1,
u16 alphabet, u32 symbol count, u64 model state hash, then the payload as
16-bit big-endian words.  A compressed image (`.gjc`) is magic "GJCF", u8
version=1, u16 height, u16 width, f64 step, u16 alphabet, u8 context order,
u8 model flag (1: a trained model coded it statically), then its stream.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .context import PMF_BITS, PMF_TOTAL, CausalContextModel, Pricer
from .errors import (CorruptStreamError, FormatError, ModelMismatchError,
                     ParameterError, read_header)
from .sources import MAX_SIDE
from .transform import BLOCK, MAX_STEP, MIN_STEP

STREAM_MAGIC = b"GJS1"
STREAM_VERSION = 1
_HEADER_FMT = "<BHIQ"
CONTAINER_MAGIC = b"GJCF"
CONTAINER_VERSION = 1
_CONTAINER_FMT = "<BHHdHBB"

_TWO64 = 1 << 64
_TWO48 = 1 << 48
_TWO32 = 1 << 32
_MASK64 = _TWO64 - 1


@dataclass
class Bitstream:
    """A self-describing entropy-coded payload."""

    alphabet: int
    n_symbols: int
    model_hash: int
    payload: bytes
    # Ideal cost of the coded symbols in bits, set by ac_encode.
    cost_bits: float | None = field(default=None, compare=False)

    @property
    def payload_bits(self) -> int:
        return 8 * len(self.payload)

    def to_bytes(self) -> bytes:
        head = STREAM_MAGIC + struct.pack(
            _HEADER_FMT, STREAM_VERSION, self.alphabet, self.n_symbols,
            self.model_hash)
        return head + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        (alphabet, n, model_hash), start = read_header(
            data, STREAM_MAGIC, _HEADER_FMT, STREAM_VERSION, "stream")
        return cls(alphabet=alphabet, n_symbols=n, model_hash=model_hash,
                   payload=data[start:])


def pack_container(height: int, width: int, step: float, order: int,
                   modeled: bool, stream: Bitstream) -> bytes:
    """The compressed image (module docstring) that wraps `stream`."""
    return CONTAINER_MAGIC + struct.pack(
        _CONTAINER_FMT, CONTAINER_VERSION, height, width, step,
        stream.alphabet, order, modeled) + stream.to_bytes()


def read_container(data: bytes) -> tuple:
    """(height, width, step, order, model flag, stream) of a compressed
    image; a field out of range or a stream that disagrees is a FormatError."""
    (height, width, step, alphabet, order, modeled), start = read_header(
        data, CONTAINER_MAGIC, _CONTAINER_FMT, CONTAINER_VERSION, "container")
    if height == 0 or width == 0 or height % BLOCK or width % BLOCK:
        raise FormatError(
            f"image size {height}x{width} is not a positive multiple of {BLOCK}")
    # bounds the decode to 4096**2 symbols, whatever the payload admits
    if max(height, width) > MAX_SIDE:
        raise FormatError(f"image size {height}x{width}: a container cannot "
                          f"hold a side above {MAX_SIDE}")
    if not MIN_STEP <= step <= MAX_STEP:
        raise FormatError(f"quantizer step {step} is outside "
                          f"[{MIN_STEP:g}, {MAX_STEP:g}]")
    if alphabet < 2:
        raise FormatError(f"alphabet {alphabet} is below 2")
    if modeled not in (0, 1):
        raise FormatError(f"model flag {modeled} is neither 0 nor 1")
    stream = Bitstream.from_bytes(data[start:])
    # Checked before decoding, so the decoder's run time and memory are
    # bounded by the container's image size, not by a hostile symbol count.
    if stream.alphabet != alphabet:
        raise FormatError(
            f"stream alphabet {stream.alphabet} != container alphabet {alphabet}")
    if stream.n_symbols != height * width:
        raise FormatError(
            f"stream holds {stream.n_symbols} symbols, expected {height * width}")
    return height, width, step, order, modeled, stream


def _propagate_carry(buf: bytearray) -> None:
    i = len(buf) - 1
    while True:
        if i < 0:  # cannot happen: a carry implies earlier output
            raise AssertionError("range coder carry with empty output buffer")
        if buf[i] == 0xFF:
            buf[i] = 0
            i -= 1
        else:
            buf[i] += 1
            return


def _check_causal(model) -> None:
    if not isinstance(model, CausalContextModel):
        raise ParameterError("entropy coding requires a CausalContextModel")


def _checked_symbols(symbols, alphabet: int) -> list[int]:
    syms = [int(s) for s in symbols]
    if syms and (min(syms) < 0 or max(syms) >= alphabet):
        bad = next(s for s in syms if not 0 <= s < alphabet)
        raise ParameterError(f"symbol {bad} outside alphabet [0, {alphabet})")
    return syms


def _encode(syms: list[int], model: CausalContextModel,
            pricer) -> tuple[bytes, list[int]]:
    """The coding walk: the payload of `syms`, each priced by `pricer` in
    the history of the `model.order` symbols before it, and each symbol's
    width."""
    out = bytearray()
    widths: list[int] = []
    low = 0
    range_ = _TWO64
    top = model.alphabet - 1
    order = model.order
    bits = PMF_BITS
    hist: tuple = ()
    for s in syms:
        lo, width = pricer.code(hist, s)
        widths.append(width)
        r = range_ >> bits
        base = r * lo
        low += base
        if low >= _TWO64:
            low -= _TWO64
            _propagate_carry(out)
        if s == top:
            range_ -= base
        else:
            range_ = r * width
        while range_ < _TWO32:
            out.append(low >> 56)
            out.append((low >> 48) & 0xFF)
            low = (low << 16) & _MASK64
            range_ <<= 16
        if order:
            hist = (hist + (s,))[-order:]

    if syms:
        shift = 48 if range_ >= _TWO48 else 32
        point = ((low + (1 << shift) - 1) >> shift) << shift
        if point >= _TWO64:
            point -= _TWO64
            _propagate_carry(out)
        out.append(point >> 56)
        out.append((point >> 48) & 0xFF)
        if shift == 32:
            out.append((point >> 40) & 0xFF)
            out.append((point >> 32) & 0xFF)
    return bytes(out), widths


def _ideal_cost(widths: list[int]) -> float:
    """sum(PMF_BITS - log2 width), added left to right as a float loop
    would add it (np.sum's pairwise order could differ in the last bit)."""
    if not widths:
        return 0.0
    return float(np.add.accumulate(PMF_BITS - np.log2(widths))[-1])


def ac_encode(symbols, model: CausalContextModel, adaptive: bool = False) -> Bitstream:
    """Encode a symbol sequence under a causal context model.

    With `adaptive` set, each symbol is coded with the model's counts plus
    those of every symbol before it.  The model itself is never changed, so
    its state hash, which the stream records, is the state the decoder must
    start from.  The stream carries the sequence's ideal cost in
    `cost_bits`.
    """
    _check_causal(model)
    syms = _checked_symbols(symbols, model.alphabet)
    model_hash = model.state_hash()
    payload, widths = _encode(syms, model, Pricer(model, adaptive))
    return Bitstream(alphabet=model.alphabet, n_symbols=len(syms),
                     model_hash=model_hash, payload=payload,
                     cost_bits=_ideal_cost(widths))


def _max_symbols(payload_bytes: int, alphabet: int) -> int:
    """The most symbols a payload of `payload_bytes` bytes can code over an
    alphabet of `alphabet` symbols.

    Each coded symbol shrinks the range by at least a factor
    1 - (A-1)(2**16-1)/2**32: a symbol below the top one keeps
    r * width <= range * (2**16-A+1) / 2**16 of it, and the top one, which
    also takes the subdivision remainder, range - r * low with low >= A-1
    and r = range >> 16 >= (range - 2**16 + 1) / 2**16, range >= 2**32.
    The range starts at 2**64 and ends at or above 2**32, and each
    renormalisation multiplies it by 2**16 and emits two payload bytes, so
    n * delta <= 32 + 8 * bytes, with delta = -log2 of that factor (rounded
    down here, so float rounding cannot reject a valid stream)."""
    shrink = (alphabet - 1) * (PMF_TOTAL - 1) / _TWO32   # exact in a float
    delta = -math.log1p(-shrink) / math.log(2) * (1 - 2 ** -20)
    return math.floor((8 * payload_bytes + 32) / delta)


def ac_decode(stream: Bitstream, model: CausalContextModel,
              adaptive: bool = False) -> np.ndarray:
    """Decode a Bitstream; the inverse of :func:`ac_encode`.

    Raises ModelMismatchError if the model state hash differs from the one
    recorded at encode time, and CorruptStreamError if the payload length is
    inconsistent with the decoded symbol count (e.g. truncation), before
    decoding anything if the payload is too short to hold that many
    symbols.
    """
    _check_causal(model)
    if model.alphabet != stream.alphabet:
        raise ModelMismatchError(
            f"stream alphabet {stream.alphabet} != model alphabet {model.alphabet}")
    if model.state_hash() != stream.model_hash:
        raise ModelMismatchError(
            f"model state hash {model.state_hash():#018x} does not match "
            f"stream header {stream.model_hash:#018x}")

    n = stream.n_symbols
    payload = stream.payload
    if n == 0:
        if payload:
            raise CorruptStreamError(
                f"stream: empty sequence carries {len(payload)} payload bytes")
        return np.zeros(0, dtype=np.int64)
    if n > _max_symbols(len(payload), model.alphabet):
        raise CorruptStreamError(
            f"stream: {len(payload)} payload bytes cannot hold {n} symbols")

    # 16-bit big-endian words, zero-padded past the end of the payload
    words = struct.iter_unpack(">H", payload + b"\x00" * (len(payload) % 2))
    c = 0
    for _ in range(4):
        c = c << 16 | next(words, (0,))[0]
    range_ = _TWO64
    renorms = 0

    top = model.alphabet - 1
    order = model.order
    bits, v_max = PMF_BITS, PMF_TOTAL - 1
    pricer = Pricer(model, adaptive)
    hist: tuple = ()
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        r = range_ >> bits
        v = c // r
        if v > v_max:
            v = v_max
        s, lo, width = pricer.decode(hist, v)
        base = r * lo
        c -= base
        if s == top:
            range_ -= base
        else:
            range_ = r * width
        while range_ < _TWO32:
            c = c << 16 | next(words, (0,))[0]
            range_ <<= 16
            renorms += 1
        out[i] = s
        if order:
            hist = (hist + (s,))[-order:]

    flush_words = 1 if range_ >= _TWO48 else 2
    expected = 2 * (renorms + flush_words)
    if len(payload) != expected:
        raise CorruptStreamError(
            f"stream: payload holds {len(payload)} bytes, expected {expected} "
            f"for {n} symbols (truncated or trailing garbage)")
    return out


def sequence_cost_bits(model: CausalContextModel, symbols,
                       adaptive: bool = False) -> float:
    """Ideal model cost sum(-log2 p) in bits, from quantized PMFs: the
    `cost_bits` of ac_encode(symbols, model, adaptive).

    With adaptive=True each symbol is priced with the counts of every symbol
    before it, as ac_encode prices it.
    """
    return ac_encode(symbols, model, adaptive).cost_bits
