"""Count-based context models with fixed-point PMFs.

A single trained model serves two masters: evaluated causally it prices
tokens for entropy coding, evaluated over a spatial neighborhood it predicts
missing tokens for loss concealment.  Both views share the same fixed-point
PMF representation: integer weights that sum to exactly 2**16 with every
symbol kept at weight >= 1, so an entropy decoder can never starve and coder
and predictor agree bit-for-bit on probabilities.

Model file layout (little-endian): magic "GJCM", u8 version=1, u8 kind
(0=causal, 1=neighborhood), u16 alphabet, u8 order/arity, u32 alpha as 16.16
fixed point, u64 number of (context, symbol) entries, then the entries:
order-many i16 context symbols (-1 = ABSENT/pad), u16 symbol, u64 count.
Entries are strictly ascending in (context, symbol) and every count is
non-zero, so each (context, symbol) pair appears at most once.  The file
layout is the memory layout: a model holds its counts as these entry rows,
which load_model() keeps as read and save() and state_hash() use as held.
"""

from __future__ import annotations

import hashlib
import math
import struct
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .errors import FormatError, ParameterError, output_file, read_header

PMF_BITS = 16
PMF_TOTAL = 1 << PMF_BITS
_PMF_SQUARE = PMF_TOTAL * PMF_TOTAL
# quantize_pmf forms products up to total_scaled * 2**16 in int64, where
# total_scaled = total count * 2**16 + alphabet * alpha_fp.
_MAX_SCALED_TOTAL = 1 << 47
# The alphabet is a u16 field and the order a u8 field of the model file,
# the stream header and the container.
MAX_ALPHABET = 0xFFFF
MAX_ORDER = 0xFF
# Context symbols are i16 fields of the model file, so a model with context
# positions has an alphabet of at most 2**15.
MAX_CONTEXT_ALPHABET = 0x8000
ABSENT = -1

MODEL_MAGIC = b"GJCM"
MODEL_VERSION = 1
_MODEL_HEAD_FMT = "<BBHBIQ"
KIND_CAUSAL = 0
KIND_NEIGHBOR = 1

# Neighborhood positions in context order: up, left, right, down.
NEIGHBOR_OFFSETS = ((-1, 0), (0, -1), (0, 1), (1, 0))


def _entry_dtype(context_len: int) -> np.dtype:
    """One (context, symbol) entry of a model file, as save() writes it and
    load_model() reads it."""
    return np.dtype([("context", "<i2", (context_len,)), ("symbol", "<u2"),
                     ("count", "<u8")])


def quantize_pmf(counts: np.ndarray, alpha_fp: int) -> np.ndarray:
    """Laplace-smooth integer counts and quantize to fixed point.

    The real-valued model is p[i] = (counts[i] + alpha) / (total + alpha*A)
    with alpha = alpha_fp / 2**16.  Quantization floors each weight at 1,
    distributes the deficit by largest remainder (ties: lowest symbol), and
    reclaims any excess from the largest weights, so the result always sums
    to exactly 2**16.  All arithmetic is integer, hence reproducible.
    """
    c = np.asarray(counts, dtype=np.int64)
    a = c.shape[0]
    if a < 2 or a > PMF_TOTAL:
        raise ParameterError(f"alphabet size must be in [2, {PMF_TOTAL}], got {a}")
    if alpha_fp <= 0:
        raise ParameterError("alpha must be positive")
    if c.min() < 0:
        raise ParameterError("counts must be non-negative")

    num = c * PMF_TOTAL + alpha_fp          # p[i] scaled by total_scaled
    total_scaled = int(num.sum())
    w = (num * PMF_TOTAL) // total_scaled
    rem = num * PMF_TOTAL - w * total_scaled
    w = np.maximum(w, 1)

    s = int(w.sum())
    if s < PMF_TOTAL:
        deficit = PMF_TOTAL - s
        order = np.lexsort((np.arange(a), -rem))
        w[order[:deficit]] += 1
    elif s > PMF_TOTAL:
        excess = s - PMF_TOTAL
        order = np.lexsort((np.arange(a), -w))
        for idx in order:
            if excess == 0:
                break
            take = min(int(w[idx]) - 1, excess)
            w[idx] -= take
            excess -= take
        if excess:
            raise ParameterError("cannot renormalize PMF (alphabet too large)")
    return w


def sparse_pmf(idx: list[int], cnt: list[int], alphabet: int,
               alpha_fp: int) -> tuple[list[int], list[int], int, int]:
    """quantize_pmf in O(len(idx)) work, for a mostly-zero count vector.

    `idx` lists, ascending, the symbols with a non-zero count and `cnt` their
    counts; every other symbol counts zero.  Returns (idx, w, w0, cut): the
    symbol idx[k] weighs w[k], and every zero-count symbol j weighs w0 + 1
    if j < cut, else w0.  These are the weights of quantize_pmf bit for bit
    (its int64 arithmetic is exact for every total load_model accepts), with
    no alphabet-wide array, as adaptive coding needs (cf. Moffat, Neal &
    Witten 1998, "Arithmetic coding revisited").

    Every zero-count symbol has the same numerator, hence the same floor w0
    and remainder r0.  The largest-remainder deficit therefore goes first to
    the non-zeros with remainder above r0, then to an index-ordered prefix
    of {zero-count symbols and non-zeros with remainder r0}, then to the rest
    of the non-zeros; a prefix of the zero-count symbols is one cut-off
    index.  An excess only arises when w0 was floored up to 1, so it is
    reclaimed from the non-zeros alone.

    The integers are kept small.  quantize_pmf floors c * 2**32 + alpha_fp
    * 2**16 over t * 2**16 + alphabet * alpha_fp, for a count c in a
    context whose counts total t.  g = gcd(2**16, alphabet * alpha_fp)
    divides 2**16 and alphabet * alpha_fp, so every term of each numerator
    and of the total.  Dividing them all by g keeps every floor and divides
    every remainder by g, which keeps the remainders' order, their ties
    with r0 and the deficit.  At the default alpha 1, g = 2**16, and a
    numerator is (c + 1) * 2**16 over t + alphabet: one CPython digit
    while c < 16,383.

    The pass that forms the floors gives each non-zero above r0 its unit of
    the deficit at once: they rank ahead of every other symbol, so a deficit
    at least their number gives each of them one.  The remainders are
    formed again only when units are still owed to a non-zero tied at r0
    or below it, or when fewer units were owed than given (a smaller
    deficit, none, or an excess); then the units of all but the `deficit`
    largest remainders above r0 are taken back.  Otherwise only the cut
    among the zero counts is left to find.
    """
    n = len(idx)
    g = math.gcd(PMF_TOTAL, alphabet * alpha_fp)
    step, base = _PMF_SQUARE // g, alpha_fp * PMF_TOTAL // g
    total = (sum(cnt) * PMF_TOTAL + alphabet * alpha_fp) // g
    q0, r0 = divmod(base, total)
    w0 = q0 or 1
    w = []
    above = ties = 0
    for c in cnt:
        q, r = divmod(c * step + base, total)
        if r > r0:
            w.append((q or 1) + 1)
            above += 1
        else:
            w.append(q or 1)
            if r == r0:
                ties += 1
    # The units still owed after the early ones; below 0, too many given.
    left = PMF_TOTAL - (alphabet - n) * w0 - sum(w)
    tied = alphabet - n + ties
    cut = 0
    if left < 0 or (left and ties) or left > tied:
        rem = [(c * step + base) % total for c in cnt]
    if left < 0:
        # The deficit, if any, stays with its largest remainders above r0.
        for k in _by_remainder(rem, lambda r: r > r0)[max(left + above, 0):]:
            w[k] -= 1
        excess = -left - above
        if excess > 0:
            for k in sorted(range(n), key=w.__getitem__, reverse=True):
                take = min(w[k] - 1, excess)
                w[k] -= take
                excess -= take
                if not excess:
                    break
    elif left:
        if left >= tied:
            cut = alphabet
        else:
            # The left-th tied symbol in symbol order is the left-th symbol
            # that is not an untied non-zero.
            cut = left
            for i in [i for i, r in zip(idx, rem) if r != r0] if ties else idx:
                if i >= cut:
                    break
                cut += 1
        if ties:
            for k, r in enumerate(rem):
                if r == r0 and idx[k] < cut:
                    w[k] += 1
        if left > tied:
            for k in _by_remainder(rem, lambda r: r < r0)[:left - tied]:
                w[k] += 1
    return idx, w, w0, cut


def _by_remainder(rem: list[int], keep) -> list[int]:
    """The k with keep(rem[k]), largest remainder first (ties: lower k)."""
    # sorted() stays stable under reverse=True: ties keep symbol order.
    return sorted((k for k, r in enumerate(rem) if keep(r)),
                  key=rem.__getitem__, reverse=True)


def sparse_interval(table, symbol: int) -> tuple[int, int]:
    """(cumulative weight below `symbol`, its weight) in a sparse_pmf table."""
    idx, w, w0, cut = table
    k = bisect_left(idx, symbol)
    low = min(symbol, cut)
    cum = (symbol - k) * w0 + low - bisect_left(idx, low, 0, k) + sum(w[:k])
    if k < len(idx) and idx[k] == symbol:
        return cum, w[k]
    return cum, w0 + (symbol < cut)


def sparse_argmax(table, alphabet: int) -> tuple[int, int]:
    """(symbol, weight) of the heaviest symbol of a sparse_pmf table over
    `alphabet` symbols, the lowest symbol on ties, as np.argmax picks it
    from the quantize_pmf weights.

    The lowest zero-count symbol z outweighs or ties every other zero-count
    symbol (they weigh w0 + 1 below `cut`, w0 from there on), so z and the
    heaviest non-zero are the only candidates."""
    idx, w, w0, cut = table
    symbol, weight = -1, 0
    if w:
        weight = max(w)
        symbol = idx[w.index(weight)]
    if len(idx) < alphabet:
        z = next((k for k, i in enumerate(idx) if i != k), len(idx))
        wz = w0 + (z < cut)
        if wz > weight or (wz == weight and z < symbol):
            symbol, weight = z, wz
    return symbol, weight


def sparse_starts(table) -> list[int]:
    """The cumulative weight below each non-zero symbol of a sparse_pmf
    table, for sparse_locate on a table that is searched many times."""
    idx, w, w0, cut = table
    starts = []
    cum = pos = 0
    for i, wi in zip(idx, w):
        cum += (i - pos) * w0 + min(max(cut - pos, 0), i - pos)
        starts.append(cum)
        cum += wi
        pos = i + 1
    return starts


def sparse_locate(table, target: int,
                  starts: list[int] | None = None) -> tuple[int, int, int]:
    """(symbol, cumulative weight below it, its weight) for the symbol of a
    sparse_pmf table whose interval holds 0 <= target < PMF_TOTAL.

    Without `starts` it walks the non-zero symbols in order; given
    sparse_starts(table) it finds the last one starting at or below
    `target` by bisection."""
    idx, w, w0, cut = table
    cum = pos = 0
    if starts is None:
        for i, wi in zip(idx, w):
            run = (i - pos) * w0 + min(max(cut - pos, 0), i - pos)
            if target < cum + run:
                break
            cum += run
            if target < cum + wi:
                return i, cum, wi
            cum += wi
            pos = i + 1
    else:
        k = bisect_right(starts, target) - 1
        if k >= 0:
            cum = starts[k]
            if target < cum + w[k]:
                return idx[k], cum, w[k]
            cum += w[k]
            pos = idx[k] + 1
    # In the zero-count run from `pos`: the symbols below `cut` weigh w0 + 1.
    heavy = max(cut - pos, 0) * (w0 + 1)
    if target - cum < heavy:
        step = (target - cum) // (w0 + 1)
        return pos + step, cum + step * (w0 + 1), w0 + 1
    step = (target - cum - heavy) // w0
    return pos + max(cut - pos, 0) + step, cum + heavy + step * w0, w0


def _alpha_to_fp(alpha: float, alphabet: int) -> int:
    """alpha as 16.16 fixed point, in the range the model file can hold and
    load_model's total-count bound leaves room for."""
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    fp = round(alpha * PMF_TOTAL)
    if fp <= 0:
        raise ParameterError(f"alpha must be >= 2**-16, got {alpha}")
    if fp >= 1 << 32 or alphabet * fp >= _MAX_SCALED_TOTAL:
        raise ParameterError(
            f"alpha {alpha} is too large for alphabet {alphabet}")
    return int(fp)


def _add_count(idx: list[int], cnt: list[int], symbol: int, n: int) -> None:
    """Add n to the count of `symbol` in ascending (symbols, counts) lists."""
    k = bisect_left(idx, symbol)
    if k < len(idx) and idx[k] == symbol:
        cnt[k] += n
    else:
        idx.insert(k, symbol)
        cnt.insert(k, n)


def _digest(serialized: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(serialized, digest_size=8).digest(), "little")


class _CountModel:
    """Counts as the entry rows of the model file: `_rows`, a read-only
    record array of `_entry_dtype`, sorted, one run of rows per context
    with counts.  Rows are replaced, never changed, so copies share them.

    `_keys` holds each run's context packed into one integer, ascending,
    and `_bounds` the row where each run starts, then len(_rows): 16 bytes
    per context, built at the first lookup.  `_runs` memoises the rows of
    each context looked up, `_memo` the predictions of
    NeighborhoodModel.predict.  New counts start all anew; copies share
    them till then.
    """

    kind: int
    context_len: int
    offsets: tuple  # (row, column) offset of each context position

    def __init__(self, alphabet: int, alpha: float, context_len: int):
        limit = MAX_CONTEXT_ALPHABET if context_len else MAX_ALPHABET
        if alphabet < 2 or alphabet > limit:
            raise ParameterError(
                f"alphabet size must be in [2, {limit}] for a model of "
                f"context length {context_len}, got {alphabet}")
        self.alphabet = alphabet
        self.context_len = context_len
        self.alpha_fp = _alpha_to_fp(alpha, alphabet)
        self._rows = np.zeros(0, _entry_dtype(context_len))
        self._merge(self._rows)  # no counts yet: sets the lookup state

    # -- counting ---------------------------------------------------------

    def update(self, context, symbol: int) -> None:
        """Add one observation of `symbol` in `context` (touches nothing else)."""
        key = self._context_key(context)
        if not 0 <= symbol < self.alphabet:
            raise ParameterError(
                f"symbol {symbol} outside alphabet [0, {self.alphabet})")
        self._merge(np.array([(key, symbol, 1)], self._rows.dtype))

    def _checked(self, key: tuple) -> tuple:
        """`key`, once every symbol in it is ABSENT or in the alphabet."""
        for s in key:
            if s != ABSENT and not 0 <= s < self.alphabet:
                raise ParameterError(
                    f"context symbol {s} outside alphabet [0, {self.alphabet})")
        return key

    def _merge(self, rows: np.ndarray) -> None:
        """Add `rows` (entry rows, sorted as in `_rows`) to the counts; a
        model with no counts yet adopts `rows` itself."""
        if len(self._rows):
            rows = np.concatenate((self._rows, rows))
            rows = rows[np.lexsort((rows["symbol"], *rows["context"].T[::-1]))]
            starts = _run_starts(rows["context"], rows["symbol"])
            counts = np.add.reduceat(rows["count"], starts)
            rows = rows[starts]
            rows["count"] = counts
        rows.flags.writeable = False
        self._rows = rows
        self._keys = self._bounds = None
        self._runs: dict = {}
        self._hash: int | None = None
        self._memo: dict = {}

    def grid_contexts(self, grid) -> np.ndarray:
        """(cells, context_len) int16 keys: row i is the context of the i-th
        cell of a 2-D token grid in raster order, ABSENT off the grid.  A
        model with context positions has an alphabet of at most 2**15, so
        its context symbols fit."""
        grid = np.asarray(grid, dtype=np.int64)
        rows, cols = grid.shape
        pad = max((abs(d) for off in self.offsets for d in off), default=0)
        padded = np.pad(grid, pad, constant_values=ABSENT)
        keys = np.empty((rows * cols, self.context_len), dtype=np.int16)
        for j, (dr, dc) in enumerate(self.offsets):
            keys[:, j] = padded[pad + dr:pad + dr + rows,
                                pad + dc:pad + dc + cols].ravel()
        return keys

    def _training_rows(self, grid: np.ndarray):
        """(keys, symbols) that train() counts for one grid."""
        return self.grid_contexts(grid), grid.ravel()

    # -- lookup -----------------------------------------------------------

    def _find(self, key: tuple) -> range:
        """The rows of a context key, empty if it has no counts: found by
        bisection over `_keys` at the key's first lookup, then memoised."""
        rows = self._runs.get(key)
        if rows is None:
            if self._keys is None:
                starts = _run_starts(self._rows["context"])
                self._keys = _packed(self._rows["context"][starts])
                self._bounds = np.append(starts, len(self._rows))
            packed = 0
            for s in key:  # as _packed packs a row
                packed = packed << 16 | s + 1
            k = bisect_left(self._keys, packed)
            rows = self._runs[key] = (
                range(self._bounds[k], self._bounds[k + 1])
                if k < len(self._keys) and self._keys[k] == packed else range(0))
        return rows

    def _run(self, key: tuple) -> tuple[list[int], list[int]]:
        """(symbols, counts) of a context, empty if it has no counts, as
        lists of Python ints: sparse_pmf forms count * 2**32."""
        run = self._find(key)
        if not run:
            return [], []
        rows = self._rows[run.start:run.stop]
        return rows["symbol"].tolist(), rows["count"].tolist()

    # -- probabilities ----------------------------------------------------

    def _resolve_key(self, key: tuple) -> tuple:
        """Hook: map a query context onto the count table that answers it."""
        return key

    def coding_table(self, context) -> tuple[np.ndarray, np.ndarray]:
        """(weights, cumulative) over the whole alphabet, by quantize_pmf:
        the dense reference for the sparse tables coding and concealment
        use."""
        symbols, counts = self._run(
            self._resolve_key(self._context_key(context)))
        vec = np.zeros(self.alphabet, dtype=np.int64)
        vec[symbols] = counts
        w = quantize_pmf(vec, self.alpha_fp)
        return w, np.concatenate(([0], np.cumsum(w)))

    # -- hashing / serialization -----------------------------------------

    def _serialize(self) -> bytes:
        head = MODEL_MAGIC + struct.pack(
            _MODEL_HEAD_FMT, MODEL_VERSION, self.kind, self.alphabet,
            self.context_len, self.alpha_fp, len(self._rows))
        return head + self._rows.tobytes()

    def state_hash(self) -> int:
        """64-bit digest of kind, parameters, and every count: two models
        produce the same hash iff they would price every symbol identically."""
        if self._hash is None:
            self._hash = _digest(self._serialize())
        return self._hash

    def save(self, path) -> None:
        with output_file(path) as fh:
            fh.write(self._serialize())

    def copy(self):
        dup = self.__class__.__new__(self.__class__)
        dup.__dict__.update(self.__dict__)
        return dup


class CausalContextModel(_CountModel):
    """Order-k model over the previous k symbols in scan order.

    History does not cross row boundaries: each grid row (or sequence) starts
    from an empty history, with missing positions padded by ABSENT.
    """

    kind = KIND_CAUSAL

    def __init__(self, alphabet: int, order: int = 2, alpha: float = 1.0):
        if not 0 <= order <= MAX_ORDER:
            raise ParameterError(
                f"order must be in [0, {MAX_ORDER}], got {order}")
        super().__init__(alphabet, alpha, order)
        self.order = order
        self.offsets = tuple((0, j - order) for j in range(order))

    def _context_key(self, context) -> tuple:
        hist = tuple(int(s) for s in context)
        if len(hist) > self.order:
            raise ParameterError(
                f"context of length {len(hist)} exceeds model order {self.order}")
        return self._checked((ABSENT,) * (self.order - len(hist)) + hist)


class NeighborhoodModel(_CountModel):
    """Bidirectional model over the 4-neighborhood (up, left, right, down).

    For every training cell, counts are accumulated for each distinct subset
    of its present neighbors (others masked to ABSENT), so a query with any
    survival pattern is answered from direct evidence when available.  Unseen
    patterns back off by dropping present neighbors (last position first)
    down to the all-ABSENT marginal.
    """

    kind = KIND_NEIGHBOR
    offsets = NEIGHBOR_OFFSETS

    def __init__(self, alphabet: int, alpha: float = 1.0):
        super().__init__(alphabet, alpha, len(NEIGHBOR_OFFSETS))
        self.arity = self.context_len

    def _context_key(self, context) -> tuple:
        key = tuple(int(s) for s in context)
        if len(key) != self.arity:
            raise ParameterError(
                f"neighborhood context must have {self.arity} entries, got {len(key)}")
        return self._checked(key)

    def _resolve_key(self, key: tuple) -> tuple:
        while not self._find(key):
            present = [i for i, s in enumerate(key) if s != ABSENT]
            if not present:
                return key  # untrained marginal: uniform after smoothing
            last = present[-1]
            key = key[:last] + (ABSENT,) + key[last + 1:]
        return key

    def _training_rows(self, grid: np.ndarray):
        """One row per cell and distinct subset of its present neighbors.
        Keep-mask m takes a cell only where every position it keeps is
        present, so each subset of a cell's present neighbors is one mask."""
        keys = self.grid_contexts(grid)
        symbols = grid.ravel()
        present = keys != ABSENT
        rows, row_symbols = [], []
        for m in range(1 << self.arity):
            keep = np.array([m >> i & 1 for i in range(self.arity)], dtype=bool)
            take = present[:, keep].all(axis=1)
            rows.append(np.where(keep, keys[take], ABSENT))
            row_symbols.append(symbols[take])
        return np.concatenate(rows), np.concatenate(row_symbols)

    def predict(self, context: tuple) -> tuple[int, int]:
        """(most probable token, its weight) given a 4-neighborhood context:
        np.argmax of the context's coding_table weights and the weight
        there, found in O(non-zeros) by sparse_argmax.  Memoised per context
        as passed in, and per resolved key (which resolves to itself), so
        the back-off of a context and the table of a key are worked out
        once until the counts change."""
        memo = self._memo
        hit = memo.get(context)
        if hit is None:
            key = self._resolve_key(self._context_key(context))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = sparse_argmax(sparse_pmf(
                    *self._run(key), self.alphabet, self.alpha_fp), self.alphabet)
            memo[context] = hit
        return hit


class Pricer:
    """The coding probabilities of one pass over a model's counts: a static
    or adaptive range-coding pass, or one cross_entropy call.  Each context
    met, as passed in, keeps its resolved key's counts as two ascending
    lists and their sparse_pmf table, so a step is O(non-zeros) work with
    no alphabet-wide array.  An adaptive pass counts each symbol after
    pricing it and drops that table; a table that a decode searches again
    gets its sparse_starts.  No pass changes the model.
    """

    def __init__(self, model: _CountModel, adaptive: bool = False):
        self.model = model
        self.adaptive = adaptive
        # context as passed in -> [symbols, counts, table, starts]; starts
        # is None until a decode walks the table, then False till the next.
        self._entries: dict[tuple, list] = {}

    def _entry(self, context: tuple) -> list:
        entry = self._entries.get(context)
        if entry is None:
            model = self.model
            key = model._resolve_key(model._context_key(context))
            entry = self._entries[context] = [*model._run(key), None, None]
        if entry[2] is None:
            entry[2] = sparse_pmf(entry[0], entry[1], self.model.alphabet,
                                  self.model.alpha_fp)
        return entry

    def _priced(self, entry: list, symbol: int) -> None:
        """An adaptive pass counts `symbol` once it is priced."""
        if self.adaptive:
            _add_count(entry[0], entry[1], symbol, 1)
            entry[2] = entry[3] = None

    def code(self, context: tuple, symbol: int) -> tuple[int, int]:
        """(cumulative weight below `symbol`, its weight)."""
        entry = self._entry(context)
        interval = sparse_interval(entry[2], symbol)
        self._priced(entry, symbol)
        return interval

    def decode(self, context: tuple, target: int) -> tuple[int, int, int]:
        """(symbol, cumulative weight below it, its weight) for the symbol
        whose interval holds `target`."""
        entry = self._entry(context)
        table, starts = entry[2], entry[3]
        if starts is False:
            starts = entry[3] = sparse_starts(table)
        elif starts is None:
            entry[3] = False
        found = sparse_locate(table, target, starts or None)
        self._priced(entry, found[0])
        return found


def train(model: _CountModel, corpus: list[np.ndarray]) -> _CountModel:
    """Accumulate counts over a corpus of 2-D token grids (in place)."""
    if not corpus:
        raise ParameterError("training corpus is empty")
    rows = []
    for grid in corpus:
        g = np.asarray(grid)
        if g.ndim != 2 or g.size == 0:
            raise ParameterError("corpus entries must be non-empty 2-D grids")
        if g.min() < 0 or g.max() >= model.alphabet:
            raise ParameterError(
                f"corpus tokens outside alphabet [0, {model.alphabet})")
        rows.append(model._training_rows(g.astype(np.int64, copy=False)))
    keys, symbols = (np.concatenate(part) for part in zip(*rows))
    # Sort by context, then symbol: each run of equal rows is one entry row,
    # its length the count.  These arrays grow with the corpus: free each.
    del rows
    order = np.lexsort((symbols, *keys.T[::-1]))
    keys, symbols = keys[order], symbols[order]
    del order
    starts = _run_starts(keys, symbols)
    fresh = np.empty(len(starts), _entry_dtype(model.context_len))
    fresh["context"] = keys[starts]
    fresh["symbol"] = symbols[starts]
    fresh["count"] = np.diff(starts, append=len(symbols))
    del keys, symbols, starts
    model._merge(fresh)
    return model


def _run_starts(context: np.ndarray, symbols: np.ndarray | None = None):
    """The rows of sorted (rows, context_len) `context` where a run of one
    context starts, or of one (context, symbol) pair given `symbols`."""
    new = np.ones(len(context), dtype=bool)
    new[1:] = (context[1:] != context[:-1]).any(axis=1)
    if symbols is not None:
        new[1:] |= symbols[1:] != symbols[:-1]
    return np.flatnonzero(new)


def _packed(context: np.ndarray):
    """Each row of (n, context_len) `context` as one integer, 16 bits per
    symbol + 1 (ABSENT is 0), sorting as the rows do: an array('Q') up to
    four symbols, exact Python ints in an object array beyond."""
    wide = context.shape[1] > 4
    packed = np.zeros(len(context), object if wide else np.uint64)
    for column in context.T:
        packed = packed << 16 | (column.astype(np.int64) + 1).astype(packed.dtype)
    return packed if wide else array("Q", packed.tobytes())


def cross_entropy(model: _CountModel, grid: np.ndarray) -> float:
    """Mean -log2 p(symbol | context) over a grid, raster order, in bits/token.

    Uses the model's quantized fixed-point PMFs and does not adapt mid-pass.
    Each cell's context is its `grid_contexts` row, so a causal history
    restarts at every grid row: for a 1-D sequence the value times its
    length is the ideal (pre-termination) cost of static `ac_encode` with
    the frozen model, and for a 2-D grid it is the sum of those costs over
    the rows, not the cost of coding the flattened grid.
    """
    g = np.asarray(grid)
    if g.ndim == 1:
        g = g[None, :]
    if g.ndim != 2 or g.size == 0:
        raise ParameterError("grid must be a non-empty 1-D or 2-D array")
    if g.min() < 0 or g.max() >= model.alphabet:
        raise ParameterError(f"tokens outside alphabet [0, {model.alphabet})")
    pricer = Pricer(model)
    total = 0.0
    for key, sym in zip(map(tuple, model.grid_contexts(g).tolist()),
                        g.ravel().tolist()):
        total += PMF_BITS - np.log2(pricer.code(key, sym)[1])
    return float(total / g.size)


def load_model(path):
    """Read a model file.  Raises FormatError for a malformed file: a bad
    header, a context symbol outside [-1, alphabet), entries that are not
    strictly ascending in (context, symbol), a zero count, or a context
    whose total count t has t * 2**16 + alphabet * alpha_fp >= 2**47, beyond
    which quantize_pmf's int64 arithmetic could overflow.

    A file that passes holds exactly the bytes save() writes for the model it
    describes, so its digest is the model's state_hash."""
    with open(path, "rb") as fh:
        data = fh.read()
    (kind, alphabet, ctx_len, alpha_fp, n_entries), start = read_header(
        data, MODEL_MAGIC, _MODEL_HEAD_FMT, MODEL_VERSION, "model")
    try:
        if kind == KIND_CAUSAL:
            model = CausalContextModel(alphabet, order=ctx_len,
                                       alpha=alpha_fp / PMF_TOTAL)
        elif kind == KIND_NEIGHBOR:
            model = NeighborhoodModel(alphabet, alpha=alpha_fp / PMF_TOTAL)
            if ctx_len != model.arity:
                raise FormatError(f"model: bad neighborhood arity {ctx_len}")
        else:
            raise FormatError(f"model: unknown kind {kind}")
    except ParameterError as exc:
        raise FormatError(f"model: bad header: {exc}") from None
    dtype = _entry_dtype(ctx_len)
    if len(data) - start != n_entries * dtype.itemsize:
        raise FormatError(
            f"model: payload holds {len(data) - start} bytes, "
            f"expected {n_entries * dtype.itemsize}")
    if n_entries:
        entries = np.frombuffer(data, dtype, offset=start)
        _check_entries(entries, alphabet, alphabet * model.alpha_fp)
        model._rows = entries
    model._hash = _digest(data)
    return model


def _check_entries(entries: np.ndarray, alphabet: int, scaled_alpha: int):
    """Check a model file's entries as load_model documents."""
    keys = entries["context"].astype(np.int64)
    symbols, counts = entries["symbol"], entries["count"]
    if symbols.max() >= alphabet:
        raise FormatError(f"model: entry symbol {symbols.max()} outside alphabet")
    if not counts.all():
        raise FormatError("model: zero count")
    if keys.size and ((keys < ABSENT) | (keys >= alphabet)).any():
        raise FormatError(
            f"model: context symbol outside [{ABSENT}, {alphabet})")
    # Strictly ascending rows: the first column in which a row differs from
    # the one before it must grow.
    step = np.diff(np.column_stack((keys, symbols)), axis=0)
    first = (step != 0).argmax(axis=1)
    if (step[np.arange(len(step)), first] <= 0).any():
        raise FormatError("model: entries are not strictly ascending in "
                          "(context, symbol)")
    # The smallest context total t with t * 2**16 + scaled_alpha >= 2**47.
    # Checking single counts first keeps the per-context sums (at most
    # alphabet counts each) far from uint64 overflow.
    limit = -(-(_MAX_SCALED_TOTAL - scaled_alpha) // PMF_TOTAL)
    if (counts.max() >= limit
            or np.add.reduceat(counts, _run_starts(keys)).max() >= limit):
        raise FormatError("model: the counts of a context total too much")
