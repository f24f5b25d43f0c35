"""Patch tokenization: k-means codebook training, encode/decode, file format.

Codebook file layout (little-endian): magic "GJCB", u8 version=1, u16 K,
u16 dim, u64 train_seed, then K*dim float32 codeword entries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, FormatError, ParameterError, output_file,
                     read_header)
from .transform import merge_blocks, split_blocks

CODEBOOK_MAGIC = b"GJCB"
CODEBOOK_VERSION = 1
_HEAD_FMT = "<BHHQ"
MAX_CODEWORDS = 1024


@dataclass
class Codebook:
    vectors: np.ndarray          # (K, dim) float32
    train_seed: int = 0
    distortion_history: list = field(default_factory=list)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float32)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ParameterError("codebook must be a non-empty (K, dim) array")
        if v.shape[0] > MAX_CODEWORDS:
            raise ConfigError(
                f"codebook size {v.shape[0]} exceeds the supported maximum "
                f"{MAX_CODEWORDS}")
        if not np.isfinite(v).all():
            raise ParameterError("codebook contains NaN or infinite entries")
        # Equal rows are adjacent once sorted (np.unique(axis=0) would do
        # as much, but imports numpy.ma); -0.0 == 0.0, as there.
        rows = v[np.lexsort(v.T[::-1])]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ParameterError("codebook contains duplicate codewords")
        self.vectors = v

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# Row blocks of the screen hold at most this many (row, codeword) entries, so
# the helper's temporaries stay O(block * K) however many rows come in.
_BLOCK_ENTRIES = 1 << 16
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _direct_sq_dist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rowwise squared distances ||x_i - c_i||^2 by direct differences.

    This is the deciding form: every distance the helper returns comes from
    here, so it does not depend on how BLAS orders or threads its sums.
    """
    d = x - c
    return np.einsum("nd,nd->n", d, d)


def _nearest(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword of each row of `x`: (index, squared distance).

    Exact: the result equals an argmin (ties to the lowest index) over the
    full (N, K) matrix of direct-difference distances, bit for bit, under any
    BLAS build or thread count.  BLAS only prunes; the direct form decides.

    Screen.  Per row block, s_k = ||c_k||^2 - 2 x.c_k comes from one GEMM;
    it is ||x - c_k||^2 - ||x||^2, so it ranks codewords like the distance.

    Error bound.  Let u = eps/2, g_n = n u / (1 - n u), D the dimension and
    R = ||x|| + max_k ||c_k||.  A dot product of D terms, summed in any
    order, blocked, split across threads or with FMA, is off by at most
    g_D sum|x_i c_i| (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1); a GEMM computes each entry as such a dot product
    (BLAS uses no Strassen-type scheme).  So the screen is off from its
    real value by at most
        g_D ||c||^2 + 2 g_D ||x|| ||c|| + u |s|  <=  g_{D+1} R^2,
    and the direct form (D rounded differences, squares and sums) is off
    from ||x - c_k||^2 by at most g_{D+2} R^2.  Both are below
        S = 2 (D + 2) eps R^2 + (D + 2) * smallest_subnormal,
    which is four times g_{D+2} R^2 to first order; the margin covers
    rounding in R and in the threshold, and the last term covers gradual
    underflow.  If k* minimises the direct form and m the screen, then
    true(k*) <= true(m) + 2S, hence s_k* <= s_m + 4S.  So every
    direct-form minimiser lies among the codewords within 4S of the row's
    screen minimum, and only those are evaluated.  Inputs must be finite;
    a row whose threshold overflows evaluates every codeword.
    """
    n, dim = x.shape
    k = c.shape[0]
    c_sq = np.einsum("kd,kd->k", c, c)
    screen_w = -2.0 * c.T                # exact: scaling by 2 does not round
    radius = np.sqrt(np.einsum("nd,nd->n", x, x)) + np.sqrt(c_sq.max())
    slack = 4.0 * (2 * (dim + 2) * _EPS * radius * radius + (dim + 2) * _TINY)
    index = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    rows_per_block = max(1, _BLOCK_ENTRIES // k)
    pairs_per_chunk = max(1, _BLOCK_ENTRIES // dim)
    for s in range(0, n, rows_per_block):
        e = min(n, s + rows_per_block)
        xb = x[s:e]
        screen = xb @ screen_w
        screen += c_sq
        best = screen.argmin(axis=1)
        rows = np.arange(e - s)
        limit = screen[rows, best] + slack[s:e]
        index[s:e] = best
        dist[s:e] = _direct_sq_dist(xb, c[best])
        # Rows whose runner-up also passes the screen need the direct form
        # on every candidate; usually these are only exact ties.
        screen[rows, best] = np.inf
        multi = np.flatnonzero(~(screen.min(axis=1) > limit))
        if not multi.size:
            continue
        cand = screen[multi] <= limit[multi, None]
        cand[np.arange(multi.size), best[multi]] = True
        cand[~np.isfinite(limit[multi])] = True
        cand_rows, cand_cols = np.nonzero(cand)
        exact = np.full(cand.shape, np.inf)
        for p in range(0, cand_rows.size, pairs_per_chunk):
            r = cand_rows[p:p + pairs_per_chunk]
            j = cand_cols[p:p + pairs_per_chunk]
            exact[r, j] = _direct_sq_dist(xb[multi[r]], c[j])
        pick = exact.argmin(axis=1)
        index[s + multi] = pick
        dist[s + multi] = exact[np.arange(multi.size), pick]
    return index, dist


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ParameterError("vectors contain NaN or infinite entries")


def vq_train(vectors: np.ndarray, k: int, iters: int, seed: int) -> Codebook:
    """Train a codebook with batch k-means.

    Initialization draws k distinct training vectors (seeded).  After each
    mean update, clusters that lost all members are re-seeded from the
    training vectors with the highest quantization distortion.  The recorded
    per-iteration mean distortion (measured at assignment time) is
    non-increasing.  Once an assignment repeats with no cluster empty, the
    centres are a fixed point: training stops there and repeats the last
    distortion up to `iters` entries, as running on would.

    Assignments and distortions come from `_nearest`, whose GEMM screen
    only prunes candidates and whose direct-difference form decides, and
    each mean sums a cluster's members in training order; the codebook is
    therefore deterministic under any BLAS threading.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ParameterError("training vectors must form a non-empty (N, dim) array")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > MAX_CODEWORDS:
        raise ConfigError(f"k={k} exceeds the supported maximum {MAX_CODEWORDS}")
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}")
    _check_finite(x)

    rng = np.random.default_rng(seed)
    # Walk a random permutation, keeping the first k pairwise-distinct
    # vectors; adding 0.0 turns -0.0 into 0.0, so rows that compare equal
    # share a key.
    centers = []
    seen = set()
    for idx in rng.permutation(x.shape[0]):
        key = (x[idx] + 0.0).tobytes()
        if key not in seen:
            seen.add(key)
            centers.append(x[idx])
            if len(centers) == k:
                break
    if len(centers) < k:
        raise ParameterError(
            f"training set has only {len(centers)} distinct vectors, need {k}")
    c = np.array(centers)

    history = []
    previous = None
    for _ in range(iters):
        assign, per_point = _nearest(x, c)
        history.append(float(per_point.mean()))
        counts = np.bincount(assign, minlength=k)
        # Fixed point: the centres are the means of the previous assignment
        # (no cluster was empty, so none was re-seeded); if it recurs, the
        # mean update reproduces them bit for bit, and so does every later
        # iteration, each recording this distortion again.
        if (previous is not None and counts.all()
                and np.array_equal(assign, previous)):
            history += history[-1:] * (iters - len(history))
            break
        previous = assign
        # Mean update.  Each cluster's members are a contiguous run of the
        # stably sorted vectors, in training order, and each run gets the
        # reduction `mean(axis=0)` runs, so means match a boolean-mask mean
        # bit for bit (`np.add.reduceat` sums in another order).
        new_c = c.copy()
        members = x[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        filled = np.nonzero(counts)[0]
        sums = [np.add.reduce(members[ends[j] - counts[j]:ends[j]], axis=0)
                for j in filled]
        new_c[filled] = np.array(sums) / counts[filled, None]
        # Empty clusters grab the worst-quantized vectors.
        empties = np.nonzero(counts == 0)[0]
        if len(empties):
            worst = np.argsort(-per_point, kind="stable")
            new_c[empties] = x[worst[:len(empties)]]
        c = new_c

    cb = Codebook(vectors=c.astype(np.float32), train_seed=seed,
                  distortion_history=history)
    return cb


def vq_encode(codebook: Codebook, vectors: np.ndarray) -> np.ndarray:
    """Map each vector to its nearest codeword index (ties: lowest index).

    Exact and BLAS-independent; see `_nearest`.
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if x.shape[1] != codebook.dim:
        raise ParameterError(
            f"vector dim {x.shape[1]} does not match codebook dim {codebook.dim}")
    _check_finite(x)
    return _nearest(x, codebook.vectors.astype(np.float64))[0]


def vq_decode(codebook: Codebook, tokens: np.ndarray) -> np.ndarray:
    t = np.asarray(tokens, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() >= codebook.size):
        raise ParameterError(
            f"token out of range [0, {codebook.size}): {t.min()}..{t.max()}")
    return codebook.vectors.astype(np.float64)[t]


def extract_patches(samples: np.ndarray, patch: int) -> np.ndarray:
    """(H, W) -> (H//p * W//p, p*p) non-overlapping patches, raster order."""
    if patch < 1:
        raise ParameterError(f"patch size must be >= 1, got {patch}")
    tiles = split_blocks(samples, patch)
    return tiles.reshape(-1, patch * patch).astype(np.float64)


def assemble_patches(patches: np.ndarray, height: int, width: int, patch: int) -> np.ndarray:
    return merge_blocks(patches.reshape(-1, patch, patch), height, width)


def tokenize(codebook: Codebook, samples: np.ndarray, patch: int) -> np.ndarray:
    """(H//p, W//p) grid of the nearest codeword to each p x p patch."""
    h, w = samples.shape
    tokens = vq_encode(codebook, extract_patches(samples, patch))
    return tokens.reshape(h // patch, w // patch)


def save_codebook(codebook: Codebook, path) -> None:
    payload = codebook.vectors.astype("<f4").tobytes()
    header = CODEBOOK_MAGIC + struct.pack(
        _HEAD_FMT, CODEBOOK_VERSION, codebook.size, codebook.dim,
        codebook.train_seed)
    with output_file(path) as fh:
        fh.write(header)
        fh.write(payload)


def load_codebook(path) -> Codebook:
    with open(path, "rb") as fh:
        data = fh.read()
    (k, dim, seed), start = read_header(data, CODEBOOK_MAGIC, _HEAD_FMT,
                                        CODEBOOK_VERSION, "codebook")
    need = k * dim * 4
    if len(data) - start != need:
        raise FormatError(
            f"codebook: payload holds {len(data) - start} bytes, expected {need}")
    vec = np.frombuffer(data, dtype="<f4", count=k * dim, offset=start)
    try:
        return Codebook(vectors=vec.reshape(k, dim).copy(), train_seed=seed)
    except (ConfigError, ParameterError) as exc:
        raise FormatError(str(exc)) from exc
