"""Loss concealment for token grids.

Missing cells are filled by the same neighborhood count model that drives
entropy coding, turned around as a predictor: each missing cell gets the
most probable token given its currently-available 4-neighborhood.  The
default schedule fills the most confident cell first and feeds the filled
value back as context for its neighbors; a plain raster schedule is kept
as an ablation option.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .context import ABSENT, NEIGHBOR_OFFSETS, NeighborhoodModel
from .errors import ParameterError


@dataclass
class TokenGrid:
    """2-D token field plus a per-cell missing mask."""

    tokens: np.ndarray
    missing: np.ndarray
    alphabet: int

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.missing = np.asarray(self.missing, dtype=bool)
        if self.tokens.ndim != 2:
            raise ParameterError("token grid must be 2-D")
        if self.tokens.shape != self.missing.shape:
            raise ParameterError("tokens and missing mask must share one shape")
        present = self.tokens[~self.missing]
        if present.size and (present.min() < 0 or present.max() >= self.alphabet):
            raise ParameterError("present tokens outside alphabet range")

    @property
    def shape(self):
        return self.tokens.shape

    def copy(self) -> "TokenGrid":
        return TokenGrid(self.tokens.copy(), self.missing.copy(), self.alphabet)


def strided_assignment(rows: int, cols: int, num_packets: int) -> np.ndarray:
    """Map cell (r, c) to packet (r + c) % P.

    Diagonal striding guarantees that no two cells of one packet are
    4-adjacent once P >= 2, so a single packet loss leaves every hole with
    live neighbors to predict from.
    """
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be positive")
    if num_packets < 1:
        raise ParameterError(f"num_packets must be >= 1, got {num_packets}")
    r = np.arange(rows).reshape(-1, 1)
    c = np.arange(cols).reshape(1, -1)
    return ((r + c) % num_packets).astype(np.int64)


def apply_loss_mask(grid: TokenGrid, lost_packets, assignment: np.ndarray) -> TokenGrid:
    """Mark every cell of each lost packet as missing."""
    assignment = np.asarray(assignment)
    if assignment.shape != grid.shape:
        raise ParameterError("assignment map must cover the grid exactly")
    lost = set(int(p) for p in lost_packets)
    known = set(np.unique(assignment).tolist())
    unknown = lost - known
    if unknown:
        raise ParameterError(f"lost packet ids not in assignment: {sorted(unknown)}")
    out = grid.copy()
    if lost:
        out.missing |= np.isin(assignment, sorted(lost))
    return out


def marginal_fill(grid: TokenGrid, model: NeighborhoodModel) -> TokenGrid:
    """Context-free baseline: every hole gets the global modal token."""
    if model.alphabet != grid.alphabet:
        raise ParameterError("model and grid alphabets differ")
    out = grid.copy()
    out.tokens[out.missing] = model.predict((ABSENT,) * model.arity)[0]
    out.missing[:] = False
    return out


def conceal(grid: TokenGrid, model: NeighborhoodModel,
            schedule: str = "confidence") -> TokenGrid:
    """Fill all missing cells from the neighborhood model.

    schedule="confidence": repeatedly fill the cell whose predicted token
    has the highest model weight (ties: raster order), then update its
    neighbors' contexts with the new value.  schedule="raster": one fixed
    left-right top-down pass, for ablation.
    """
    if model.alphabet != grid.alphabet:
        raise ParameterError("model and grid alphabets differ")
    if schedule not in ("confidence", "raster"):
        raise ParameterError(f"unknown schedule {schedule!r}")

    out = grid.copy()
    rows, cols = out.shape
    # The grid in a one-cell ABSENT frame, flattened: cell (r, c) is
    # (r + 1) * width + c + 1, its neighbors lie a fixed step away in
    # context order, and a frame or missing cell reads as ABSENT.  The
    # padded index orders cells as the raster index does.
    width = cols + 2
    missing = np.pad(out.missing, 1)
    known = np.pad(np.where(out.missing, ABSENT, out.tokens), 1,
                   constant_values=ABSENT).ravel().tolist()
    up, left, right, down = (dr * width + dc for dr, dc in NEIGHBOR_OFFSETS)
    holes = np.flatnonzero(missing).tolist()

    def predict(j: int) -> tuple[int, int]:
        return model.predict((known[j + up], known[j + left],
                              known[j + right], known[j + down]))

    if schedule == "raster":
        for j in holes:
            known[j] = predict(j)[0]
    else:
        # Confidence-first: lazy max-heap keyed by (-weight, cell index).
        # Stale entries are skipped via a per-cell version counter; every
        # version bump pushes a fresh entry, so no live cell is ever dropped.
        hole = missing.ravel().tolist()
        version = [0] * len(known)
        heap = []
        for j in holes:
            tok, weight = predict(j)
            heap.append((-weight, j, 0, tok))
        heapq.heapify(heap)
        while heap:
            _, j, ver, tok = heapq.heappop(heap)
            if not hole[j] or ver != version[j]:
                continue
            known[j] = tok
            hole[j] = False
            for n in (j + up, j + left, j + right, j + down):
                if hole[n]:
                    version[n] += 1
                    tok, weight = predict(n)
                    heapq.heappush(heap, (-weight, n, version[n], tok))

    out.tokens[:] = np.reshape(known, (rows + 2, width))[1:-1, 1:-1]
    out.missing[:] = False
    return out
