"""Distance-based static graph: thresholded Gaussian kernel and row forms.

Edge weight between sensors i and j is exp(-(d_ij/sigma)^2) with sigma the
population std of the finite off-diagonal distances; weights below the
sparsity threshold kappa are dropped. The self-distance 0 gives a diagonal
of exp(0)=1, which survives any kappa < 1 and keeps every row sum positive.
"""
from __future__ import annotations

import numpy as np

from .data import exact_header, read_csv, write_csv
from .errors import DegenerateInputError, DimensionError
from .tensor import Tensor


class StaticGraph:
    """Weighted adjacency plus row-normalized forward/backward propagation forms."""

    def __init__(self, adjacency):
        a = np.asarray(adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError("adjacency must be square; got shape %r" % (a.shape,))
        self.n_nodes = a.shape[0]
        self.adjacency = a
        self.forward_norm = normalize_static(a)
        self.backward_norm = normalize_static(a.T)
        self._tensor_cache = {}

    def norm_pair(self, dtype=np.float64):
        """Constant (forward, backward) tensors for convolution, cached per dtype."""
        key = np.dtype(dtype).name
        if key not in self._tensor_cache:
            self._tensor_cache[key] = (
                Tensor(self.forward_norm.astype(dtype)),
                Tensor(self.backward_norm.astype(dtype)),
            )
        return self._tensor_cache[key]


def build_adjacency(distances, kappa: float = 0.1) -> StaticGraph:
    """Gaussian-kernel adjacency from a distance matrix.

    distances: square nonnegative matrix, zero diagonal, inf for unreachable
    pairs. kappa in (0,1), checked by the config loader, controls sparsity:
    entries with kernel value below kappa are zeroed.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionError("distances must be square; got shape %r" % (d.shape,))
    n = d.shape[0]
    if n < 2:
        raise DegenerateInputError("need at least 2 nodes; got %d" % n)
    if np.any(np.diagonal(d) != 0.0):
        raise DegenerateInputError("self-distances must be zero")
    finite = d[np.isfinite(d)]
    if np.any(finite < 0):
        raise DegenerateInputError("distances must be nonnegative")
    off = d[~np.eye(n, dtype=bool)]
    off = off[np.isfinite(off)]
    if off.size == 0:
        raise DegenerateInputError("no finite off-diagonal distances")
    sigma = float(off.std())
    if sigma == 0.0:
        raise DegenerateInputError("all distances identical; kernel width undefined")
    with np.errstate(over="ignore"):
        w = np.exp(-np.square(d / sigma))
    # inf distance -> kernel 0, always below kappa
    a = np.where(w >= kappa, w, 0.0)
    return StaticGraph(a)


def normalize_static(a) -> np.ndarray:
    """Row-normalize a square nonnegative matrix: out[i,j] = a[i,j] / rowsum(i)."""
    rows = a.sum(axis=1)
    bad = np.flatnonzero(rows <= 0.0)
    if bad.size:
        raise DegenerateInputError("row %d has non-positive sum" % int(bad[0]))
    return a / rows[:, None]


# -- distance CSV interface ----------------------------------------------------

_CSV_HEADER = ["from", "to", "distance"]


def _distance_row(row):
    src, dst, dist = int(row[0]), int(row[1]), float(row[2])
    # written so that a NaN distance fails it
    if src < 0 or dst < 0 or not dist >= 0:
        raise ValueError("ids and distance must be >= 0; got %s" % ",".join(row))
    return src, dst, dist


def load_distance_csv(path) -> np.ndarray:
    """Read `from,to,distance` rows into a dense matrix, inf for absent pairs;
    the node count is one more than the largest id."""
    entries = read_csv(path, exact_header(_CSV_HEADER), _distance_row)
    max_id = max((max(src, dst) for src, dst, _ in entries), default=-1)
    if max_id < 0:
        raise DegenerateInputError("%s: no edges" % path)
    n = max_id + 1
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for src, dst, dist in entries:
        d[src, dst] = dist
    return d


def write_distance_csv(path, distances):
    d = np.asarray(distances)
    n = d.shape[0]
    write_csv(path, _CSV_HEADER, ([i, j, repr(float(d[i, j]))]
                                  for i in range(n) for j in range(n)
                                  if i != j and np.isfinite(d[i, j])))
