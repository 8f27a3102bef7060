"""Spatial graph construction: transport-based node distances, the
sparse relevance mask and the scaled Laplacian.

A :class:`GraphBundle` holds only what the training data determines. The
Chebyshev basis depends on the model's order as well, so the model builds
it from the bundle's Laplacian with :func:`chebyshev_basis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "StadMatrix",
    "StrgMask",
    "ScaledLaplacian",
    "GraphBundle",
    "stad_distance",
    "build_stad",
    "sparsify",
    "build_stag",
    "scaled_laplacian",
    "chebyshev_basis",
    "build_graph_bundle",
]


@dataclass
class StadMatrix:
    """Similarity adjacency A[i,j] = 1 - distance(i,j), unit diagonal."""

    adjacency: np.ndarray


@dataclass
class StrgMask:
    """Binary mask keeping each node's strongest neighbors."""

    mask: np.ndarray


@dataclass
class ScaledLaplacian:
    """(2 / lambda_max) (D - A) - I, spectrum inside [-1, 1]."""

    matrix: np.ndarray


@dataclass
class GraphBundle:
    """The sensor graph as measured from the training window."""

    stad: StadMatrix
    strg: StrgMask
    a_stag: np.ndarray
    laplacian: ScaledLaplacian


def stad_distance(u, v) -> float:
    """Normalized 1-D Wasserstein-1 distance between two volume series.

    Each series is normalized to unit mass over its window; the
    transport cost (sum of absolute CDF differences) is divided by the
    maximum attainable cost, window length - 1, so the result is in
    [0, 1]. All-zero series are treated as identical to each other and
    maximally distant from anything with mass.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError(f"stad_distance: incompatible shapes {u.shape}, {v.shape}")
    if len(u) < 2:
        raise DimensionError("stad_distance: need at least two observations")
    su, sv = u.sum(), v.sum()
    if su <= 0 and sv <= 0:
        return 0.0
    if su <= 0 or sv <= 0:
        return 1.0
    diff = np.cumsum(u / su - v / sv)
    return float(np.abs(diff[:-1]).sum() / (len(u) - 1))


def build_stad(x) -> StadMatrix:
    """Pairwise distances over the rows of a node x time matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionError(f"build_stad: need an (N>=2) x time matrix, got {x.shape}")
    n = x.shape[0]
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = stad_distance(x[i], x[j])
    return StadMatrix(adjacency=1.0 - dist)


def sparsify(stad: StadMatrix, p_sp: float = 0.01) -> StrgMask:
    """Keep the N_r largest entries of each adjacency row (self always kept).

    N_r = max(1, ceil(N * p_sp)); ties at the cutoff break toward the
    lower column index.
    """
    if not 0.0 < p_sp <= 1.0:
        raise ParameterError(f"sparsify: p_sp must be in (0, 1], got {p_sp}")
    a = stad.adjacency
    n = a.shape[0]
    n_keep = max(1, math.ceil(n * p_sp))
    # one stable sort per row: self first, then larger values, ties to the lower index
    keep = np.lexsort((-a, ~np.eye(n, dtype=bool)), axis=-1)[:, :n_keep]
    mask = np.zeros((n, n))
    np.put_along_axis(mask, keep, 1.0, axis=-1)
    return StrgMask(mask=mask)


def build_stag(stad: StadMatrix, strg: StrgMask) -> np.ndarray:
    """Masked weighted adjacency, symmetrized by elementwise max."""
    masked = stad.adjacency * strg.mask
    return np.maximum(masked, masked.T)


def scaled_laplacian(a_stag) -> ScaledLaplacian:
    """Scale L = D - A so its spectrum fits in [-1, 1] for Chebyshev use.

    lambda_max is the largest eigenvalue from the dense symmetric
    eigensolver; an edgeless graph falls back to lambda_max = 2 (the
    classical normalized bound) to avoid a zero division.
    """
    a = np.asarray(a_stag, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"scaled_laplacian: need a square matrix, got {a.shape}")
    bad = np.count_nonzero(~np.isfinite(a))
    if bad:
        raise ParameterError(f"scaled_laplacian: adjacency has {bad} non-finite entries")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > 0.0:
        raise DimensionError(f"scaled_laplacian: input asymmetric by {asym:.3g}")
    if np.any(a < 0):
        raise ParameterError("scaled_laplacian: adjacency entries must be nonnegative")
    lap = np.diag(a.sum(axis=1)) - a
    lam = float(np.linalg.eigvalsh(lap).max(initial=0.0))
    if lam < 1e-12:
        lam = 2.0
    n = a.shape[0]
    scaled = (2.0 / lam) * lap - np.eye(n)
    return ScaledLaplacian(matrix=scaled)


def chebyshev_basis(lap: ScaledLaplacian, order: int) -> np.ndarray:
    """The (order, N, N) stack T_0 = I, T_1 = Lt, T_k = 2 Lt T_{k-1} - T_{k-2}."""
    if order < 1:
        raise ParameterError(f"chebyshev_basis: order must be >= 1, got {order}")
    lt = lap.matrix
    n = lt.shape[0]
    mats = [np.eye(n)]
    if order > 1:
        mats.append(lt)
    for _ in range(2, order):
        mats.append(2.0 * lt @ mats[-1] - mats[-2])
    return np.stack(mats)


def build_graph_bundle(train_x, p_sp: float = 0.01) -> GraphBundle:
    """Full graph pipeline from a training-window node x time matrix."""
    stad = build_stad(train_x)
    strg = sparsify(stad, p_sp)
    a_stag = build_stag(stad, strg)
    return GraphBundle(stad=stad, strg=strg, a_stag=a_stag, laplacian=scaled_laplacian(a_stag))
