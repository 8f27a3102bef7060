"""Maximal overlap discrete wavelet transform (MODWT) and its
multiresolution analysis.

The transform is undecimated with circular boundary handling, so every
coefficient series has the same length as the input and is equivariant
under circular shifts. Synthesis is the transpose pyramid, which makes
the detail/smooth components sum back to the input exactly (up to
float64 rounding). :func:`mra` returns those components as a list,
details first and the smooth last, and :func:`imodwt` sums such a list.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "WaveletFilter",
    "HAAR",
    "D4",
    "get_filter",
    "modwt",
    "imodwt",
    "mra",
    "mra_matrices",
    "equivalent_filters",
]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class WaveletFilter:
    """Unit-energy base scaling (g) and wavelet (h) filters."""

    name: str
    scaling: np.ndarray
    wavelet: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.scaling, dtype=np.float64)
        h = np.asarray(self.wavelet, dtype=np.float64)
        object.__setattr__(self, "scaling", g)
        object.__setattr__(self, "wavelet", h)
        if g.shape != h.shape or g.ndim != 1:
            raise DimensionError("filter taps g and h must be 1-D of equal length")
        if abs(h.sum()) > 1e-12:
            raise ParameterError(f"wavelet taps of {self.name!r} do not sum to zero")
        if abs((g * g).sum() - 1.0) > 1e-12 or abs((h * h).sum() - 1.0) > 1e-12:
            raise ParameterError(f"filter taps of {self.name!r} are not unit energy")

    def __len__(self):
        return len(self.scaling)


def _qmf(g: np.ndarray) -> np.ndarray:
    """Quadrature mirror of a scaling filter: h_l = (-1)^l g_{L-1-l}."""
    signs = (-1.0) ** np.arange(len(g))
    return signs * g[::-1]


_haar_g = np.array([1.0, 1.0]) / _SQRT2
_d4_g = np.array([1.0 + np.sqrt(3.0), 3.0 + np.sqrt(3.0),
                  3.0 - np.sqrt(3.0), 1.0 - np.sqrt(3.0)]) / (4.0 * _SQRT2)

HAAR = WaveletFilter("haar", _haar_g, _qmf(_haar_g))
D4 = WaveletFilter("d4", _d4_g, _qmf(_d4_g))

_FILTERS = {"haar": HAAR, "d4": D4}


def get_filter(name) -> WaveletFilter:
    if isinstance(name, WaveletFilter):
        return name
    try:
        return _FILTERS[str(name).lower()]
    except KeyError:
        raise ParameterError(
            f"unknown wavelet filter {name!r}; available: {sorted(_FILTERS)}"
        ) from None


def _check_input(u: np.ndarray, filt: WaveletFilter, level: int):
    if level < 1:
        raise ParameterError(f"decomposition level must be >= 1, got {level}")
    length = u.shape[-1]
    if length == 0:
        raise DimensionError("cannot transform an empty series")
    base = len(filt)
    if length < base:
        raise DimensionError(
            f"series length {length} shorter than base filter length {base}"
        )
    widest = (2 ** level - 1) * (base - 1) + 1
    if widest > length:
        warnings.warn(
            f"level-{level} equivalent filter ({widest} taps) exceeds series "
            f"length {length}; wrap-around dominates the coefficients",
            stacklevel=3,
        )


def _filter_step(v: np.ndarray, taps: np.ndarray, gap: int) -> np.ndarray:
    """Circular filtering: out[t] = sum_l taps[l] * v[(t - gap*l) mod M].

    A negative ``gap`` gives the transpose (circular correlation).
    """
    out = np.zeros_like(v)
    for l, tap in enumerate(taps):
        out += tap * np.roll(v, gap * l, axis=-1)
    return out


def modwt(u, filt="haar", level: int = 2):
    """Pyramid MODWT: returns (wavelet coefficients W_1..W_J, scaling V_J).

    Works along the last axis, so batched inputs are transformed per
    series. Coefficient series keep the input length.
    """
    filt = get_filter(filt)
    u = np.asarray(u, dtype=np.float64)
    _check_input(u, filt, level)
    g = filt.scaling / _SQRT2
    h = filt.wavelet / _SQRT2
    coeffs = []
    v = u
    for j in range(1, level + 1):
        gap = 2 ** (j - 1)
        coeffs.append(_filter_step(v, h, gap))
        v = _filter_step(v, g, gap)
    return coeffs, v


def imodwt(components) -> np.ndarray:
    """Synthesis from the MRA components of :func:`mra`: their pointwise sum."""
    if not components or any(np.shape(c) != np.shape(components[-1]) for c in components):
        raise DimensionError(
            f"MRA components must share one shape, got {[np.shape(c) for c in components]}"
        )
    out = components[-1].copy()
    for d in components[:-1]:
        out = out + d
    return out


def mra(u, filt="haar", level: int = 2) -> list[np.ndarray]:
    """Multiresolution analysis along the last axis of ``u``.

    Returns J+1 arrays shaped like ``u``, details d1..dJ first and the
    smooth last, summing to ``u``. Each detail is produced by zeroing
    every coefficient band except one and running the transpose pyramid
    back to level zero.
    """
    filt = get_filter(filt)
    u = np.asarray(u, dtype=np.float64)
    coeffs, v = modwt(u, filt, level)
    g = filt.scaling / _SQRT2
    h = filt.wavelet / _SQRT2

    def _ascend(series, start_level, first_taps):
        out = _filter_step(series, first_taps, -(2 ** (start_level - 1)))
        for j in range(start_level - 1, 0, -1):
            out = _filter_step(out, g, -(2 ** (j - 1)))
        return out

    details = [_ascend(w, j, h) for j, w in enumerate(coeffs, start=1)]
    return details + [_ascend(v, level, g)]


def mra_matrices(filt, level: int, length: int) -> list[np.ndarray]:
    """The J+1 linear operators C_j with component_j(u) = C_j @ u.

    The transform is linear, so applying :func:`mra` to the identity
    yields exact dense operators; used to run the decomposition inside
    the differentiable model on short windows.
    """
    eye = np.eye(length)
    comps = mra(eye, filt, level)
    return [c.T.copy() for c in comps]


def equivalent_filters(filt, level: int):
    """Composed level-j MODWT filters (wavelet_j, scaling_j) for j=1..J.

    Built by upsampling-and-convolving the base DWT filters and dividing
    by 2^{j/2}; the direct circular convolution with these taps must
    agree with the pyramid output, which the tests exercise.
    """
    filt = get_filter(filt)
    g, h = filt.scaling, filt.wavelet
    pairs = []
    g_cascade = np.array([1.0])
    for j in range(1, level + 1):

        def _upsample(taps, factor):
            out = np.zeros((len(taps) - 1) * factor + 1)
            out[::factor] = taps
            return out

        factor = 2 ** (j - 1)
        h_j = np.convolve(g_cascade, _upsample(h, factor)) / 2 ** (j / 2.0)
        g_j = np.convolve(g_cascade, _upsample(g, factor)) / 2 ** (j / 2.0)
        pairs.append((h_j, g_j))
        g_cascade = np.convolve(g_cascade, _upsample(g, factor))
    return pairs
