"""Maximal overlap discrete wavelet transform (MODWT) and its
multiresolution analysis.

The transform is undecimated with circular boundary handling, so every
coefficient series has the same length as the input and is equivariant
under circular shifts. Synthesis is the transpose pyramid, which makes
the detail/smooth components sum back to the input exactly (up to
float64 rounding). :func:`mra` returns those components as a list,
details first and the smooth last, and :func:`imodwt` sums such a list.

Filters are named: ``"haar"`` and ``"d4"`` (Daubechies' four-tap filter;
Percival & Walden, *Wavelet Methods for Time Series Analysis*, 2000).
:func:`get_filter` returns a name's unit-energy (scaling, wavelet) taps.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "get_filter",
    "modwt",
    "imodwt",
    "mra",
    "mra_matrices",
    "filter_width",
]

_SQRT2 = np.sqrt(2.0)


def _qmf(g: np.ndarray) -> np.ndarray:
    """Quadrature mirror of a scaling filter: h_l = (-1)^l g_{L-1-l}."""
    signs = (-1.0) ** np.arange(len(g))
    return signs * g[::-1]


_haar_g = np.array([1.0, 1.0]) / _SQRT2
_d4_g = np.array([1.0 + np.sqrt(3.0), 3.0 + np.sqrt(3.0),
                  3.0 - np.sqrt(3.0), 1.0 - np.sqrt(3.0)]) / (4.0 * _SQRT2)

# unit-energy base scaling (g) and wavelet (h) taps
_FILTERS = {"haar": (_haar_g, _qmf(_haar_g)), "d4": (_d4_g, _qmf(_d4_g))}
FILTER_NAMES = tuple(_FILTERS)  # the names get_filter knows, in lower case


def get_filter(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the (scaling, wavelet) taps of the filter called ``name``."""
    try:
        return tuple(taps.copy() for taps in _FILTERS[str(name).lower()])
    except KeyError:
        raise ParameterError(
            f"unknown wavelet filter {name!r}; available: {sorted(_FILTERS)}"
        ) from None


def filter_width(filt, level: int) -> int:
    """Taps of ``filt``'s composed level-J filter: (2^J - 1)(L - 1) + 1 for L base taps."""
    return (2 ** level - 1) * (len(get_filter(filt)[0]) - 1) + 1


def _check_input(u: np.ndarray, filt, level: int):
    if level < 1:
        raise ParameterError(f"decomposition level must be >= 1, got {level}")
    length = u.shape[-1]
    base = filter_width(filt, 1)  # level 1 applies the base filter itself
    if length < base:  # also an empty series
        raise DimensionError(
            f"series length {length} shorter than base filter length {base}"
        )
    widest = filter_width(filt, level)
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
    g, h = get_filter(filt)
    u = np.asarray(u, dtype=np.float64)
    _check_input(u, filt, level)
    g, h = g / _SQRT2, h / _SQRT2
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
    coeffs, v = modwt(u, filt, level)
    g, h = (taps / _SQRT2 for taps in get_filter(filt))

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
    return [c.T.copy() for c in mra(np.eye(length), filt, level)]

