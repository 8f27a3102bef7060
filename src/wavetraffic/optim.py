"""Adam optimizer with bias correction over named parameter stores."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, TrainingError

__all__ = ["AdamState", "adam_step"]

# moment decay rates and denominator floor of Kingma & Ba's defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators plus the learning rate."""

    lr: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns the updated parameter dict.

    ``params`` is left untouched; ``state`` moments are updated in place
    and the step counter incremented.
    """
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"adam_step: gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
            )
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return out
