"""Discrete synapse models: a metaplastic binary synapse, the stochastic
gate on its plasticity events, and the clipped gradient-descent rule of
the analog reference synapse.

The metaplastic synapse is a serial chain of 2*n_levels states.  Each state
carries a binary efficacy (low/high) plus a metalevel that counts how deep
the synapse sits on its side of the chain.  Plasticity events walk the chain
one state at a time, so the efficacy can only flip from metalevel 0 and the
deepest metalevel on each side absorbs further same-direction events.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np


class Efficacy(IntEnum):
    LOW = 0
    HIGH = 1


class UpdateDirection(Enum):
    POTENTIATE = 1
    DEPRESS = -1


@dataclass(frozen=True)
class MetaState:
    """One state of the serial chain: binary efficacy plus metalevel depth."""

    efficacy: Efficacy
    metalevel: int
    n_levels: int = 3

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {self.n_levels}")
        if not 0 <= self.metalevel < self.n_levels:
            raise ValueError(
                f"metalevel must lie in [0, {self.n_levels - 1}], got {self.metalevel}"
            )


def efficacy_of(state: MetaState) -> int:
    """Binary weight contributed by a metaplastic synapse state."""
    return int(state.efficacy)


def transition(state: MetaState, direction: UpdateDirection) -> MetaState:
    """Advance one synapse state a single step along the chain.

    Potentiation walks toward the high-efficacy end: a low synapse first
    climbs out of its metalevels, flips to high at metalevel 0, then sinks
    into ever deeper high metalevels.  Depression is the exact mirror.  The
    deepest metalevel saturates instead of wrapping.
    """
    n = state.n_levels
    eff, lvl = state.efficacy, state.metalevel
    if direction is UpdateDirection.POTENTIATE:
        if eff is Efficacy.LOW:
            if lvl > 0:
                return MetaState(Efficacy.LOW, lvl - 1, n)
            return MetaState(Efficacy.HIGH, 0, n)
        return MetaState(Efficacy.HIGH, min(lvl + 1, n - 1), n)
    else:
        if eff is Efficacy.HIGH:
            if lvl > 0:
                return MetaState(Efficacy.HIGH, lvl - 1, n)
            return MetaState(Efficacy.LOW, 0, n)
        return MetaState(Efficacy.LOW, min(lvl + 1, n - 1), n)


def stochastic_gate(
    select: np.ndarray, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Plasticity events that pass the transition-probability gate: each
    selected event independently succeeds with probability q.

    q = 1 returns ``select`` itself and never touches the RNG, so
    deterministic callers stay deterministic.
    """
    if q >= 1.0:
        return select
    return select & (rng.random(select.shape) < q)


def transition_arrays(
    eff: np.ndarray,
    lvl: np.ndarray,
    n_levels: int,
    direction: UpdateDirection,
    select: np.ndarray,
) -> None:
    """Vectorised twin of :func:`transition` acting in place on state arrays.

    ``eff`` and ``lvl`` are integer arrays of matching shape; only entries
    where ``select`` is True are updated.
    """
    if direction is UpdateDirection.POTENTIATE:
        toward, away = eff == 1, eff == 0
    else:
        toward, away = eff == 0, eff == 1
    climb = select & away & (lvl > 0)
    flip = select & away & (lvl == 0)
    sink = select & toward
    lvl[climb] -= 1
    eff[flip] = 1 if direction is UpdateDirection.POTENTIATE else 0
    np.minimum(lvl + 1, n_levels - 1, out=lvl, where=sink)


def gradient_step(
    weights: np.ndarray,
    direction: UpdateDirection,
    select: np.ndarray,
    learning_rate: float,
) -> None:
    """One clipped gradient step in place: w += lr * x * e on the selected
    weights (active input x = 1, output error e = direction), clamped to
    [0, 1]."""
    weights[select] = np.clip(weights[select] + direction.value * learning_rate, 0.0, 1.0)
