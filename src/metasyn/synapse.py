"""Discrete synapse models: a metaplastic binary synapse, the stochastic
gate on its plasticity events, and the clipped gradient-descent rule of
the analog reference synapse.

The metaplastic synapse is a serial chain of 2*n_levels states.  Each state
carries a binary efficacy (low/high) plus a metalevel that counts how deep
the synapse sits on its side of the chain.  Plasticity events walk the chain
one state at a time, so the efficacy can only flip from metalevel 0 and the
deepest metalevel on each side absorbs further same-direction events.

Arrays of synapses store each state as its chain index (:func:`chain_index`),
the same index the memristor realises as its ascending conductance plateaus.
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


def transition(state: MetaState, direction: UpdateDirection) -> MetaState:
    """Advance one synapse state a single step along the chain: the n = 1
    view of :func:`transition_arrays`.

    Potentiation walks toward the high-efficacy end: a low synapse first
    climbs out of its metalevels, flips to high at metalevel 0, then sinks
    into ever deeper high metalevels.  Depression is the exact mirror.  The
    deepest metalevel saturates instead of wrapping.
    """
    index = np.array([chain_index(state)], dtype=np.int64)
    transition_arrays(index, state.n_levels, direction, np.ones(1, dtype=bool))
    return chain_state(int(index[0]), state.n_levels)


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


def chain_index(state: MetaState) -> int:
    """Position of a state on the chain: 0 is the deepest low state, 2n-1
    the deepest high state, and the efficacy is high from index n on."""
    n = state.n_levels
    return n + state.metalevel if state.efficacy else n - 1 - state.metalevel


def chain_state(index: int, n_levels: int) -> MetaState:
    """The state at one chain index; the inverse of :func:`chain_index`."""
    if index >= n_levels:
        return MetaState(Efficacy.HIGH, index - n_levels, n_levels)
    return MetaState(Efficacy.LOW, n_levels - 1 - index, n_levels)


def transition_arrays(
    state: np.ndarray,
    n_levels: int,
    direction: UpdateDirection,
    select: np.ndarray,
) -> None:
    """One step along the chain for an array of synapses, in place on their
    chain indices.

    On the chain index a step is a saturating +1 (potentiate) or -1
    (depress); only entries where ``select`` is True move, and an entry at
    the end it steps toward stays there, so the widest chain's top index
    cannot wrap.
    """
    if direction is UpdateDirection.POTENTIATE:
        np.add(state, 1, out=state, where=select & (state < 2 * n_levels - 1))
    else:
        np.subtract(state, 1, out=state, where=select & (state > 0))


def gradient_step(
    weights: np.ndarray,
    direction: UpdateDirection,
    select: np.ndarray,
    learning_rate: float,
) -> None:
    """One clipped gradient step in place: w += lr * x * e on the selected
    weights (active input x = 1, output error e = direction), clamped to
    [0, 1]."""
    stepped = weights[select]
    stepped += direction.value * learning_rate
    weights[select] = _clamp_unit(stepped)


# As ufunc operands, 0-d arrays cost numpy less per call than Python floats
# of the same value, and give the same bits.
_ZERO, _ONE = np.array(0.0), np.array(1.0)


def _clamp_unit(v):
    """np.clip(v, 0.0, 1.0) in place, bit for bit, -0.0 and NaN included, at
    about half its call cost; the argument order of the maximum keeps -0.0."""
    return np.minimum(np.maximum(_ZERO, v, out=v), _ONE, out=v)
