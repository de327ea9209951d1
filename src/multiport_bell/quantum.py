"""Quantum side of the multiport Bell experiment.

Two observers share the maximally entangled pair (1/sqrt(N)) sum_m |m>|m>.
Each one sends their particle through a phase shifter on every input port
followed by an unbiased N-port beamsplitter, whose transition matrix is the
unitary Fourier matrix.  Detectors are indexed 0..N-1 and detector ``a`` is
ascribed the complex outcome value gamma**a with gamma = exp(2j*pi/N), so
the two-party correlation function is the gamma**(a+b) weighted sum of the
coincidence probabilities.

Noise enters only as the fraction F of the totally chaotic (uniform) state
mixed into the pure pair; it rescales every correlation value by 1 - F and
pulls every joint probability towards 1/N**2.

Both quantum points are built for every settings pair at once, row
i*n_bob + j for (i, j); the per-pair functions check indices and read one.
All operations are pure and deterministic; returned arrays are fresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

PhaseVector = tuple[float, ...]


def _require_dimension(dimension: int) -> None:
    if not isinstance(dimension, (int, np.integer)) or isinstance(dimension, bool):
        raise ValueError(f"dimension must be an integer, got {dimension!r}")
    if dimension < 2:
        raise ValueError(f"dimension must be at least 2, got {dimension}")


def _require_noise(noise: float) -> None:
    if not (0.0 <= noise <= 1.0):
        raise ValueError(f"noise fraction must lie in [0, 1], got {noise!r}")


def _coerce_setting(setting: Sequence[float], dimension: int, label: str) -> PhaseVector:
    phases = tuple(map(float, setting))
    if len(phases) != dimension:
        raise ValueError(
            f"{label}: expected {dimension} phases, got {len(phases)}"
        )
    if not all(map(math.isfinite, phases)):
        raise ValueError(f"{label}: phases must be finite, got {phases}")
    return phases


@dataclass(frozen=True)
class ExperimentConfig:
    """Dimension N plus the lists of phase-shift settings of both observers.

    Every setting is one phase per input port, in radians.  Values outside
    [0, 2*pi) are fine; only phase differences matter.
    """

    dimension: int
    alice_settings: tuple[PhaseVector, ...]
    bob_settings: tuple[PhaseVector, ...]

    def __post_init__(self) -> None:
        _require_dimension(self.dimension)
        for name in ("alice_settings", "bob_settings"):
            raw = getattr(self, name)
            settings = tuple(
                _coerce_setting(s, self.dimension, f"{name}[{k}]")
                for k, s in enumerate(raw)
            )
            if not settings:
                raise ValueError(f"{name}: need at least one setting")
            object.__setattr__(self, name, settings)

    @property
    def n_alice(self) -> int:
        return len(self.alice_settings)

    @property
    def n_bob(self) -> int:
        return len(self.bob_settings)


def fourier_matrix(dimension: int) -> np.ndarray:
    """Transition matrix of an unbiased multiport: (k, l) -> gamma**(k*l)/sqrt(N)."""
    _require_dimension(dimension)
    return _fourier_phases(dimension) / math.sqrt(dimension)


def observable_unitary(setting: Sequence[float]) -> np.ndarray:
    """Multiport preceded by per-port phase shifters: U[k, l] = T[k, l] * exp(i*phi_l)."""
    raw = tuple(setting)
    _require_dimension(len(raw))
    phases = _coerce_setting(raw, len(raw), "setting")
    return fourier_matrix(len(phases)) * np.exp(1j * np.asarray(phases))[None, :]


def _check_indices(config: ExperimentConfig, alice_index: int, bob_index: int) -> None:
    if not 0 <= alice_index < config.n_alice:
        raise IndexError(f"alice setting index {alice_index} out of range")
    if not 0 <= bob_index < config.n_bob:
        raise IndexError(f"bob setting index {bob_index} out of range")


@lru_cache(maxsize=None)
def _fourier_phases(dimension: int) -> np.ndarray:
    """gamma**(s*m), indexed (s, m); read-only, shared by every caller."""
    m = np.arange(dimension)
    phases = np.exp(2j * np.pi / dimension * np.outer(m, m))
    phases.setflags(write=False)
    return phases


def _pair_terms(config: ExperimentConfig) -> np.ndarray:
    """exp(i*(phi_m + theta_m)) of every settings pair, row i*n_bob + j."""
    alice = np.array(config.alice_settings)
    bob = np.array(config.bob_settings)
    return np.exp(1j * (alice[:, None, :] + bob[None, :, :]).reshape(-1, config.dimension))


def pair_coincidences(config: ExperimentConfig) -> np.ndarray:
    """Noiseless coincidence probability by outcome sum for every settings pair.

    Entry (i*n_bob + j, s) is P(a, b) at settings (i, j) for every
    a + b = s mod N (the Born rule)
    |sum_m gamma**(m*s) * exp(i*(phi_m + theta_m))|**2 / N**3.
    """
    local = _pair_terms(config)
    amplitudes = _fourier_phases(config.dimension)[None] @ local[:, :, None]
    return np.abs(amplitudes[:, :, 0]) ** 2 / config.dimension**3


def pure_coincidence_derivatives(config: ExperimentConfig) -> np.ndarray:
    """Entry (p, s, m) is the derivative of ``pair_coincidences`` entry
    (p, s) by port m's phase of either setting of pair p; only
    phi_m + theta_m enters."""
    terms = _fourier_phases(config.dimension)[None] * _pair_terms(config)[:, None, :]
    amplitudes = terms.sum(axis=2)
    return -2.0 * np.imag(amplitudes.conj()[:, :, None] * terms) / config.dimension**3


def joint_probabilities(
    config: ExperimentConfig, alice_index: int, bob_index: int, noise: float = 0.0
) -> np.ndarray:
    """N x N coincidence table for one settings pair.

    Entry (a, b) is the probability that Alice's detector a and Bob's
    detector b fire: the pair's row of ``pair_coincidences`` at a + b mod N,
    mixed with the uniform table by the chaotic fraction ``noise``.
    """
    _check_indices(config, alice_index, bob_index)
    _require_noise(noise)
    pure = pair_coincidences(config)[alice_index * config.n_bob + bob_index]
    n = config.dimension
    m = np.arange(n)
    table = (1.0 - noise) * pure[np.add.outer(m, m) % n] + noise / n**2
    return np.maximum(table, 0.0)


def _cyclic_terms(config: ExperimentConfig) -> np.ndarray:
    """exp(i*delta_m) of every settings pair, row i*n_bob + j, where
    delta_m = phi_m - phi_{m+1} + theta_m - theta_{m+1} with indices mod N."""
    phi = np.array(config.alice_settings)[:, None, :]
    theta = np.array(config.bob_settings)[None, :, :]
    following = (np.arange(config.dimension) + 1) % config.dimension
    delta = (phi - phi[..., following]) + (theta - theta[..., following])
    return np.exp(1j * delta.reshape(-1, config.dimension))


def correlation_matrix(config: ExperimentConfig, noise: float = 0.0) -> np.ndarray:
    """Complex correlation of every settings pair as an n_alice x n_bob matrix.

    Entry (i, j) is the closed form of sum_{a,b} gamma**(a+b) P(a, b): the
    cyclic phase sum (1 - F)/N * sum_m exp(i*delta_m) of ``_cyclic_terms``.
    """
    _require_noise(noise)
    values = (1.0 - noise) * (_cyclic_terms(config).sum(axis=1) / config.dimension)
    return values.reshape(config.n_alice, config.n_bob)


def correlation_value(
    config: ExperimentConfig, alice_index: int, bob_index: int, noise: float = 0.0
) -> complex:
    """Entry (alice_index, bob_index) of ``correlation_matrix``."""
    _check_indices(config, alice_index, bob_index)
    return complex(correlation_matrix(config, noise)[alice_index, bob_index])


def correlation_derivatives(config: ExperimentConfig) -> np.ndarray:
    """Entry (p, m) is the derivative of pair p's noiseless correlation value
    by port m's phase of either setting: i/N * (exp(i*delta_m) - exp(i*delta_{m-1}))."""
    terms = _cyclic_terms(config)
    return 1j * (terms - terms[:, np.arange(config.dimension) - 1]) / config.dimension
