"""Brute-force three-qubit reference for the analytic joint distribution.

Everything is done in the 8-dimensional Hilbert space with dense matrices:
the shared state vector, one dichotomic observable per direction, the +1/-1
eigenprojectors, and the projective joint measurement.  This module never
calls into the closed-form evaluation in ``ghz``; it exists to cross-validate
it.

The eight joint operators P_a ox P_b ox P_c are formed at once: each player's
+1 and -1 projectors are stacked, and two broadcast multiplies build all eight
8x8 operators, player A's sign slowest.  Each entry is the same complex
product of the same factors, in the same order, that numpy's Kronecker
product kron(kron(P_a, P_b), P_c) computes, so the operators equal those
products bit for bit.  One stacked matmul applies them to the state.

Qubit 1 (player A) is the most significant basis index, so basis state
|q1 q2 q3> sits at index 4*q1 + 2*q2 + q3.
"""

from __future__ import annotations

import math

import numpy as np

from .core import OUTCOMES, Direction, DirectionProfile, JointDistribution

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: Expectation values of Hermitian operators may carry this much imaginary dust.
IMAG_TOL = 1e-12

#: Each outcome's row among the eight joint operators, in OUTCOMES order: the
#: operators are stacked with sign +1 before -1 and player A slowest.
_ROWS = tuple(4 * (o.m < 0) + 2 * (o.l < 0) + (o.k < 0) for o in OUTCOMES)


def ghz_state() -> np.ndarray:
    """The shared state: amplitude 1/sqrt(2) on |000> and |111>, 0 elsewhere."""
    state = np.zeros(8, dtype=complex)
    state[0] = state[7] = 1.0 / math.sqrt(2.0)
    return state


def observable_from_direction(direction: Direction) -> np.ndarray:
    """The dichotomic observable measured along a direction: n . sigma.

    Hermitian with eigenvalues +1 and -1 for any unit direction.
    """
    return (
        direction.a1 * PAULI_X
        + direction.a2 * PAULI_Y
        + direction.a3 * PAULI_Z
    )


def eigenprojector(observable: np.ndarray, sign: int) -> np.ndarray:
    """Projector onto the +1 or -1 eigenspace: (I + sign * observable) / 2."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return (IDENTITY + sign * observable) / 2.0


def _kron_stack(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Every Kronecker product p[i] ox q[j] of two stacks of square matrices, i slowest."""
    (n, d, _), (m, e, _) = p.shape, q.shape
    return (p[:, None, :, None, :, None] * q[None, :, None, :, None, :]).reshape(n * m, d * e, d * e)


def joint_distribution_oracle(profile: DirectionProfile) -> JointDistribution:
    """Outcome probabilities via <psi| P_a ox P_b ox P_c |psi> on the GHZ state."""
    psi = ghz_state()
    pa, pb, pc = (
        np.stack([eigenprojector(obs, 1), eigenprojector(obs, -1)])
        for obs in map(observable_from_direction, (profile.a, profile.b, profile.c))
    )
    images = _kron_stack(_kron_stack(pa, pb), pc) @ psi
    probs = []
    for outcome, row in zip(OUTCOMES, _ROWS):
        amplitude = np.vdot(psi, images[row])
        if abs(amplitude.imag) > IMAG_TOL:
            raise ArithmeticError(
                f"expectation for outcome {outcome.label()} has imaginary part "
                f"{float(amplitude.imag)!r}"
            )
        probs.append(amplitude.real)
    return JointDistribution(probs)
