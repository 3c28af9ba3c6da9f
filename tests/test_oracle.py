import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgames import oracle
from ghzgames.core import (
    OUTCOMES,
    Direction,
    DirectionProfile,
    JointDistribution,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
)
from support import random_direction, random_profile, unit_directions


def test_ghz_state_amplitudes():
    state = oracle.ghz_state()
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1.0 / math.sqrt(2.0)
    assert np.array_equal(state, expected)


def test_ghz_state_normalized():
    state = oracle.ghz_state()
    assert abs(np.vdot(state, state).real - 1.0) <= 1e-12


def test_ghz_state_no_overlap_with_other_basis_states():
    state = oracle.ghz_state()
    assert state[0b010] == 0.0


def test_observable_z_axis():
    assert np.array_equal(oracle.observable_from_direction(Z_AXIS), np.diag([1.0 + 0j, -1.0]))


def test_observable_x_axis():
    assert np.array_equal(
        oracle.observable_from_direction(X_AXIS),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    )


def test_observable_y_axis():
    assert np.array_equal(
        oracle.observable_from_direction(Y_AXIS),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    )


def test_observable_spectrum_random_directions():
    rng = np.random.default_rng(11)
    for _ in range(50):
        obs = oracle.observable_from_direction(random_direction(rng))
        assert np.max(np.abs(obs - obs.conj().T)) <= 1e-12
        assert abs(np.trace(obs)) <= 1e-12
        assert abs(np.linalg.det(obs) + 1.0) <= 1e-12


def test_eigenprojector_z_plus_is_ket0():
    proj = oracle.eigenprojector(oracle.observable_from_direction(Z_AXIS), 1)
    assert np.array_equal(proj, np.diag([1.0 + 0j, 0.0]))


def test_eigenprojector_x_minus():
    proj = oracle.eigenprojector(oracle.observable_from_direction(X_AXIS), -1)
    assert np.allclose(proj, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-15)


def test_eigenprojector_rejects_bad_sign():
    with pytest.raises(ValueError):
        oracle.eigenprojector(oracle.observable_from_direction(Z_AXIS), 0)


def test_projector_algebra_random_directions():
    rng = np.random.default_rng(12)
    for _ in range(50):
        obs = oracle.observable_from_direction(random_direction(rng))
        plus = oracle.eigenprojector(obs, 1)
        minus = oracle.eigenprojector(obs, -1)
        assert np.array_equal(plus + minus, np.eye(2, dtype=complex))
        assert np.max(np.abs(plus @ plus - plus)) <= 1e-12
        assert np.max(np.abs(plus @ minus)) <= 1e-12


def test_oracle_distribution_computational_basis():
    dist = oracle.joint_distribution_oracle(DirectionProfile(Z_AXIS, Z_AXIS, Z_AXIS))
    for outcome in OUTCOMES:
        expected = 0.5 if outcome.m == outcome.l == outcome.k else 0.0
        assert abs(dist[outcome] - expected) <= 1e-12


def test_oracle_distribution_all_x():
    dist = oracle.joint_distribution_oracle(DirectionProfile(X_AXIS, X_AXIS, X_AXIS))
    for outcome in OUTCOMES:
        expected = 0.25 if outcome.m * outcome.l * outcome.k == 1 else 0.0
        assert abs(dist[outcome] - expected) <= 1e-12


def test_oracle_distribution_x_y_y():
    dist = oracle.joint_distribution_oracle(DirectionProfile(X_AXIS, Y_AXIS, Y_AXIS))
    for outcome in OUTCOMES:
        expected = 0.25 if outcome.m * outcome.l * outcome.k == -1 else 0.0
        assert abs(dist[outcome] - expected) <= 1e-12


def kron_joint_operators(profile):
    """Each outcome's 8x8 joint operator as np.kron(np.kron(P_a, P_b), P_c), in OUTCOMES order."""
    projectors = []
    for direction in (profile.a, profile.b, profile.c):
        obs = oracle.observable_from_direction(direction)
        projectors.append({s: oracle.eigenprojector(obs, s) for s in (1, -1)})
    return {
        outcome: np.kron(np.kron(projectors[0][outcome.m], projectors[1][outcome.l]), projectors[2][outcome.k])
        for outcome in OUTCOMES
    }


def reference_oracle(profile):
    """The oracle with one np.kron product and one 2-D matmul per outcome.

    The library builds the eight operators in one broadcast and applies them
    in one stacked matmul; it must agree with this loop bit for bit.
    """
    psi = oracle.ghz_state()
    return JointDistribution([np.vdot(psi, op @ psi).real for op in kron_joint_operators(profile).values()])


def test_joint_operators_are_eight_dimensional_and_preserve_mass():
    rng = np.random.default_rng(13)
    psi = oracle.ghz_state()
    total = 0.0
    for op in kron_joint_operators(random_profile(rng)).values():
        assert op.shape == (8, 8)
        total += np.vdot(psi, op @ psi).real
    assert abs(total - 1.0) <= 1e-12


_signed_zeros = st.sampled_from([0.0, -0.0])


def _axis(index, sign, zeros):
    components = list(zeros)
    components.insert(index, sign)
    return Direction(*components)


#: The six signed axes, once with +0.0 and once with -0.0 in the other two components.
AXES = [_axis(index, sign, (zero, zero)) for index in range(3) for sign in (1.0, -1.0) for zero in (0.0, -0.0)]


def _in_plane(index, angle, zero):
    components = [math.cos(angle), math.sin(angle)]
    components.insert(index, zero)
    return Direction(*components)


_oracle_directions = st.one_of(
    unit_directions,
    st.builds(_axis, st.integers(0, 2), st.sampled_from([1.0, -1.0]), st.tuples(_signed_zeros, _signed_zeros)),
    st.builds(_in_plane, st.integers(0, 2), st.floats(0.0, 2.0 * math.pi), _signed_zeros),
)


@settings(max_examples=300)
@given(st.builds(DirectionProfile, _oracle_directions, _oracle_directions, _oracle_directions))
def test_oracle_equals_the_kron_reference_bit_for_bit(profile):
    assert repr(oracle.joint_distribution_oracle(profile)) == repr(reference_oracle(profile))


def test_oracle_equals_the_kron_reference_on_axis_profiles():
    for a, b, c in itertools.product(AXES, repeat=3):
        profile = DirectionProfile(a, b, c)
        assert repr(oracle.joint_distribution_oracle(profile)) == repr(reference_oracle(profile))


def test_imaginary_expectation_names_the_first_outcome_in_outcomes_order(monkeypatch):
    # <A> = 0.1j and <B> = -0.1j on the GHZ state, all else real: the
    # imaginary parts cancel for +++, ++-, --+ and ---, and the first other
    # outcome in OUTCOMES order is -++ (with A slowest it would be +-+).
    z = oracle.PAULI_Z
    observables = {Z_AXIS: z + 0.1j * oracle.IDENTITY, Y_AXIS: z - 0.1j * oracle.IDENTITY, X_AXIS: oracle.PAULI_X}
    monkeypatch.setattr(oracle, "observable_from_direction", observables.__getitem__)
    profile = DirectionProfile(Z_AXIS, Y_AXIS, X_AXIS)
    psi = oracle.ghz_state()
    assert abs(np.vdot(psi, kron_joint_operators(profile)[OUTCOMES[0]] @ psi).imag) <= oracle.IMAG_TOL
    with pytest.raises(ArithmeticError) as raised:
        oracle.joint_distribution_oracle(profile)
    prefix = "expectation for outcome -++ has imaginary part "
    message = str(raised.value)
    assert message.startswith(prefix)
    # The rest is a plain float, as repr writes it, of about -0.025.
    imag = message[len(prefix):]
    assert imag == repr(float(imag))
    assert float(imag) == pytest.approx(-0.025, abs=1e-12)
