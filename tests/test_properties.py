"""Property tests of the invariants every caller relies on: unit-modulus
reflections, a normalized score in [-1, 1] and a state in [-1, 1].

The projections hold for coefficients whose modulus is a normal float, and
the normalized score for samples whose squares are: z / |z| is inf for a
subnormal modulus and 0 for one that overflows, and squares that overflow or
underflow make the energy infinite or zero. Agent actions lie in [-1, 1] and
received pulses near 1e-4, far inside both ranges.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riseq.arise import normalize_reflection
from riseq.env import action_to_reflection, pulse_objective_norm, state_from_pulse

# no deadline on a shared machine, and no example database left behind
relaxed = settings(deadline=None, database=None)

# Exact zeros are drawn often, so zero pairs and zero main taps come up.
normal_coords = st.one_of(st.just(0.0), st.floats(-1e300, 1e300, allow_subnormal=False))
square_safe = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


def unit_modulus(z) -> bool:
    return bool(np.all(np.abs(np.abs(z) - 1.0) <= 1e-12))


@relaxed
@given(arrays(float, st.integers(1, 16).map(lambda n: 2 * n), elements=normal_coords))
@example(np.zeros(4))
def test_action_to_reflection_is_unit_modulus(action):
    out = action_to_reflection(action)
    assert out.shape == (action.size // 2,) and unit_modulus(out)


@relaxed
@given(arrays(float, st.tuples(st.integers(1, 16), st.just(2)), elements=normal_coords))
def test_normalize_reflection_is_unit_modulus(parts):
    assert unit_modulus(normalize_reflection(parts[:, 0] + 1j * parts[:, 1]))


def pulses(elements):
    return arrays(float, st.tuples(st.integers(1, 24), st.just(2)), elements=elements).map(
        lambda parts: parts[:, 0] + 1j * parts[:, 1]).filter(lambda y: np.any(y != 0))


@relaxed
@given(pulses(square_safe))
# a zero main tap: the two ISI sums round apart, and unclamped this gives
# -1.0000000000000002
@example(0.1 * np.array([0, -6 - 7j, 9j, -5 + 5j, -9 + 9j, 5 - 8j, -8 + 4j, -4 - 4j, 1j]))
def test_normalized_objective_in_unit_interval(y):
    assert -1.0 <= pulse_objective_norm(y) <= 1.0


@relaxed
@given(pulses(st.floats(allow_nan=False, allow_infinity=False)))
def test_state_in_unit_box(y):
    state = state_from_pulse(y)
    assert state.shape == (2 * y.size,) and np.all(np.abs(state) <= 1.0)
