"""Property tests of the invariants every caller relies on: unit-modulus
reflections, a normalized score in [-1, 1], a state in [-1, 1], an exact
INI round-trip and seed-deterministic runs.

The projections hold for every finite coefficient, subnormal and
overflowing moduli included. The normalized score holds for samples whose
squares are normal floats: squares that overflow or underflow make the
energy infinite or zero. Received pulses lie near 1e-4, far inside that
range.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riseq.agents import AgentHyperparams
from riseq.arise import AriseConfig, normalize_reflection
from riseq.channels import FadingParams, Geometry
from riseq.env import (EpisodeConfig, action_to_reflection, pulse_objective_norm,
                       state_from_pulse)
from riseq.experiments import (ALGORITHMS, ScenarioConfig, parse_config, render_config,
                               run_scenario)

# no deadline on a shared machine, and no example database left behind
relaxed = settings(deadline=None, database=None)

# Exact zeros are drawn often, so zero pairs and zero main taps come up.
finite_coords = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))
square_safe = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


def unit_modulus(z) -> bool:
    return bool(np.all(np.abs(np.abs(z) - 1.0) <= 1e-12))


@relaxed
@given(arrays(float, st.integers(1, 16).map(lambda n: 2 * n), elements=finite_coords))
@example(np.zeros(4))
@example(np.array([1e-320, 0.0]))  # subnormal modulus
@example(np.array([1.7e308, 1.7e308]))  # the modulus overflows
def test_action_to_reflection_is_unit_modulus(action):
    out = action_to_reflection(action)
    assert out.shape == (action.size // 2,) and unit_modulus(out)


@relaxed
@given(arrays(float, st.tuples(st.integers(1, 16), st.just(2)), elements=finite_coords))
@example(np.array([[5e-324, 0.0]]))
@example(np.array([[1.7e308, 1.7e308]]))
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


SECTIONS = {"geometry": Geometry, "fading": FadingParams, "episode": EpisodeConfig,
            "arise": AriseConfig, "agent": AgentHyperparams}
RUN_FIELDS = ("algorithm", "episodes", "seed", "noise", "move_ue")
odd_floats = st.one_of(st.sampled_from([0.1, 1e-300, 5e-324, -0.0, 1.7e308]),
                       st.floats(allow_nan=False))


def values_like(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 2**62)
    if isinstance(default, float):
        return odd_floats
    if isinstance(default, tuple):
        return st.tuples(*[odd_floats] * len(default))
    return st.sampled_from(ALGORITHMS)  # run.algorithm, the one text field


@st.composite
def valid_configs(draw):
    """A config with a value drawn for every field of every section. A value
    the config rejects is dropped, and the field keeps its earlier value."""
    cfg = ScenarioConfig()
    slots = [(section, f.name) for section, cls in SECTIONS.items() for f in fields(cls)]
    for section, name in slots + [(None, name) for name in RUN_FIELDS]:
        owner = cfg if section is None else getattr(cfg, section)
        value = draw(values_like(getattr(owner, name)))
        try:
            changed = replace(owner, **{name: value})
            cfg = changed if section is None else replace(cfg, **{section: changed})
        except ValueError:
            pass
    return cfg


@relaxed
@given(valid_configs())
@example(ScenarioConfig(geometry=Geometry(element_spacing=5e-324, carrier_freq=0.1),
                        fading=FadingParams(kappa=1e-300, noise_dbm=-0.0)))
def test_ini_round_trip_is_exact(cfg):
    text = render_config(cfg)
    assert parse_config(text) == cfg
    assert render_config(parse_config(text)) == text  # keeps the sign of a zero too


@st.composite
def small_configs(draw, algorithm):
    batch_size = draw(st.integers(1, 4))
    return ScenarioConfig(
        geometry=Geometry(n_elements=draw(st.integers(1, 8))),
        fading=FadingParams(kappa=draw(st.floats(0.0, 100.0)),
                            n_delayed=draw(st.integers(0, 3))),
        episode=EpisodeConfig(n_steps=draw(st.integers(1, 20))),
        arise=AriseConfig(max_iters=draw(st.integers(1, 20))),
        agent=AgentHyperparams(n_train=draw(st.integers(1, 4)), batch_size=batch_size,
                               buffer_size=draw(st.integers(batch_size, 20)),
                               hidden_width=draw(st.integers(1, 16))),
        algorithm=algorithm, episodes=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32 - 1)), noise=draw(st.booleans()),
        move_ue=draw(st.booleans()))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(relaxed, max_examples=5)
@given(data=st.data())
def test_run_scenario_is_seed_deterministic(algorithm, data):
    cfg = data.draw(small_configs(algorithm))

    def rows():
        # repr spells every float exactly, NaN included
        return [repr(replace(r, wall_time=0.0)) for r in run_scenario(cfg)]

    assert rows() == rows()
