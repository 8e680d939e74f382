import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepcars.env import Action
from deepcars.replay import Batch, ReplayBuffer

from helpers import ACTION_CODES, NON_ACTIONS


def _t(tag, dim=3, terminal=False):
    """Positional push fields: (state, action, reward, next state, terminal)."""
    vec = np.full(dim, float(tag))
    return vec, tag % 3, 1.0 if not terminal else -1.0, vec + 0.5, terminal


def _stored(buf, ring):
    """The filled rows of one ring array, in storage order."""
    return ring[: len(buf)].tolist()


def test_ring_eviction_keeps_newest():
    buf = ReplayBuffer(capacity=2, state_dim=3)
    for tag in (1, 2, 3):
        buf.push(*_t(tag))
    assert len(buf) == 2
    tags = sorted(row[0] for row in _stored(buf, buf.states))
    assert tags == [2.0, 3.0]


def test_fill_count_saturates_at_capacity():
    buf = ReplayBuffer(capacity=8, state_dim=2)
    for tag in range(80):
        buf.push(*_t(tag, dim=2))
    assert len(buf) == 8


def test_sample_returns_only_stored_transitions():
    buf = ReplayBuffer(capacity=16, state_dim=2)
    stored = set()
    for tag in range(10):
        buf.push(*_t(tag, dim=2))
        stored.add(float(tag))
    rng = np.random.default_rng(0)
    for _ in range(50):
        batch = buf.sample(1, rng)
        assert float(batch.states[0][0]) in stored


def test_sample_empty_buffer_not_ready():
    buf = ReplayBuffer(capacity=4, state_dim=2)
    assert buf.sample(2, np.random.default_rng(0)) is None


def test_sample_with_replacement_from_single_entry():
    buf = ReplayBuffer(capacity=4, state_dim=2)
    buf.push(*_t(7, dim=2))
    batch = buf.sample(4, np.random.default_rng(1))
    assert isinstance(batch, Batch)
    assert batch.states.shape == (4, 2)
    assert np.all(batch.states == 7.0)
    assert np.all(batch.actions == 7 % 3)


def test_sampling_frequencies_uniform_within_three_sigma():
    buf = ReplayBuffer(capacity=10, state_dim=1)
    for tag in range(10):
        buf.push(*_t(tag, dim=1))
    rng = np.random.default_rng(42)
    draws = 100_000
    counts = np.zeros(10)
    batch = buf.sample(draws, rng)
    for v in batch.states[:, 0]:
        counts[int(v)] += 1
    expected = draws / 10
    sigma = np.sqrt(draws * 0.1 * 0.9)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_sampling_is_seed_deterministic():
    buf = ReplayBuffer(capacity=8, state_dim=1)
    for tag in range(8):
        buf.push(*_t(tag, dim=1))
    a = buf.sample(32, np.random.default_rng(9)).states
    b = buf.sample(32, np.random.default_rng(9)).states
    assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=12),
    tags=st.lists(st.integers(min_value=0, max_value=999), max_size=60),
)
def test_ring_semantics_property(capacity, tags):
    buf = ReplayBuffer(capacity=capacity, state_dim=1)
    for tag in tags:
        buf.push(*_t(tag, dim=1))
    assert len(buf) == min(len(tags), capacity)
    kept = sorted(float(t) for t in tags[-capacity:])
    got = sorted(row[0] for row in _stored(buf, buf.states))
    assert got == kept


def test_terminal_flags_roundtrip():
    buf = ReplayBuffer(capacity=4, state_dim=1)
    buf.push(*_t(0, dim=1, terminal=True))
    buf.push(*_t(1, dim=1, terminal=False))
    assert _stored(buf, buf.terminals) == [True, False]
    assert _stored(buf, buf.rewards) == [-1.0, 1.0]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0, state_dim=1)


def _bits(rng, dim):
    """A 0/1 state as float64, as the DQN encoder gives it."""
    return (rng.random(dim) < 0.5).astype(np.float64)


def _snapshot(buf):
    rings = (buf.states, buf.actions, buf.rewards, buf.next_states, buf.terminals)
    return [ring.copy() for ring in rings], buf._cursor, len(buf)


def _assert_unchanged(buf, snap):
    rings, cursor, fill = _snapshot(buf)
    assert (cursor, fill) == snap[1:]
    for ring, before in zip(rings, snap[0]):
        assert ring.dtype == before.dtype and ring.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [(), (np.uint8,)], ids=["float64", "uint8"])
@pytest.mark.parametrize("which", ["state", "next state"])
@pytest.mark.parametrize("bad", [np.array([1.0]), np.array([2.0, 3.0, 4.0, 5.0]), np.array(2.0),
                                 np.zeros((1, 3))], ids=["short", "long", "scalar", "2d"])
def test_push_refuses_a_state_of_another_shape(dtype, which, bad):
    # a one-value state was once broadcast across the row and stored as [1, 1, 1]
    buf = ReplayBuffer(4, 3, *dtype)
    good = np.zeros(3)
    state, next_state = (bad, good) if which == "state" else (good, bad)
    with pytest.raises(ValueError, match=f"{which} has shape"):
        buf.push(state, 0, 1.0, next_state, False)
    assert len(buf) == 0 and not buf.states.any() and not buf.next_states.any()


@pytest.mark.parametrize("which", ["state", "next state"])
@pytest.mark.parametrize("value", [0.5, -1.0, 256.0, np.nan, np.inf, -np.inf, 1e300, -1, 256])
def test_uint8_store_refuses_a_value_it_cannot_hold_and_keeps_a_full_ring(which, value):
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(4, 6, np.uint8)
    for tag in range(6):  # wrapped: the slot under the cursor holds the oldest live row
        buf.push(_bits(rng, 6), tag % 3, float(tag), _bits(rng, 6), tag % 2 == 0)
    snap = _snapshot(buf)
    bad = np.zeros(6, dtype=type(value))
    bad[4] = value
    state, next_state = (bad, _bits(rng, 6)) if which == "state" else (_bits(rng, 6), bad)
    with pytest.raises(ValueError, match=rf"{which} value {re.escape(repr(value))} .*uint8"):
        buf.push(state, 2, 1.0, next_state, True)
    _assert_unchanged(buf, snap)


def test_uint8_store_refuses_a_state_of_another_shape_and_keeps_a_full_ring():
    rng = np.random.default_rng(6)
    buf = ReplayBuffer(3, 5, np.uint8)
    for tag in range(4):
        buf.push(_bits(rng, 5), tag % 3, 1.0, _bits(rng, 5), False)
    snap = _snapshot(buf)
    for state, next_state in ((_bits(rng, 4), _bits(rng, 5)), (_bits(rng, 5), _bits(rng, 6))):
        with pytest.raises(ValueError, match="has shape"):
            buf.push(state, 1, -1.0, next_state, True)
        _assert_unchanged(buf, snap)


@pytest.mark.parametrize("dtype", [(), (np.uint8,)], ids=["float64", "uint8"])
@pytest.mark.parametrize("field,value", [
    *(("action", v) for v in (7.9, 1.0, -1, 3, np.int64(3), True, "1", None)),
    *(("reward", v) for v in (np.nan, np.inf, -np.inf, np.float32(np.nan), "1.0", None, 1j)),
    *(("terminal", v) for v in ("yes", 1, 0, 1.0, None, np.int64(1))),
    *(("reward", v) for v in (True, False, np.bool_(True))),
])
def test_push_refuses_a_field_out_of_its_kind_and_keeps_a_full_ring(dtype, field, value):
    # each was once stored as given: 7.9 as action 7, -1 as the last action, "yes" as True,
    # a reward of True as 1.0
    rng = np.random.default_rng(7)
    buf = ReplayBuffer(3, 4, *dtype)
    for tag in range(5):
        buf.push(_bits(rng, 4), tag % 3, float(tag), _bits(rng, 4), tag % 2 == 0)
    snap = _snapshot(buf)
    fields = {"action": 1, "reward": -1.0, "terminal": True, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        buf.push(_bits(rng, 4), fields["action"], fields["reward"], _bits(rng, 4),
                 fields["terminal"])
    _assert_unchanged(buf, snap)


def test_push_takes_numpy_and_enum_fields():
    buf = ReplayBuffer(4, 1)
    for action, reward, terminal in ((np.int64(2), np.float32(0.5), np.bool_(True)),
                                     (Action.LEFT, -1, False), (np.uint8(1), np.int64(3), True)):
        buf.push(np.zeros(1), action, reward, np.zeros(1), terminal)
    assert _stored(buf, buf.actions) == [2, 0, 1]
    assert _stored(buf, buf.rewards) == [0.5, -1.0, 3.0]
    assert _stored(buf, buf.terminals) == [True, False, True]


@pytest.mark.parametrize("action", NON_ACTIONS, ids=repr)
def test_push_refuses_each_non_action_and_keeps_a_full_ring(action):
    rng = np.random.default_rng(8)
    buf = ReplayBuffer(3, 4, np.uint8)
    for tag in range(5):
        buf.push(_bits(rng, 4), tag % 3, float(tag), _bits(rng, 4), False)
    snap = _snapshot(buf)
    with pytest.raises(ValueError, match=r"^action must be an integer in 0 \.\. 2, got "):
        buf.push(_bits(rng, 4), action, 1.0, _bits(rng, 4), True)
    _assert_unchanged(buf, snap)


def test_push_stores_each_action_code_of_any_integer_type():
    buf = ReplayBuffer(len(ACTION_CODES), 1)
    for code in ACTION_CODES:
        buf.push(np.zeros(1), code, 1.0, np.zeros(1), False)
    assert _stored(buf, buf.actions) == [int(code) for code in ACTION_CODES]


def test_uint8_store_takes_every_value_it_holds_exactly():
    buf = ReplayBuffer(2, 4, np.uint8)
    for state in (np.array([0.0, 1.0, 255.0, -0.0]), np.array([0, 1, 255, 7]),
                  np.array([True, False, True, True])):
        buf.push(state, 0, 1.0, state, False)
        assert buf.states[(buf._cursor - 1) % 2].tolist() == np.asarray(state, float).tolist()


def test_float64_store_holds_any_float():
    buf = ReplayBuffer(2, 3)
    buf.push(np.array([0.5, np.nan, -np.inf]), 0, 1.0, np.array([-1.0, 256.0, 1e300]), False)
    assert buf.states[0].tobytes() == np.array([0.5, np.nan, -np.inf]).tobytes()
    assert buf.next_states[0].tolist() == [-1.0, 256.0, 1e300]


@pytest.mark.parametrize("capacity,pushes", [(50, 30), (50, 175)], ids=["filling", "wrapped"])
def test_uint8_store_samples_the_float64_batches_of_a_float64_store(capacity, pushes):
    rng = np.random.default_rng(11)
    stores = ReplayBuffer(capacity, 43, np.uint8), ReplayBuffer(capacity, 43)
    for tag in range(pushes):
        transition = (_bits(rng, 43), tag % 3, (1.0, -1.0)[tag % 7 == 0], _bits(rng, 43),
                      tag % 7 == 0)
        for buf in stores:
            buf.push(*transition)
    assert stores[0].states.nbytes * 8 == stores[1].states.nbytes
    for seed in range(5):
        small, wide = (buf.sample(32, np.random.default_rng(seed)) for buf in stores)
        for got, want in zip(small, wide):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert small.states.dtype == small.next_states.dtype == np.float64
