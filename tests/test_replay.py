import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepcars.replay import Batch, ReplayBuffer


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
