import math
import warnings

import numpy as np
import pytest

from streamstab import (GrayImage, MemoryState, Observation, Pose, Quaternion,
                        apply_update, associative_gradient, recall_error,
                        stream_step)
from streamstab.errors import (DimensionMismatch, EmptySet, NonFiniteResult,
                               NonUnitQuaternion)


def recall_loss(values: np.ndarray, key: np.ndarray, value: np.ndarray) -> float:
    return 0.5 * float(np.sum((values @ key - value) ** 2))


def test_state_must_be_2d():
    for values in (np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatch, match="2D"):
            MemoryState(values)


# each value in one element or in all of them: a non-finite one is rejected
# as the state is built, and any other is held as given, -0.0 too
@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 1.7e308, -1.7e308,
                               math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["one", "all"])
def test_state_awkward_values(x, where):
    values = np.arange(6.0).reshape(2, 3)
    values[(1, 2) if where == "one" else ...] = x
    if math.isfinite(x):
        assert MemoryState(values).values.tobytes() == values.tobytes()
    else:
        with pytest.raises(NonFiniteResult,
                           match="^memory state is not finite: it diverges$"):
            MemoryState(values)


# an observation whose key is not a (c,) vector or whose value is not an
# (n,) vector, against a 2 x 2 state: a 2-D key or value read as a wrong
# number, and a 0-d key or a list of the wrong length ended in a traceback
_MISSHAPEN = {"2-D key": (np.eye(2), np.ones(2)),
              "2-D value": (np.ones(2), np.eye(2)),
              "0-d key": (np.float64(1.0), np.ones(2)),
              "0-d value": (np.ones(2), 1.0),
              "short list key": ([1.0], np.ones(2)),
              "long list value": (np.ones(2), [1.0, 2.0, 3.0])}


def _through(call, state, obs):
    if call == "associative_gradient":
        return associative_gradient(state, obs)
    if call == "recall_error":
        return recall_error(state, [obs])
    pose = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    moved = Pose(np.ones(3), Quaternion.identity(), 1.0)
    return stream_step(state, pose, moved, GrayImage(np.full((8, 8), 0.5)),
                       obs)[0].values


_CALLS = ["associative_gradient", "recall_error", "stream_step"]


@pytest.mark.parametrize("key, value", _MISSHAPEN.values(), ids=_MISSHAPEN)
@pytest.mark.parametrize("call", _CALLS)
def test_misshapen_observation_rejected(call, key, value):
    with pytest.raises(DimensionMismatch,
                       match="^observation .* does not match state"):
        _through(call, MemoryState(np.eye(2)), Observation(key, value))


@pytest.mark.parametrize("call", _CALLS)
def test_list_observation_read_as_its_array(call):
    state = MemoryState(np.arange(4.0).reshape(2, 2))
    got = _through(call, state, Observation([1.0, -2.0], [0.5, 3.0]))
    want = _through(call, state, Observation(np.array([1.0, -2.0]),
                                             np.array([0.5, 3.0])))
    assert np.array_equal(got, want)


class TestAssociativeGradient:
    def test_zero_state_basis(self):
        n = 3
        state = MemoryState.zeros(n, n)
        e1 = np.eye(n)[0]
        grad = associative_gradient(state, Observation(e1, e1))
        assert np.allclose(grad, -np.outer(e1, e1))

    def test_perfect_recall_zero_gradient(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((4, 4))
        key = rng.standard_normal(4)
        grad = associative_gradient(MemoryState(values), Observation(key, values @ key))
        assert np.allclose(grad, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            values = rng.standard_normal((4, 4))
            key = rng.standard_normal(4)
            value = rng.standard_normal(4)
            grad = associative_gradient(MemoryState(values), Observation(key, value))
            h = 1e-6
            for i in range(4):
                for j in range(4):
                    plus = values.copy()
                    plus[i, j] += h
                    minus = values.copy()
                    minus[i, j] -= h
                    fd = (recall_loss(plus, key, value)
                          - recall_loss(minus, key, value)) / (2 * h)
                    assert grad[i, j] == pytest.approx(fd, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            associative_gradient(MemoryState.zeros(3, 3),
                                 Observation(np.ones(4), np.ones(3)))


class TestApplyUpdate:
    def test_gradient_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match="gradient shape"):
            apply_update(MemoryState.zeros(3, 3), np.ones((3, 4)), 0.5)

    def test_beta_zero_identity(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((5, 5))
        state = MemoryState(values)
        out = apply_update(state, rng.standard_normal((5, 5)), 0.0)
        assert np.array_equal(out.values, values)

    def test_zero_state_negates_gradient(self):
        rng = np.random.default_rng(3)
        grad = rng.standard_normal((4, 6))
        out = apply_update(MemoryState.zeros(4, 6), grad, 1.0)
        assert np.allclose(out.values, -grad)

    def test_exact_write(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            values = rng.standard_normal((8, 8))
            key = rng.standard_normal(8)
            key /= np.linalg.norm(key)
            value = rng.standard_normal(8)
            state = MemoryState(values)
            obs = Observation(key, value)
            out = apply_update(state, associative_gradient(state, obs), 1.0)
            assert np.linalg.norm(out.values @ key - value) < 1e-9

    def test_monotone_interpolation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = rng.standard_normal((6, 6))
            key = rng.standard_normal(6)
            key /= np.linalg.norm(key)
            value = rng.standard_normal(6)
            obs = Observation(key, value)
            state = MemoryState(values)
            before = np.linalg.norm(values @ key - value)
            for beta in (0.0, 0.25, 0.5, 1.0):
                out = apply_update(state, associative_gradient(state, obs), beta)
                after = np.linalg.norm(out.values @ key - value)
                assert after == pytest.approx((1.0 - beta) * before, abs=1e-9)


class TestStreamStep:
    def test_identical_poses_no_update(self):
        rng = np.random.default_rng(6)
        state = MemoryState(rng.standard_normal((4, 4)))
        pose = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        img = GrayImage(rng.uniform(size=(8, 8)))
        obs = Observation(rng.standard_normal(4), rng.standard_normal(4))
        out, beta = stream_step(state, pose, pose, img, obs)
        assert beta == 0.0
        assert np.array_equal(out.values, state.values)

    def test_zero_gradient_observation(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((4, 4))
        key = rng.standard_normal(4)
        obs = Observation(key, values @ key)
        a = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        b = Pose(np.ones(3), Quaternion.identity(), 1.0)
        img = GrayImage(rng.uniform(size=(8, 8)))
        out, beta = stream_step(MemoryState(values), a, b, img, obs)
        assert beta > 0
        assert np.allclose(out.values, values)

    def test_lives_with_the_stream_pipeline(self):
        # the memory layer composes no algorithm module: scoring a frame and
        # then writing it is the stream pipeline's step
        import streamstab
        import streamstab.simulate
        import streamstab.state_update
        assert streamstab.stream_step is streamstab.simulate.stream_step
        assert not hasattr(streamstab.state_update, "stream_step")


class TestRecallError:
    def test_exact_recall_zero(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((4, 4))
        obs = [Observation(k, values @ k) for k in rng.standard_normal((5, 4))]
        assert recall_error(MemoryState(values), obs) == 0.0

    def test_zero_state_unit_error(self):
        rng = np.random.default_rng(9)
        obs = [Observation(rng.standard_normal(4), rng.standard_normal(4))
               for _ in range(5)]
        assert recall_error(MemoryState.zeros(4, 4), obs) == pytest.approx(1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            recall_error(MemoryState.zeros(2, 2), [])

    def test_mismatched_observation_rejected(self):
        # the same shape check as associative_gradient, not NumPy's matmul
        obs = [Observation(np.ones(2), np.ones(2))]
        with pytest.raises(DimensionMismatch, match=r"\(2, 2\) does not "
                                                    r"match state \(2, 3\)"):
            recall_error(MemoryState(np.zeros((2, 3))), obs)

    def test_latest_write_exact_over_stream(self):
        rng = np.random.default_rng(10)
        state = MemoryState.zeros(64, 64)
        for _ in range(50):
            key = rng.standard_normal(64)
            key /= np.linalg.norm(key)
            obs = Observation(key, rng.standard_normal(64))
            state = apply_update(state, associative_gradient(state, obs), 1.0)
            assert recall_error(state, [obs]) < 1e-9


def test_forgetting_with_overcapacity_writes():
    # writing more pairs than the state dimension degrades the earliest pair
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = 16
        state = MemoryState.zeros(dim, dim)
        first = None
        baseline = None
        for step in range(2 * dim):
            key = rng.standard_normal(dim)
            key /= np.linalg.norm(key)
            obs = Observation(key, rng.standard_normal(dim))
            state = apply_update(state, associative_gradient(state, obs), 1.0)
            if first is None:
                first = obs
                baseline = recall_error(state, [first])
        if recall_error(state, [first]) > baseline:
            hits += 1
    assert hits >= 95


class TestDivergence:
    # a beta far from (0, 2) multiplies the residual by about |1 - beta| a
    # write; the first write or recall that is not finite raises, with no
    # RuntimeWarning on the way
    @pytest.fixture(autouse=True)
    def warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def observation(rng, n=8):
        key = rng.standard_normal(n)
        return Observation(key / np.linalg.norm(key), rng.standard_normal(n))

    @pytest.mark.parametrize("beta", [1e10, 1e200])
    def test_apply_update_and_recall_raise(self, beta):
        rng = np.random.default_rng(11)
        state, obs = MemoryState.zeros(8, 8), self.observation(rng)
        with pytest.raises(NonFiniteResult, match="not finite"):
            for _ in range(40):
                state = apply_update(state, associative_gradient(state, obs),
                                     beta)
                recall_error(state, [obs])

    @pytest.mark.parametrize("beta", [1e10, 1e200])
    def test_stream_step_raises(self, beta, monkeypatch):
        monkeypatch.setattr("streamstab.simulate.score_frame",
                            lambda *args: beta)
        rng = np.random.default_rng(12)
        state, obs = MemoryState.zeros(8, 8), self.observation(rng)
        pose = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        img = GrayImage(rng.uniform(size=(8, 8)))
        with pytest.raises(NonFiniteResult, match="not finite"):
            for _ in range(40):
                state, _ = stream_step(state, pose, pose, img, obs)

    def test_each_raises_on_its_own_result(self):
        obs = Observation(np.ones(2), np.ones(2))
        huge = MemoryState(np.full((2, 2), 1e308))
        with pytest.raises(NonFiniteResult, match="gradient"):
            associative_gradient(huge, obs)
        with pytest.raises(NonFiniteResult, match="state"):
            apply_update(huge, np.full((2, 2), -1.0), 1e308)
        with pytest.raises(NonFiniteResult, match="recall error"):
            recall_error(huge, [obs])

    def test_finite_large_state_kept(self):
        state = MemoryState(np.full((2, 2), 1e150))
        obs = Observation(np.array([1.0, 0.0]), np.ones(2))
        assert recall_error(state, [obs]) == pytest.approx(1e150)


def test_stream_step_on_overflowing_quaternion_is_not_unit():
    state = MemoryState(np.zeros((2, 2)))
    obs = Observation(np.array([1.0, 0.0]), np.ones(2))
    prev = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    cur = Pose(np.zeros(3), Quaternion(1e200, 0.0, 0.0, 0.0), 1.0)
    with pytest.raises(NonUnitQuaternion, match="norm inf"):
        stream_step(state, prev, cur, GrayImage(np.full((8, 8), 0.5)), obs)
