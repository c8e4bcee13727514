import struct
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from jobmig import checkpoint as cp
from jobmig import workload


M64 = (1 << 64) - 1


def oracle_splitmix64(seed, count):
    """Independent SplitMix64: same published constants, different coding."""
    out = []
    x = seed % 2**64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) % 2**64
        z = x
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z = ((z ^ (z >> shift)) * mult) % 2**64
        out.append(z ^ (z >> 31))
    return out


def oracle_fnv1a64(data):
    return reduce(lambda h, b: ((h ^ b) * 0x100000001B3) & M64, data, 0xCBF29CE484222325)


class TestPrng:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 123456789])
    def test_matches_independent_implementation(self, seed):
        assert workload.splitmix64(seed, 20) == oracle_splitmix64(seed, 20)

    def test_fnv_matches_independent_implementation(self):
        for data in (b"", b"a", b"hello world", bytes(range(256))):
            assert workload.fnv1a64(data) == oracle_fnv1a64(data)


class TestInitSort:
    def test_total_iterations_is_n(self):
        task = workload.init_sort(500, 42)
        assert task.total_iterations == 500
        assert task.iterations_done == 0
        assert not task.done

    def test_values_bounded_by_modulus(self):
        task = workload.init_sort(200, 9)
        assert all(0 <= v < workload.SORT_VALUE_MOD
                   for v in task.state.fields[workload.FIELD_ARRAY])

    def test_degenerate_size(self):
        task = workload.init_sort(1, 999)
        task.step()
        assert task.done

    def test_same_inputs_same_array(self):
        a = workload.init_sort(50, 7).state.fields[workload.FIELD_ARRAY]
        b = workload.init_sort(50, 7).state.fields[workload.FIELD_ARRAY]
        assert a == b

    def test_zero_size_rejected(self):
        with pytest.raises(workload.InvalidSize):
            workload.init_sort(0, 1)


class TestStep:
    def test_hand_traced_step(self):
        state = cp.TaskState(job_id="h",
                             fields={workload.FIELD_ITER: 0,
                                     workload.FIELD_ARRAY: [3, 1, 2],
                                     workload.FIELD_DONE: 0})
        task = workload.SortTask(state)
        task.step()
        assert state.fields[workload.FIELD_ARRAY] == [1, 3, 2]
        assert state.fields[workload.FIELD_ITER] == 1
        assert task.iterations_done == 1 and not task.done

    def test_n_steps_complete_and_sort(self):
        task = workload.init_sort(5, 42)
        for _ in range(5):
            task.step()
        assert task.done
        arr = task.state.fields[workload.FIELD_ARRAY]
        assert arr == sorted(workload.init_sort(5, 42).state.fields[workload.FIELD_ARRAY])

    def test_migration_point_reachable(self):
        task = workload.init_sort(500, 42)
        for _ in range(249):
            task.step()
        assert task.iterations_done == 249
        assert not task.done

    def test_step_after_done_rejected(self):
        task = workload.init_sort(1, 1)
        task.step()
        with pytest.raises(workload.AlreadyDone):
            task.step()


class TestDigest:
    def test_not_done_rejected(self):
        with pytest.raises(workload.NotDone):
            workload.init_sort(4, 4).digest()

    def test_same_inputs_same_digest(self):
        def run(n, seed):
            t = workload.init_sort(n, seed)
            while not t.done:
                t.step()
            return t.digest()
        assert run(64, 5) == run(64, 5)
        assert run(64, 5) != run(64, 6)

    def test_digest_matches_oracle_hash_of_sorted_array(self):
        task = workload.init_sort(32, 11)
        expected_array = sorted(task.state.fields[workload.FIELD_ARRAY])
        while not task.done:
            task.step()
        packed = b"".join(struct.pack(">q", v) for v in expected_array)
        assert task.digest() == oracle_fnv1a64(packed)


class TestProperties:
    @given(n=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0, max_value=2**32),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_state_after_k_steps_is_pure(self, n, seed, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        a = workload.init_sort(n, seed, job_id="p")
        b = workload.init_sort(n, seed, job_id="p")
        for _ in range(k):
            a.step()
            b.step()
        assert a.state == b.state

    @given(n=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0, max_value=2**32),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_checkpoint_transparency(self, n, seed, data):
        """Run k steps, capture, compose, resume: equals an uninterrupted run."""
        k = data.draw(st.integers(min_value=0, max_value=n))
        task = workload.init_sort(n, seed, job_id="t")
        for _ in range(k):
            task.step()
        resumed = workload.SortTask(cp.compose(cp.capture_full(task.state, 0), []))
        while not resumed.done:
            resumed.step()

        uninterrupted = workload.init_sort(n, seed, job_id="t")
        while not uninterrupted.done:
            uninterrupted.step()
        assert resumed.state == uninterrupted.state
        assert resumed.digest() == uninterrupted.digest()

    @given(n=st.integers(min_value=1, max_value=48), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_progress_and_sortedness(self, n, seed):
        task = workload.init_sort(n, seed)
        remaining = n
        while not task.done:
            task.step()
            remaining -= 1
            assert task.total_iterations - task.iterations_done == remaining
        assert remaining == 0
        arr = task.state.fields[workload.FIELD_ARRAY]
        assert all(a <= b for a, b in zip(arr, arr[1:]))


class TestFromState:
    def test_round_trip_through_state(self):
        task = workload.init_sort(10, 3, job_id="rt")
        for _ in range(4):
            task.step()
        again = workload.SortTask(task.state)
        assert again.iterations_done == 4

    def test_wrong_kind_rejected(self):
        state = cp.TaskState(job_id="x", fields={0: 1})
        with pytest.raises(workload.UnknownWorkload):
            workload.SortTask(state)

    @pytest.mark.parametrize("it,done", [(0, 1), (3, 1), (5, 0), (6, 0), (6, 1), (-1, 0)])
    def test_iteration_and_done_flag_must_agree(self, it, done):
        state = workload.init_sort(5, 1, job_id="bad").state
        state.fields[workload.FIELD_ITER] = it
        state.fields[workload.FIELD_DONE] = done
        with pytest.raises(workload.InvalidState):
            workload.SortTask(state)

    @pytest.mark.parametrize("field_id,value", [
        (workload.FIELD_ITER, b"\x00"), (workload.FIELD_ARRAY, b"\x01\x02"),
        (workload.FIELD_DONE, [0]), (workload.FIELD_ITER, True)])
    def test_value_types_checked(self, field_id, value):
        state = workload.init_sort(5, 1, job_id="bad").state
        state.fields[field_id] = value
        with pytest.raises(workload.InvalidState):
            workload.SortTask(state)

    def test_layout_bounds_accepted(self):
        task = workload.init_sort(4, 2, job_id="ok")
        assert not workload.SortTask(task.state).done
        while not task.done:
            task.step()
        assert workload.SortTask(task.state).done

    def test_create_task_validates_params(self):
        with pytest.raises(workload.UnknownWorkload):
            workload.create_task("j", "sort", {"n": "not-a-number"})
        with pytest.raises(workload.UnknownWorkload):
            workload.create_task("j", "matrix", {"n": 5})
