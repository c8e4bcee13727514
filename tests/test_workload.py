import copy
import struct
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from jobmig import checkpoint as cp
from jobmig import workload

from conftest import FailingIndex, reference_digest


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


def scan_step(fields, touched):
    """Reference selection-sort step: scan the suffix for its first minimum."""
    arr, it = fields[workload.FIELD_ARRAY], fields[workload.FIELD_ITER]
    j = arr.index(min(arr[it:]), it)
    arr[it], arr[j] = arr[j], arr[it]
    touched.setdefault(workload.FIELD_ARRAY, set()).update((it, j))
    fields[workload.FIELD_ITER] = it + 1
    if it + 1 == len(arr):
        fields[workload.FIELD_DONE] = 1


def sort_task(values, job_id="s"):
    fields = {workload.FIELD_ITER: 0, workload.FIELD_ARRAY: list(values),
              workload.FIELD_DONE: 0}
    return workload.SortTask(cp.TaskState(job_id, fields))


def assert_steps_like_the_scan(task):
    """Step ``task`` to its end, checking each step against the reference scan."""
    ref = cp.TaskState(task.state.job_id, {fid: list(v) if type(v) is list else v
                                           for fid, v in task.state.fields.items()},
                       {fid: set(t) for fid, t in task.state.touched.items()})
    while not task.done:
        task.step()
        scan_step(ref.fields, ref.touched)
        assert task.state.fields == ref.fields
        assert task.state.touched == ref.touched
        assert task.done == (ref.fields[workload.FIELD_DONE] == 1)


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SORT_VALUES = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=80),
    st.lists(st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]), min_size=1, max_size=80),
    st.lists(INT64, min_size=1, max_size=80))


class TestPrng:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 123456789])
    def test_matches_independent_implementation(self, seed):
        assert workload.splitmix64(seed, 20) == oracle_splitmix64(seed, 20)


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


class TestBatchedStep:
    """``step(k)`` runs k iterations in one call, as k single steps do."""

    @given(n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_runs_of_steps_match_single_steps(self, n, seed, data):
        ends = sorted(data.draw(st.sets(st.integers(1, n), max_size=20)) | {n})
        batched, single = workload.init_sort(n, seed), workload.init_sort(n, seed)
        for first, end in zip([0] + ends, ends):
            batched.step(end - first)
            for _ in range(end - first):
                single.step()
            assert batched.state.fields == single.state.fields
            assert batched.state.touched == single.state.touched
        assert batched.done and batched.digest() == single.digest()

    @pytest.mark.parametrize("k", [0, -1, 8])
    def test_a_k_outside_the_iterations_left_raises_and_changes_nothing(self, k):
        task = workload.init_sort(10, 3)
        task.step(3)
        before = copy.deepcopy((task.state.fields, task.state.touched))
        with pytest.raises(ValueError):
            task.step(k)
        assert (task.state.fields, task.state.touched) == before
        task.step(7)
        assert task.done and task.digest() == reference_digest(10, 3)
        for more in (1, 7, 0):
            with pytest.raises(workload.AlreadyDone):
                task.step(more)

    def test_an_iteration_that_raises_leaves_the_finished_ones_counted(self):
        task = workload.init_sort(20, 5)
        task.step(2)  # builds the index
        task._index = FailingIndex(task._index, 3)
        with pytest.raises(RuntimeError):
            task.step(10)
        reference = workload.init_sort(20, 5)
        reference.step(5)
        assert (task.iterations_done, task.done) == (5, False)
        assert task.state.fields == reference.state.fields
        assert task.state.touched == reference.state.touched


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

    @given(values=st.lists(st.one_of(
        INT64, st.integers(min_value=-(2**24), max_value=2**25),
        st.sampled_from([-(2**63), -(2**24), -1, 0, 1, 2**24 - 1, 2**24, 2**32, 2**63 - 1])),
        max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_digest_is_fnv1a64_of_the_big_endian_int64_bytes(self, values):
        """Each element's hash steps, the short path for [0, 2**24) included, give
        the byte-by-byte hash of the whole array."""
        fields = {workload.FIELD_ITER: len(values), workload.FIELD_ARRAY: values,
                  workload.FIELD_DONE: 1}
        task = workload.SortTask(cp.TaskState("d", fields))
        assert task.digest() == oracle_fnv1a64(struct.pack(f">{len(values)}q", *values))


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


class TestIndexedStep:
    @given(values=SORT_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_every_step_matches_the_scan(self, values):
        assert_steps_like_the_scan(sort_task(values))

    @pytest.mark.parametrize("values", [[7], [-(2**63)], [2**63 - 1], [5, 5, 5, 5],
                                        [2**63 - 1, -(2**63), 0, -(2**63), 2**63 - 1]])
    def test_edge_arrays_match_the_scan(self, values):
        assert_steps_like_the_scan(sort_task(values))

    @given(values=SORT_VALUES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_task_rebuilt_mid_run_matches_the_scan(self, values, data):
        """A task composed from a captured lineage builds its index at iter > 0."""
        n = len(values)
        task = sort_task(values, job_id="m")
        images: cp.Images = {}
        full = cp.capture_full(task.state, 0, images)
        task.state.touched = {}
        incrementals = []
        for cut in sorted(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4))):
            while task.iterations_done < cut:
                task.step()
            incrementals.append(cp.capture_incremental(task.state, images,
                                                       len(incrementals) + 1))
            task.state.touched = {}
        resumed = workload.SortTask(cp.compose(full, incrementals))
        assert resumed.state.fields == task.state.fields
        assert_steps_like_the_scan(resumed)
        assert_steps_like_the_scan(task)
        assert resumed.state.fields == task.state.fields


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
        # a sort's params of the wrong type: tests/test_node.py::TestMessageSchema ("word-n")
        with pytest.raises(workload.UnknownWorkload):
            workload.create_task("j", "matrix", {"n": 5})
