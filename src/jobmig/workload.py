"""Resumable tasks: step-wise execution with checkpointable state.

The benchmark workload is selection sort over an array of N pseudo-random
values. Each call to ``step`` performs one outer-loop iteration (place the
minimum of the unsorted suffix), which is also the checkpoint and migration
grain: a task may be captured or handed off between any two steps.
"""

from __future__ import annotations

import struct

from .checkpoint import TaskState

SORT_KIND = "sort"
FIELD_ITER = 0
FIELD_ARRAY = 1
FIELD_DONE = 2

SORT_VALUE_MOD = 1_000_000

_M64 = (1 << 64) - 1


class WorkloadError(Exception):
    pass


class InvalidSize(WorkloadError):
    pass


class AlreadyDone(WorkloadError):
    pass


class NotDone(WorkloadError):
    pass


class UnknownWorkload(WorkloadError):
    pass


class InvalidState(WorkloadError):
    pass


def splitmix64(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of the SplitMix64 generator."""
    state = seed & _M64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _M64
    return h


class SortTask:
    """Selection sort as a resumable task: total_iterations == N.

    The sort layout is checked here and nowhere else: the iteration counter
    and the done flag are int64 fields, the array an int64 array, and
    ``0 <= iter <= N`` with ``done == (iter == N)``."""

    def __init__(self, state: TaskState):
        fields = state.fields
        if set(fields) != {FIELD_ITER, FIELD_ARRAY, FIELD_DONE}:
            raise UnknownWorkload(f"state of job {state.job_id!r} is not a sort task")
        it, arr, done = fields[FIELD_ITER], fields[FIELD_ARRAY], fields[FIELD_DONE]
        if type(it) is not int or type(done) is not int or type(arr) is not list:
            raise InvalidState(f"job {state.job_id!r}: sort fields have the wrong value types")
        if not 0 <= it <= len(arr) or done != (it == len(arr)):
            raise InvalidState(f"job {state.job_id!r}: iteration {it} and done flag {done} "
                               f"do not fit an array of {len(arr)}")
        self.state = state

    @property
    def total_iterations(self) -> int:
        return len(self.state.fields[FIELD_ARRAY])

    @property
    def iterations_done(self) -> int:
        return self.state.fields[FIELD_ITER]

    @property
    def done(self) -> bool:
        return self.state.fields[FIELD_DONE] == 1

    def step(self) -> None:
        """One outer iteration: move the minimum of the suffix to position iter,
        and report the two array indices written."""
        if self.done:
            raise AlreadyDone(f"job {self.state.job_id!r} already completed")
        fields = self.state.fields
        arr: list[int] = fields[FIELD_ARRAY]
        it: int = fields[FIELD_ITER]
        j = arr.index(min(arr[it:]), it)
        arr[it], arr[j] = arr[j], arr[it]
        touched = self.state.touched.setdefault(FIELD_ARRAY, set())
        touched.add(it)
        touched.add(j)
        it += 1
        fields[FIELD_ITER] = it
        if it == len(arr):
            fields[FIELD_DONE] = 1

    def digest(self) -> int:
        """64-bit hash of the final array; equal for any two correct runs."""
        if not self.done:
            raise NotDone(f"job {self.state.job_id!r} has not completed")
        arr = self.state.fields[FIELD_ARRAY]
        return fnv1a64(struct.pack(f">{len(arr)}q", *arr))


def init_sort(n: int, seed: int, job_id: str | None = None) -> SortTask:
    if n < 1:
        raise InvalidSize(f"array size must be >= 1, got {n}")
    array = [v % SORT_VALUE_MOD for v in splitmix64(seed, n)]
    state = TaskState(job_id if job_id is not None else f"sort-{n}-{seed}",
                      {FIELD_ITER: 0, FIELD_ARRAY: array, FIELD_DONE: 0})
    return SortTask(state)


def create_task(job_id: str, task_kind: str, params: dict) -> SortTask:
    """Instantiate a task from a JOB_SUBMIT payload (`task_kind` + params)."""
    if task_kind != SORT_KIND:
        raise UnknownWorkload(f"unsupported task kind {task_kind!r}")
    try:
        n = int(params["n"])
        seed = int(params["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UnknownWorkload(f"bad sort parameters: {params!r}") from exc
    return init_sort(n, seed, job_id=job_id)
