import queue
import time
from types import SimpleNamespace

import pytest

from jobmig import workload
from jobmig.checkpoint import TaskState, capture_full
from jobmig.harness import SupervisoryListener
from jobmig.monitor import ServiceLevelAgreement
from jobmig.node import ST_RUNNING, NodeDaemon, NodeRuntime, WallClock

# Synthetic field map exercising every field value type (sort has no byte field).
BLOB_COUNTER = 10
BLOB_VALUES = 11
BLOB_PAYLOAD = 12
BLOB_DONE = 13


def copy_state(state: TaskState) -> TaskState:
    """Deep copy of the fields, with no report: mutating the original never
    alters the copy."""
    return TaskState(state.job_id, {fid: list(v) if isinstance(v, list) else v
                                    for fid, v in state.fields.items()})


def images_of(state: TaskState) -> dict:
    """The images a full capture of ``state`` leaves: what a later incremental
    capture diffs against."""
    images: dict = {}
    capture_full(state, 0, images)
    return images


def transfer_bundle(payload: bytes) -> bytes:
    """The record bundle of a CHECKPOINT_TRANSFER payload, past its settings."""
    return payload[4 + int.from_bytes(payload[:4], "big"):]


def reference_digest(n: int, seed: int) -> int:
    """Digest of a direct, provider-free run: the correctness witness."""
    task = workload.init_sort(n, seed)
    while not task.done:
        task.step()
    return task.digest()


class FailingIndex(list):
    """A sort task's index whose pop raises once it has popped ``pops`` times: a
    step pops it once an iteration, so iteration ``pops + 1`` of a run raises."""

    def __init__(self, index: list, pops: int):
        super().__init__(index)
        self.pops = pops

    def pop(self):
        if not self.pops:
            raise RuntimeError("iteration failed")
        self.pops -= 1
        return super().pop()


def run_to(node, job_id: str, iteration: int, call: str = "run_iteration") -> None:
    """Run a job on ``node`` through its ``call`` method (``run_iteration`` or
    ``step``) until it has done ``iteration`` iterations or stops running. A call
    runs to the job's next yield point: a capture, ``withdraw_at``, the job's end or
    a confirmed violation, not a healthy sample. So one must fall on ``iteration``."""
    entry = node.job(job_id)
    while entry.status == ST_RUNNING and entry.task.iterations_done < iteration:
        getattr(node, call)(job_id)
    assert entry.task.iterations_done == iteration


def make_blob_state(job_id="blob-1", counter=0, values=(1, 2, 3), payload=b"xyz", done=0):
    return TaskState(job_id=job_id,
                     fields={BLOB_COUNTER: counter, BLOB_VALUES: list(values),
                             BLOB_PAYLOAD: payload, BLOB_DONE: done})


@pytest.fixture
def daemon(tmp_path):
    """In-process wall-mode daemon bound to an ephemeral port."""
    runtime = NodeRuntime(provider_id="d1", clock=WallClock(), store_dir=tmp_path / "d1")
    d = NodeDaemon(runtime, listen="127.0.0.1:0")
    d.start()
    yield d
    d.stop()


@pytest.fixture
def listener():
    """Supervisory-side frame endpoint whose route collects the node messages in
    ``events`` and ends no job."""
    events = queue.Queue()
    lst = SupervisoryListener(lambda msg_type, body: events.put((msg_type, body)) or {"ok": True})
    yield SimpleNamespace(address=lst.address, events=events)
    lst.stop()


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


DEFAULT_TEST_SLA = ServiceLevelAgreement(min_throughput=0.001, window_k=3, sample_period_ms=50)
