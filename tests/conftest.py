import time

import pytest

from jobmig.checkpoint import TaskState, capture_full
from jobmig.harness import SupervisoryListener
from jobmig.monitor import ServiceLevelAgreement
from jobmig.node import NodeDaemon, NodeRuntime, WallClock

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
    """Supervisory-side frame sink collecting node-originated messages."""
    from jobmig.broker import ResourceBroker
    lst = SupervisoryListener(ResourceBroker())
    yield lst
    lst.stop()


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


DEFAULT_TEST_SLA = ServiceLevelAgreement(min_throughput=0.001, window_k=3, sample_period_ms=50)
