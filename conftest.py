"""Suite-wide collection rules.

The benchmark's smoke runs of a wall workload spawn node processes, so they
carry the ``slow`` marker like every other test that does; ``pytest -m "not
slow"`` then skips them.
"""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.originalname != "test_smoke_run":
            continue
        workload = item.module.workloads.WORKLOADS[item.callspec.params["name"]]
        if workload.mode == "wall":
            item.add_marker(pytest.mark.slow)
