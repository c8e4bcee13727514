"""Span hook for node processes of traced wall-mode runs.

The benchmark puts this directory on PYTHONPATH only for the node pairs of
traced jobs, so Python imports this module at start-up. It wraps the jobmig
functions a node executes, attributes every span to the job named in
BENCH_SPAN_JOB, and writes the spans at interpreter exit to
``$BENCH_SPAN_DIR/node-<pid>.jsonl``.
"""

import atexit
import os
import sys

_SPAN_DIR = os.environ.get("BENCH_SPAN_DIR")

if _SPAN_DIR:
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans
    from jobmig import broker, checkpoint, control, monitor, workload

    _tracer = spans.Tracer()
    _tracer.job = os.environ.get("BENCH_SPAN_JOB")
    _modules = {"broker": broker, "checkpoint": checkpoint, "control": control,
                "monitor": monitor, "workload": workload}
    _tracer.install(_modules, [t for t in spans.TARGETS if t[0] in _modules])

    # `python -m jobmig.node` defines NodeRuntime in __main__, which no import
    # can reach before it runs; its constructor builds a CheckpointStore, so
    # the class is wrapped from there, once.
    _store_init = checkpoint.CheckpointStore.__init__
    _wrapped_classes = set()

    def _init_store(store, root):
        _store_init(store, root)
        owner = type(sys._getframe(1).f_locals.get("self"))
        if owner.__name__ == "NodeRuntime" and owner not in _wrapped_classes:
            _wrapped_classes.add(owner)
            for mod, cls_name, attr, name, count in spans.TARGETS:
                if cls_name == "NodeRuntime":
                    _tracer.wrap(owner, attr, name, count)

    checkpoint.CheckpointStore.__init__ = _init_store

    def _dump():
        pid = os.getpid()
        spans.write_jsonl(list(_tracer.spans), os.path.join(_SPAN_DIR, f"node-{pid}.jsonl"), pid)

    atexit.register(_dump)
