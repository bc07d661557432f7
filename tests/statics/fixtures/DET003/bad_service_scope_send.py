# statics-fixture-scope: service
"""BAD: set-ordered iteration in a function that sends across the
actor boundary — delivery order varies with PYTHONHASHSEED.  Outside
``sim``/``core`` on purpose: DET003 guards every ``src/repro`` package."""


def flush(worker, pending: set[str]) -> None:
    for name in pending:
        worker.send_ctrl("inbox", name)
