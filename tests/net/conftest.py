"""Every net test also asserts the endpoints' hygiene on the event loop."""

import logging

import pytest


def _is_slow_callback_report(message: str) -> bool:
    # Debug mode (python -X dev) times every callback; a slow host is not a leak.
    return message.startswith("Executing ") and " took " in message


@pytest.fixture(autouse=True)
def asyncio_logs_nothing(caplog):
    """Fail a test whose loop logged a warning or error.

    asyncio reports what nobody else sees through its logger: a task
    exception that was never retrieved, a send on a closed socket (a timer
    that outlived its endpoint), a callback that raised.  ``caplog.records``
    in a fixture's teardown holds the teardown phase only, so every phase
    is read explicitly: the test body logs in "call".
    """
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        yield
    logged = [
        record.getMessage()
        for when in ("setup", "call", "teardown")
        for record in caplog.get_records(when)
        if record.name == "asyncio" and not _is_slow_callback_report(record.getMessage())
    ]
    assert logged == [], logged
