"""A per-test time limit: a test that runs past LIMIT_S seconds fails
instead of hanging the suite.  Stdlib SIGALRM, so the limit holds where
the platform has it (POSIX) and is skipped elsewhere."""

import signal

import pytest

LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that ran too long.  Not an Exception, so that no
    `except Exception` or `except OSError` in the code under test (the CLI
    maps OSError to exit code 4) can turn it into a result."""


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
