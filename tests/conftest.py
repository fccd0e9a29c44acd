import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves running a thread it started."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the test: waitpid(-1, WNOHANG) gave {left}")
