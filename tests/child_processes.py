"""Checks that a call left no child process behind."""

import multiprocessing
import os

import pytest


def assert_no_child_processes():
    """No child of this process is alive, and none waits to be reaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
