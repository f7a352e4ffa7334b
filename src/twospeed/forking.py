"""Independent tasks run side by side in ``fork``ed child processes.

The psi sweep splits its ``sigma_min`` batches over the CPUs this way
(:func:`twospeed.spectral.psi_sweep`), and ``twospeed report`` runs its
lemma and evolve stages beside the others, each in its own child
(:func:`twospeed.cli.cmd_report`).
SuperLU, the Lanczos recurrence and the stage code hold the GIL, so
threads would not run them side by side.  The helpers are
package-private: the perfbench tracer wraps every public function, and a
span around a fork would split a stage's time between two layers.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import NumericalError


def _worker_count() -> int:
    """CPUs this process may run on; 1 where ``fork`` or the affinity mask is unavailable."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_map(tasks, nice: int = 0) -> list:
    """``[task() for task in tasks]``, each task after the first in a ``fork``ed child.

    The calling process runs ``tasks[0]`` while one child per other task
    runs that task; a child first adds ``nice`` to its own niceness
    (``os.nice``), so a low-priority task takes only the CPU that the
    others leave idle.  With one CPU in the affinity mask, or without
    ``fork``, every task runs in the calling process in order and its
    niceness never changes.

    A child sends its result, or the exception it raised, through a pipe
    as a pickle and leaves by ``os._exit``, so it never flushes the
    caller's buffers or runs its exit handlers.  The results are read in
    task order after ``tasks[0]`` returns: an error of the caller's own
    task comes first, then a child's exception, re-raised as it was, or
    :class:`NumericalError` for a child that died without a result.
    Whether this returns or raises, every child has been reaped; on an
    error the children still running are killed first.
    """
    if len(tasks) == 1 or _worker_count() == 1:
        return [task() for task in tasks]
    results = [None] * len(tasks)
    pending = {}  # pid -> (task index, read end of its pipe)
    try:
        for j in range(1, len(tasks)):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child never returns into the caller's code
                code = 1
                try:
                    if nice:
                        os.nice(nice)
                    try:
                        result = tasks[j]()
                    except Exception as exc:
                        result = exc
                    with open(write, "wb") as pipe:
                        pickle.dump(result, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            pending[pid] = (j, read)
        results[0] = tasks[0]()
        for pid, (j, read) in list(pending.items()):
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pending[pid]
            os.close(read)
            if code != 0:
                raise NumericalError(f"forked child {pid} exited with status {code}")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            results[j] = result
    finally:
        for pid, (_, read) in pending.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    return results
