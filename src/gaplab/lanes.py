"""Forked lanes of the state ensemble: lane 0 in the calling process, the others in children.

``runner`` imports this module only when an ensemble runs on more than
one lane, so a one-lane run, and every platform without ``os.fork``,
never loads it.  A child runs its lane on the values it inherits at the
fork and writes its results into memory the caller shared with it before
the fork; it ends with ``os._exit``, so it runs no exit handler and
flushes no buffer of the parent's.  Every child is reaped before
:func:`run_forked` returns or raises.
"""

from __future__ import annotations

import os
import pickle
import resource
import signal

__all__ = ["run_forked"]


def run_forked(lanes: int, lane) -> float:
    """Run ``lane(k, poll)`` for k < ``lanes``: lane 0 here, each other lane in a child made by ``os.fork``.

    Lane 0 calls ``poll()`` between its steps, which raises the error of a
    child that has failed: the exception type and message the child sent,
    or an ``OSError`` naming the lane and the signal for a child ended by
    one.  A failed child, or an exception in lane 0, stops the others: the
    children still running are killed and every child is reaped before
    the error is raised.  Returns the peak RSS in MiB of the largest child
    this process has reaped (``ru_maxrss`` is in KiB on Linux).
    """
    children = _Children()
    try:
        for k in range(1, lanes):
            children.start(k, lane)
        lane(0, children.poll)
        children.join()
    finally:
        children.close()
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _no_poll() -> None:
    """A child has no lanes of its own to poll."""


class _Children:
    """The running children of :func:`run_forked`, each with the read end of the pipe its error comes through.

    A child ends with status 0 after its lane, or 1 after an exception,
    whose type and message it first writes to its pipe.
    """

    def __init__(self):
        self.running = []  # (lane, pid, read end of the lane's pipe)

    def start(self, k: int, lane) -> None:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            os.close(r)
            code = 0
            try:
                lane(k, _no_poll)
            except BaseException as exc:  # the process ends here; its parent raises the exception
                code = 1
                _send_exception(w, exc)
            finally:
                os._exit(code)
        os.close(w)
        self.running.append((k, pid, r))

    def poll(self) -> None:
        for child in list(self.running):
            pid, status = os.waitpid(child[1], os.WNOHANG)
            if pid:
                self._ended(child, status, _read_all(child[2]))

    def join(self) -> None:
        while self.running:
            child = self.running[0]
            # the pipe is read before the wait, so a long message cannot leave the child blocked in its write
            message = _read_all(child[2])
            self._ended(child, os.waitpid(child[1], 0)[1], message)

    def _ended(self, child, status: int, message: bytes) -> None:
        self.running.remove(child)
        k, _, r = child
        os.close(r)
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise OSError(f"ensemble lane {k} was ended by signal {signal.Signals(-code).name}")
        if message:
            kind, text = pickle.loads(message)
            raise kind(text)
        if code:
            raise OSError(f"ensemble lane {k} exited with status {code}")

    def close(self) -> None:
        """Kill and reap every child still running."""
        for _, pid, _ in self.running:
            os.kill(pid, signal.SIGKILL)
        for _, pid, r in self.running:
            os.waitpid(pid, 0)
            os.close(r)
        self.running = []


def _read_all(fd: int) -> bytes:
    """Everything a pipe holds until its write end is closed."""
    parts = []
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)


def _send_exception(fd: int, exc: BaseException) -> None:
    """Write the type and message of ``exc`` to ``fd`` for the parent to raise."""
    try:
        message = pickle.dumps((type(exc), str(exc)))
    except (pickle.PicklingError, AttributeError, TypeError):  # a type pickle cannot name, such as a local class
        message = pickle.dumps((RuntimeError, f"{type(exc).__name__}: {exc}"))
    view = memoryview(message)
    while view:
        view = view[os.write(fd, view):]
