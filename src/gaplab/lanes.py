"""Forked lanes of the state ensemble: lane 0 in the calling process, the others in children, each claiming chunks.

``runner`` imports this module only when an ensemble runs on more than
one lane, so a one-lane run, and every platform without ``os.fork``,
never loads it.  Before the fork the chunk starts are written as tickets
to a pipe whose write end is then closed, so no process holds it: a lane
claims its next chunks by reading one ticket, and stops when a read finds
the pipe empty.  A lane that starts late, or runs slower, runs fewer
chunks, and no lane waits for work another holds.  A ticket is one chunk,
or a run of consecutive chunks where one ticket per chunk would not fit
in ``PIPE_BUF`` bytes (which a pipe holds before anyone reads it).  A
child runs its lane on the values it inherits at the fork and writes its
results into memory the caller shared with it before the fork; it ends
with ``os._exit``, so it runs no exit handler and flushes no buffer of the
parent's.  Every child is reaped before :func:`run_forked` returns or
raises.
"""

from __future__ import annotations

import os
import pickle
import resource
import signal

__all__ = ["run_forked"]

#: Bytes of one ticket: the index of its first chunk start, little-endian.
TICKET_BYTES = 4


def run_forked(lanes: int, starts, lane, first=None) -> tuple[float, list]:
    """Run the chunks at ``starts`` on ``lanes`` lanes that claim them: lane 0 here, the others in forked children.

    ``lane(claimed, poll)`` runs the chunk at each start that the iterator
    ``claimed`` yields, claiming them one ticket at a time.  Lane 0 first
    calls ``first()``, when given, and claims chunks only then.  It calls
    ``poll()`` between its chunks, which raises the error of a child that
    has failed: the exception type and message the child sent, or an
    ``OSError`` naming the lane and the signal for a child ended by one.  A
    failed child, or an exception in lane 0 (in ``first`` too), stops the
    others: the children still running are killed and every child is
    reaped before the error is raised.  Returns the peak RSS in MiB of the
    largest child this process has reaped (``ru_maxrss`` is in KiB on
    Linux) and the chunks each lane ran, lane 0 first.
    """
    tickets = _Tickets(starts)
    children = _Children()
    try:
        for k in range(1, lanes):
            children.start(k, lane, tickets)
        if first is not None:
            first()
        ran = tickets.run(lane, children.poll)
        children.join()
    finally:
        children.close()
        os.close(tickets.fd)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return peak, [ran, *(children.ran[k] for k in range(1, lanes))]


def _no_poll() -> None:
    """A child has no lanes of its own to poll."""


class _Tickets:
    """The chunk starts of :func:`run_forked` as tickets in a pipe, ``per`` consecutive chunks to a ticket."""

    def __init__(self, starts):
        self.starts = starts
        self.fd, w = os.pipe()
        try:
            room = os.fpathconf(w, "PC_PIPE_BUF") // TICKET_BYTES
            self.per = max(1, -(-len(starts) // room))
            # at most PIPE_BUF bytes into an empty pipe: one write that cannot block
            os.write(w, b"".join(i.to_bytes(TICKET_BYTES, "little") for i in range(0, len(starts), self.per)))
        finally:
            os.close(w)

    def claimed(self):
        """The starts of the tickets this process reads, until the pipe is empty, counted in ``ran``."""
        # each read takes one whole ticket: the pipe holds whole tickets, and every read asks for one
        while ticket := os.read(self.fd, TICKET_BYTES):
            i = int.from_bytes(ticket, "little")
            for start in self.starts[i : i + self.per]:
                self.ran += 1
                yield start

    def run(self, lane, poll) -> int:
        """Run ``lane`` on the chunks this process claims; returns their count."""
        self.ran = 0
        lane(self.claimed(), poll)
        return self.ran


class _Children:
    """The running children of :func:`run_forked`, each with the read end of the pipe its outcome comes through.

    A child ends with status 0 after its lane, having written the count of
    chunks it ran, or with 1 after an exception, whose type and message it
    writes instead.  ``ran`` holds the count of each child that has ended.
    """

    def __init__(self):
        self.running = []  # (lane, pid, read end of the lane's pipe)
        self.ran = {}

    def start(self, k: int, lane, tickets: _Tickets) -> None:
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
                _send(w, pickle.dumps(tickets.run(lane, _no_poll)))
            except BaseException as exc:  # the process ends here; its parent raises the exception
                code = 1
                _send(w, _exception_message(exc))
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
        if code == 0:
            self.ran[k] = pickle.loads(message)
            return
        if message:
            kind, text = pickle.loads(message)
            raise kind(text)
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


def _exception_message(exc: BaseException) -> bytes:
    """The type and message of ``exc``, pickled for the parent to raise."""
    try:
        return pickle.dumps((type(exc), str(exc)))
    except (pickle.PicklingError, AttributeError, TypeError):  # a type pickle cannot name, such as a local class
        return pickle.dumps((RuntimeError, f"{type(exc).__name__}: {exc}"))


def _send(fd: int, message: bytes) -> None:
    """Write all of ``message`` to ``fd``."""
    view = memoryview(message)
    while view:
        view = view[os.write(fd, view):]
