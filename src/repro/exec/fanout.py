"""Child processes: the one way the package runs work outside this process.

Every shardable workload — the synthesis runtime
(:mod:`repro.exec.runtime`) and the differential-testing campaigns of
:mod:`repro.difftest` — and every service worker
(:mod:`repro.service.pool`) runs through here.  This is the only module
that imports :mod:`multiprocessing`.

A :class:`ResidentTask` names two module-level functions (picklable by
reference under both fork and spawn start methods):

* ``setup(payload) -> state`` — runs once per child process;
* ``work(state, item, emit) -> result`` — runs once per item, where
  ``emit`` publishes one JSON-safe event dict back to the parent
  mid-item.

A :class:`ResidentProcess` runs a task in one dedicated child that
persists across items (setup runs once, warm state survives), streams
events back over a pipe, and is individually restartable.
:func:`fanout` spreads a task's shard indices over ``jobs`` resident
children and streams ``(index, result)`` pairs in completion order, so
callers can checkpoint and report progress per shard;
:func:`run_fanout` collects every shard ordered by index.  ``jobs=1``
runs in-process with no child at all — the two paths produce identical
results, which is what lets callers promise ``--jobs N`` output is
byte-identical to sequential.

Failures stay local and surface promptly: an exception in ``setup`` or
``work`` comes back as :class:`RemoteJobError` carrying its type name and
message, and a child that dies mid-item raises :class:`WorkerDied`.
"""

from __future__ import annotations

import contextlib
import signal
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

__all__ = [
    "RemoteJobError",
    "ResidentProcess",
    "ResidentTask",
    "WorkerDied",
    "fanout",
    "run_fanout",
]

#: seconds an idle child gets to exit on the shutdown sentinel before it
#: is terminated
_STOP_TIMEOUT = 5.0


@dataclass(frozen=True)
class ResidentTask:
    """Per-process setup plus per-item work.

    ``setup`` and ``work`` must be module-level functions and ``payload``
    picklable, so the task crosses process boundaries intact.
    """

    setup: Callable[[Any], Any]
    work: Callable[[Any, Any, Callable[[dict], None]], Any]
    payload: Any


class WorkerDied(RuntimeError):
    """The resident child process vanished mid-job (killed, crashed, or
    closed its pipe).  The job it was running is lost; the parent-side
    :class:`ResidentProcess` stays usable — the next job spawns a fresh
    child."""


class RemoteJobError(RuntimeError):
    """A job (or the task's setup) raised inside the child process.

    The child stays alive; only the one job failed.  ``exc_type`` is the
    remote exception's class name — the exception object itself never
    crosses the pipe, so arbitrary unpicklable errors still report
    cleanly.
    """

    def __init__(self, exc_type: str, message: str):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type


def _ignore(event: dict) -> None:
    """The ``emit`` of in-process work: nobody is listening."""


def fanout(
    task: ResidentTask, indices: Iterable[int], jobs: int = 1
) -> Iterator[tuple[int, Any]]:
    """Run ``task`` over the shard ``indices`` with ``jobs`` workers.

    Yields ``(index, result)`` as each shard completes — in index order
    in-process, in completion order from child processes.  Children run
    one shard at a time and get their next index as soon as they answer;
    events a shard emits are dropped.  Stopping early (an exception, or
    the caller closing the generator) terminates busy children at once.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    pending = deque(indices)
    if not pending:
        return
    if jobs == 1:
        state = task.setup(task.payload)
        for index in pending:
            yield index, task.work(state, index, _ignore)
        return
    from multiprocessing.connection import wait

    children = [ResidentProcess(task) for _ in range(min(jobs, len(pending)))]
    running: dict[ResidentProcess, int] = {}
    try:
        for child in children:
            running[child] = pending.popleft()
            child.send(running[child])
        while running:
            for child in wait(list(running)):
                index = running.pop(child)
                result = child.receive()
                if pending:
                    running[child] = pending.popleft()
                    child.send(running[child])
                yield index, result
    finally:
        for child in children:
            child.close()


def run_fanout(task: ResidentTask, shard_count: int, jobs: int = 1) -> list[Any]:
    """Run shards ``0..shard_count-1`` of ``task`` over ``jobs`` workers.

    Returns one result per shard, ordered by shard index regardless of
    completion order.
    """
    indexed = sorted(fanout(task, range(shard_count), jobs), key=lambda p: p[0])
    return [result for _, result in indexed]


# -- resident child processes ---------------------------------------------------


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def _resident_main(task: ResidentTask, conn: Any) -> None:
    """Child-process loop: one job in, events out, one answer per job.

    ``setup`` runs on the first job, so its failure is reported as that
    job's error (and retried on the next job) like any other.  A
    terminated child unwinds instead of dying on the spot, so a job that
    fanned out stops its own children on the way out: orphaned, they
    would run on, holding this child's pipe open.
    """
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    state: Any = None
    ready = False

    def emit(event: dict) -> None:
        conn.send(("event", event))

    with conn:
        while True:
            try:
                job = conn.recv()
            except EOFError:
                return
            if job is None:  # shutdown sentinel
                return
            try:
                if not ready:
                    state, ready = task.setup(task.payload), True
                # an unpicklable result fails before any byte is sent
                conn.send(("result", task.work(state, job, emit)))
            except Exception as exc:  # noqa: BLE001 — report, keep serving
                conn.send(("error", (type(exc).__name__, str(exc))))


def _stop_child(proc: Any, conn: Any, graceful: bool = True) -> None:
    """Stop one child: the shutdown sentinel if idle, else terminate,
    and kill a child that outlives its SIGTERM (a job that ignores the
    signal, or a ``SystemExit`` swallowed inside a ``__del__``)."""
    if graceful:
        with contextlib.suppress(OSError):  # already gone
            conn.send(None)
        proc.join(timeout=_STOP_TIMEOUT)
    conn.close()
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=_STOP_TIMEOUT)
    if proc.is_alive():
        proc.kill()
        proc.join()


class ResidentProcess:
    """One resident child process running :class:`ResidentTask` jobs.

    The child is spawned lazily on the first job and persists across
    jobs, so state built by ``task.setup`` (warm checkers, solver
    sessions) is reused.  A child that dies mid-job raises
    :class:`WorkerDied` for that job only; the next job transparently
    spawns a replacement.  :meth:`close` stops the child; on-disk state
    such as CNF caches survives it, and a later job spawns a fresh child
    that rebuilds the in-memory state.

    Children are not daemonic, so a child may itself fan out; a child
    that is never closed is stopped at interpreter exit (or when this
    object is garbage-collected) by a :class:`multiprocessing.util.Finalize`
    hook, the same one :class:`multiprocessing.pool.Pool` uses.
    """

    def __init__(self, task: ResidentTask):
        self.task = task
        self._proc: Any = None
        self._conn: Any = None
        self._finalizer: Any = None
        #: a job was sent and its answer is not yet received
        self._busy = False

    @property
    def pid(self) -> int | None:
        """The live child's PID (None before first use / after close)."""
        return self._proc.pid if self._proc is not None else None

    def fileno(self) -> int:
        """The pipe's descriptor, so :func:`multiprocessing.connection.wait`
        can watch a set of children."""
        return self._conn.fileno()

    def _ensure(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            return
        self.close()
        import multiprocessing as mp
        from multiprocessing.util import Finalize

        parent, child = mp.Pipe()
        proc = mp.Process(target=_resident_main, args=(self.task, child))
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent
        self._finalizer = Finalize(
            self, _stop_child, args=(proc, parent), exitpriority=10
        )

    def _died(self, exc: BaseException) -> WorkerDied:
        self.close()
        return WorkerDied(f"resident worker died mid-job ({type(exc).__name__})")

    def send(self, job: Any) -> None:
        """Hand the child one job without waiting.

        Pair with :meth:`receive`.  Raises :class:`WorkerDied` when the
        child is gone.
        """
        self._ensure()
        try:
            self._conn.send(job)
        except OSError as exc:
            raise self._died(exc) from exc
        self._busy = True

    def receive(self, on_event: Callable[[dict], None] | None = None) -> Any:
        """Wait for the answer to the job :meth:`send` handed over.

        Events the job emits on the way go to ``on_event``.  Raises
        :class:`RemoteJobError` when the job itself raised (child
        survives) and :class:`WorkerDied` when the child vanished (job
        lost, the next job respawns).
        """
        conn = self._conn
        try:
            while True:
                kind, value = conn.recv()
                if kind == "event":
                    if on_event is not None:
                        on_event(value)
                    continue
                self._busy = False
                if kind == "result":
                    return value
                raise RemoteJobError(*value)
        except (EOFError, OSError) as exc:
            raise self._died(exc) from exc

    def run(self, job: Any, on_event: Callable[[dict], None] | None = None) -> Any:
        """Run one job in the resident child: :meth:`send` then :meth:`receive`."""
        self.send(job)
        return self.receive(on_event)

    def interrupt(self) -> None:
        """Terminate the child, from any thread: the job it runs raises
        :class:`WorkerDied` in :meth:`receive`, and the next job spawns
        a fresh child.  It only signals; the owning thread still closes."""
        proc = self._proc
        if proc is not None:
            proc.terminate()

    def close(self) -> None:
        """Stop the child: an idle one exits on the shutdown sentinel, a
        busy one is terminated (its job is abandoned).  The next job
        spawns a fresh child."""
        proc, conn, finalizer = self._proc, self._conn, self._finalizer
        self._proc = self._conn = self._finalizer = None
        busy, self._busy = self._busy, False
        if proc is None:
            return
        finalizer.cancel()
        _stop_child(proc, conn, graceful=not busy)
