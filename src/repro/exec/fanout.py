"""Deterministic shard fan-out: the one process-pool primitive.

Every shardable workload — the synthesis runtime
(:mod:`repro.exec.runtime`) and the differential-testing campaigns of
:mod:`repro.difftest` — runs through here: build per-process state once,
ship only shard indices across the pipe, and let the caller restore a
deterministic order afterwards.  This is the only module that imports
:mod:`multiprocessing`.

A :class:`FanoutTask` names two module-level functions (picklable by
reference under both fork and spawn start methods):

* ``setup(payload) -> state`` — runs once per worker process;
* ``work(state, shard_index) -> result`` — runs once per shard.

:func:`fanout` streams ``(index, result)`` pairs in completion order, so
callers can checkpoint and report progress per shard; :func:`run_fanout`
collects every shard ordered by index.  ``jobs=1`` runs in-process with
no pool at all — the two paths produce identical results, which is what
lets callers promise ``--jobs N`` output is byte-identical to
sequential.

A second shape lives here for long-lived hosts: :class:`ResidentProcess`
runs a :class:`ResidentTask` in one dedicated child process that
*persists across jobs* (per-process setup runs once, warm state
survives), streams structured progress events back over the pipe while
a job runs, and is individually restartable — the bridge the service
daemon's process-backed worker pool is built on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

__all__ = [
    "FanoutTask",
    "ResidentProcess",
    "ResidentTask",
    "RemoteJobError",
    "WorkerDied",
    "fanout",
    "run_fanout",
]


@dataclass(frozen=True)
class FanoutTask:
    """A shardable workload: per-process setup plus per-shard work.

    ``setup`` and ``work`` must be module-level functions and ``payload``
    picklable, so the task crosses process boundaries intact.
    """

    setup: Callable[[Any], Any]
    work: Callable[[Any, int], Any]
    payload: Any
    shard_count: int

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError(
                f"shard count must be >= 1, got {self.shard_count}"
            )


def fanout(
    task: FanoutTask, indices: Iterable[int] | None = None, jobs: int = 1
) -> Iterator[tuple[int, Any]]:
    """Run ``task``'s shards over ``jobs`` workers, streaming results.

    Runs every shard, or only ``indices`` (a resume's pending set), and
    yields ``(index, result)`` as each shard completes — in index order
    in-process, in completion order from a pool.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    pending = list(range(task.shard_count) if indices is None else indices)
    if not pending:
        return
    if jobs == 1:
        state = task.setup(task.payload)
        for index in pending:
            yield index, task.work(state, index)
        return
    import multiprocessing as mp

    with mp.Pool(
        processes=min(jobs, len(pending)),
        initializer=_init_worker,
        initargs=(task,),
    ) as pool:
        yield from pool.imap_unordered(_run_shard, pending, chunksize=1)


def run_fanout(task: FanoutTask, jobs: int = 1) -> list[Any]:
    """Run every shard of ``task`` over ``jobs`` workers.

    Returns one result per shard, ordered by shard index regardless of
    completion order.
    """
    indexed = sorted(fanout(task, jobs=jobs), key=lambda pair: pair[0])
    return [result for _, result in indexed]


# -- resident worker processes ------------------------------------------------


class WorkerDied(RuntimeError):
    """The resident child process vanished mid-job (killed, crashed, or
    closed its pipe).  The job it was running is lost; the parent-side
    :class:`ResidentProcess` stays usable — the next job spawns a fresh
    child."""


class RemoteJobError(RuntimeError):
    """A job raised inside the resident child process.

    The child stays alive (its warm state intact); only the one job
    failed.  ``exc_type`` is the remote exception's class name — the
    exception object itself never crosses the pipe, so arbitrary
    unpicklable errors still report cleanly.
    """

    def __init__(self, exc_type: str, message: str):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type


@dataclass(frozen=True)
class ResidentTask:
    """A long-lived workload: per-process setup plus per-job work.

    Like :class:`FanoutTask`, ``setup`` and ``work`` must be
    module-level functions and ``payload`` picklable.  ``work`` takes
    ``(state, job, emit)`` where ``emit`` publishes one JSON-safe event
    dict back to the parent mid-job.
    """

    setup: Callable[[Any], Any]
    work: Callable[[Any, Any, Callable[[dict], None]], Any]
    payload: Any


def _resident_main(task: ResidentTask, conn: Any) -> None:
    """Child-process loop: one job in, events out, one answer per job."""
    try:
        state = task.setup(task.payload)
        while True:
            try:
                job = conn.recv()
            except EOFError:
                return
            if job is None:  # shutdown sentinel
                return
            try:
                result = task.work(
                    state, job, lambda event: conn.send(("event", event))
                )
            except Exception as exc:  # noqa: BLE001 — report, keep serving
                conn.send(("error", (type(exc).__name__, str(exc))))
            else:
                conn.send(("result", result))
    finally:
        conn.close()


class ResidentProcess:
    """One resident child process running :class:`ResidentTask` jobs.

    The child is spawned lazily on the first job and persists across
    jobs, so state built by ``task.setup`` (warm checkers, solver
    sessions) is reused.  A child that dies mid-job raises
    :class:`WorkerDied` for that job only; the next job transparently
    spawns a replacement.  :meth:`restart` recycles the child on
    purpose — on-disk state (CNF caches) survives, in-memory state is
    rebuilt.
    """

    def __init__(self, task: ResidentTask):
        self.task = task
        self._proc: Any = None
        self._conn: Any = None

    @property
    def pid(self) -> int | None:
        """The live child's PID (None before first use / after close)."""
        return self._proc.pid if self._proc is not None else None

    def _ensure(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            return
        self._reap()
        import multiprocessing as mp

        parent, child = mp.Pipe()
        proc = mp.Process(
            target=_resident_main, args=(self.task, child), daemon=True
        )
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent

    def _reap(self) -> None:
        if self._conn is not None:
            self._conn.close()
        if self._proc is not None:
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5.0)
        self._proc = self._conn = None

    def run(
        self, job: Any, on_event: Callable[[dict], None] | None = None
    ) -> Any:
        """Run one job in the resident child, streaming events out.

        Raises :class:`RemoteJobError` when the job itself raised (child
        survives) and :class:`WorkerDied` when the child vanished (job
        lost, next ``run`` respawns).
        """
        self._ensure()
        try:
            self._conn.send(job)
            while True:
                kind, value = self._conn.recv()
                if kind == "event":
                    if on_event is not None:
                        on_event(value)
                elif kind == "result":
                    return value
                else:
                    raise RemoteJobError(*value)
        except (EOFError, OSError, BrokenPipeError) as exc:
            self._reap()
            raise WorkerDied(
                f"resident worker died mid-job ({type(exc).__name__})"
            ) from exc

    def restart(self) -> None:
        """Recycle the child: shut it down; the next job respawns."""
        self.close()

    def close(self) -> None:
        """Shut the child down (graceful sentinel, then terminate)."""
        if self._conn is not None:
            try:
                self._conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        self._reap()


# -- pool plumbing -----------------------------------------------------------

_TASK: FanoutTask | None = None
_STATE: Any = None


def _init_worker(task: FanoutTask) -> None:
    global _TASK, _STATE
    _TASK = task
    _STATE = task.setup(task.payload)


def _run_shard(shard_index: int) -> tuple[int, Any]:
    assert _TASK is not None, "fanout pool was started without _init_worker"
    return shard_index, _TASK.work(_STATE, shard_index)
