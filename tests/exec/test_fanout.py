"""Generic deterministic shard fan-out (repro.exec.fanout)."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.exec.fanout import ResidentProcess, ResidentTask, run_fanout


# Module-level so the children can pickle them by reference under both
# the fork and spawn start methods.
def _setup(payload):
    return {"base": payload["base"], "pid": os.getpid()}


def _work(state, shard_index, emit):
    return state["base"] + shard_index


def _work_pid(state, shard_index, emit):
    return (shard_index, state["pid"])


def _raise(state, shard_index, emit):
    raise RuntimeError(f"shard {shard_index} exploded")


def _task(work=_work):
    return ResidentTask(setup=_setup, work=work, payload={"base": 100})


class TestRunFanout:
    def test_sequential(self):
        assert run_fanout(_task(), 6, jobs=1) == [100, 101, 102, 103, 104, 105]

    def test_parallel_matches_sequential(self):
        assert run_fanout(_task(), 6, jobs=3) == run_fanout(_task(), 6, jobs=1)

    def test_results_ordered_by_shard_index(self):
        results = run_fanout(_task(work=_work_pid), 6, jobs=2)
        assert [i for i, _ in results] == list(range(6))

    def test_setup_runs_once_per_worker(self):
        results = run_fanout(_task(work=_work_pid), 8, jobs=2)
        pids = {pid for _, pid in results}
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_jobs_one_stays_in_process(self):
        results = run_fanout(_task(work=_work_pid), 6, jobs=1)
        assert {pid for _, pid in results} == {os.getpid()}

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="exploded") as excinfo:
            run_fanout(_task(work=_raise), 6, jobs=2)
        assert excinfo.value.exc_type == "RuntimeError"
        with pytest.raises(RuntimeError, match="shard 0 exploded"):
            run_fanout(_task(work=_raise), 6, jobs=1)

    def test_more_jobs_than_shards(self):
        assert run_fanout(_task(), 2, jobs=8) == [100, 101]


def _no_state(payload):
    return None


def _die_at_3(state, shard_index, emit):
    if shard_index == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return shard_index


def _setup_raises(payload):
    raise KeyError("no model named 'permissive'")


def _identity(payload):
    return payload


def _nap(directory, shard_index, emit):
    with open(os.path.join(directory, f"{os.getpid()}.pid"), "w"):
        pass
    time.sleep(60)


def _fan_out_naps(state, directory, emit):
    return run_fanout(ResidentTask(_identity, _nap, directory), 2, jobs=2)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def run_script(body: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter, so a hang fails the test
    (``TimeoutExpired``) instead of wedging the whole run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, root])}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestChildFailures:
    """A dead or failing child fails the fan-out at once instead of
    hanging it."""

    def test_killed_child_raises_worker_died(self):
        proc = run_script(
            """
            import time
            from repro.exec.fanout import ResidentTask, WorkerDied, fanout
            from tests.exec.test_fanout import _die_at_3, _no_state

            start = time.monotonic()
            done = []
            try:
                task = ResidentTask(_no_state, _die_at_3, None)
                for index, _ in fanout(task, range(4), 2):
                    done.append(index)
            except WorkerDied:
                print("WorkerDied", len(done), 3 in done, time.monotonic() - start)
            """
        )
        assert proc.returncode == 0, proc.stderr
        verdict, completed, killed_done, seconds = proc.stdout.split()
        assert verdict == "WorkerDied"
        assert int(completed) >= 2 and killed_done == "False"
        assert float(seconds) < 10

    def test_setup_failure_reports_type_and_message(self):
        proc = run_script(
            """
            from repro.exec.fanout import RemoteJobError, ResidentTask, run_fanout
            from tests.exec.test_fanout import _setup_raises, _work

            try:
                run_fanout(ResidentTask(_setup_raises, _work, None), 4, jobs=2)
            except RemoteJobError as exc:
                print(exc.exc_type, exc)
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("KeyError KeyError: ")
        assert "permissive" in proc.stdout

    def test_terminated_child_stops_the_children_it_fanned_out_to(
        self, tmp_path
    ):
        proc = ResidentProcess(ResidentTask(_no_state, _fan_out_naps, None))
        try:
            proc.send(str(tmp_path))
            deadline = time.monotonic() + 30
            while len(list(tmp_path.glob("*.pid"))) < 2:
                assert time.monotonic() < deadline, "the fan-out never started"
                time.sleep(0.05)
        finally:
            proc.close()  # busy: terminates the child mid-job
        deadline = time.monotonic() + 5
        for path in tmp_path.glob("*.pid"):
            while _alive(int(path.stem)):
                assert time.monotonic() < deadline, "a grandchild outlived it"
                time.sleep(0.05)
