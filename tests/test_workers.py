"""Parts of a job run in the calling process and in forked children."""

import mmap
import os
import time

import numpy as np
import pytest

from sst import workers
from sst.errors import DataError


def shared(n):
    """n float64 zeros that forked children write into the caller's memory."""
    return np.frombuffer(mmap.mmap(-1, 8 * n))


class TestRunParts:
    def test_first_part_in_the_caller_the_rest_in_children(self, monkeypatch):
        monkeypatch.setattr(workers, "cpus", lambda: 3)
        pids = shared(5)

        def task(part):
            pids[part] = os.getpid()
        workers.run_parts(task, list(range(5)), str)
        assert pids[0] == os.getpid()
        assert len({*pids[1:]} - {os.getpid()}) == 4

    def test_at_most_one_child_less_than_cpus_at_once(self, monkeypatch):
        monkeypatch.setattr(workers, "cpus", lambda: 3)
        spans = shared(2 * 6).reshape(6, 2)

        def task(part):
            spans[part, 0] = time.monotonic()
            time.sleep(0.2)
            spans[part, 1] = time.monotonic()
        workers.run_parts(task, list(range(6)), str)
        children = spans[1:]
        running = [sum(start <= t < end for start, end in children) for t in children[:, 0]]
        assert max(running) == 2

    def test_one_cpu_runs_every_part_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(workers, "cpus", lambda: 1)
        pids = []
        workers.run_parts(lambda part: pids.append(os.getpid()), list(range(3)), str)
        assert pids == [os.getpid()] * 3

    def test_the_earliest_failed_part_is_raised_after_every_child_ends(self, monkeypatch):
        monkeypatch.setattr(workers, "cpus", lambda: 4)

        def task(part):
            if part:
                time.sleep(0.1 * (3 - part))
                raise DataError(f"part {part}")
        with pytest.raises(DataError, match="^part 1$"):
            workers.run_parts(task, list(range(4)), str)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_os_error_keeps_its_class_and_message(self, monkeypatch):
        monkeypatch.setattr(workers, "cpus", lambda: 2)

        def task(part):
            if part:
                open(os.path.join(os.devnull, "absent"), "rb")
        with pytest.raises(NotADirectoryError, match=r"absent'$"):
            workers.run_parts(task, [0, 1], str)
