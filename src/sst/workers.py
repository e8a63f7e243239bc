"""Work split over forked processes, at most one process per CPU.

The calling process runs the first part of a job itself and forked children
run the others. Children inherit the parent's memory through fork, so a part
reads its inputs without pickling, and writes its results into memory that
parent and children share (an anonymous shared mmap, say). A child sends
back only the exception that ends its part.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import sys
from typing import Callable, Sequence, TypeVar

from .errors import WorkerError

Part = TypeVar("Part")


def cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_parts(task: Callable[[Part], None], parts: Sequence[Part],
              describe: Callable[[Part], str]) -> None:
    """Run task(part) for every part: the first in the calling process, each
    other in a forked child.

    At most cpus() - 1 children run at a time; the next part is forked as one
    ends. With one CPU every part runs in the calling process, in order.
    A child sends back the exception that ends its part, pickled, through a
    pipe, and always leaves by os._exit. Every child is reaped on every
    path; if the calling process's own part or its wait raises, KeyboardInterrupt
    included, the children are killed first. Once all are reaped, the exception
    of the earliest part that failed is raised: the child's own, of the same
    class and message, or a WorkerError naming describe(part) and the exit
    status of a child that ended without reporting one.
    """
    slots = cpus() - 1
    if slots < 1:
        for part in parts:
            task(part)
        return
    pending = list(enumerate(parts))[1:]
    children: dict[int, tuple[int, int]] = {}   # read end of its pipe -> (pid, part index)
    failures: dict[int, BaseException] = {}
    try:
        _fork_up_to(slots, task, pending, children)
        if parts:
            task(parts[0])
        while children:
            ready, _, _ = select.select(list(children), [], [])
            for fd in ready:
                pid, index = children[fd]
                with open(fd, "rb", closefd=False) as pipe:
                    report = pipe.read()
                _, status = os.waitpid(pid, 0)
                del children[fd]
                os.close(fd)
                if report or status:
                    failures[index] = _child_error(report, status, describe(parts[index]))
            _fork_up_to(slots, task, pending, children)
    except BaseException:
        for fd, (pid, _) in children.items():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(fd)
        raise
    if failures:
        raise failures[min(failures)]


def _fork_up_to(slots: int, task, pending: list, children: dict) -> None:
    """Fork children for the next pending parts while fewer than slots run."""
    while pending and len(children) < slots:
        index, part = pending.pop(0)
        read_end, write_end = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            _child(task, part, read_end, write_end)
        os.close(write_end)
        children[read_end] = (pid, index)


def _child(task, part, read_end: int, write_end: int) -> None:
    """A forked child's whole life: run its part, report how it ended, exit."""
    code = 1
    try:
        os.close(read_end)
        try:
            task(part)
            code = 0
        except BaseException as exc:
            report = pickle.dumps(exc)
            with open(write_end, "wb") as pipe:
                pipe.write(report)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _child_error(report: bytes, status: int, name: str) -> BaseException:
    """The exception a child reported, or a WorkerError for one that ended
    without a readable report."""
    if report:
        with contextlib.suppress(Exception):
            return pickle.loads(report)
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return WorkerError(f"the worker process for {name} {how} without reporting an error")
