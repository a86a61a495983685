"""Launch, time, measure and stop ``repro serve`` processes.

Set-up time is what an operator waits for: from process launch to the
first ``200`` from ``/healthz``, with an empty model directory, so the
fit (and, for fleets, suite generation and worker spawn) is inside it.
The server and everything it writes stay inside the run directory:
the model directory, observation buffers and ``TMPDIR`` all live there.

No process outlives a run: each server leads a process group of its
own, the benchmark adopts every orphan below it (``adopt_orphans``),
and ``stop_descendants`` stops and reaps whatever is left on the way
out, including the multiprocessing resource tracker that an in-process
fleet starts.
"""

from __future__ import annotations

import ctypes
import gc
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from httpload import Connection, encode_request

#: A server that is not answering ``/healthz`` by then has failed to start.
SETUP_TIMEOUT_S = 120.0

#: ``prctl`` option: orphaned descendants are re-parented to the caller.
PR_SET_CHILD_SUBREAPER = 36


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _stat_fields(field: int, value: int) -> list[int]:
    """Pids whose ``/proc/<pid>/stat`` field ``field`` (4 = ppid, 5 = pgrp) is ``value``."""
    out: list[int] = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields from 3 on follow the parenthesised command name.
        if int(stat.rpartition(")")[2].split()[field - 3]) == value:
            out.append(int(entry.name))
    return out


def _children(pid: int) -> list[int]:
    return _stat_fields(4, pid)


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        kids = _children(frontier.pop())
        found.extend(kids)
        frontier.extend(kids)
    return found


def _reap_children() -> None:
    """Collect the exit status of every child of this process that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _kill(pids: list[int], sig: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            continue


def adopt_orphans() -> None:
    """Become the reaper of every orphan below this process (Linux only).

    A process whose parent exits is then re-parented here rather than
    to init, so ``stop_descendants`` still finds and stops it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_descendants(grace_s: float = 5.0, timeout_s: float = 20.0) -> list[int]:
    """Stop every process below this one and wait until each has ended.

    The multiprocessing resource tracker is closed first (it exits on
    its own once its pipe closes); anything else gets ``SIGTERM``, then
    ``SIGKILL`` after ``grace_s``. Returns the pids that had to be
    signalled.
    """
    gc.collect()
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # best effort: the sweep below still runs
        pass
    signalled: list[int] = []
    start = time.monotonic()
    while True:
        _reap_children()
        left = [pid for pid in descendants(os.getpid()) if _alive(pid)]
        if not left:
            return signalled
        waited = time.monotonic() - start
        if waited > timeout_s:
            raise RuntimeError(f"processes {left} would not stop")
        signalled.extend(pid for pid in left if pid not in signalled)
        _kill(left, signal.SIGKILL if waited > grace_s else signal.SIGTERM)
        time.sleep(0.05)


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


class ServerProcess:
    """One ``python -m repro.cli serve ...`` child on a private port."""

    def __init__(self, root: Path, run_dir: Path, serve_args: list[str]) -> None:
        self.root = root
        self.run_dir = run_dir
        self.model_dir = run_dir / "models"
        self.port = free_port()
        self.args = [
            sys.executable, "-m", "repro.cli", "serve", *serve_args,
            "--port", str(self.port), "--model-dir", str(self.model_dir),
        ]
        self.proc: subprocess.Popen | None = None
        self.setup_s: float | None = None

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns the set-up seconds."""
        tmp = self.run_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(tmp)
        log = (self.run_dir / "server.log").open("wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.args, cwd=self.root, env=env, stdout=log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        log.close()
        probe = encode_request("GET", "/healthz")
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} during set-up; "
                    f"see {self.run_dir / 'server.log'}"
                )
            if time.perf_counter() - t0 > SETUP_TIMEOUT_S:
                raise RuntimeError("server did not answer /healthz in time")
            conn = Connection(self.port, timeout=2.0)
            try:
                status, _ = conn.roundtrip(probe)
                if status == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - t0
        return self.setup_s

    def tree(self) -> list[int]:
        assert self.proc is not None
        return [self.proc.pid, *descendants(self.proc.pid)]

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its worker processes, in MiB."""
        return peak_rss_mb(self.tree())

    def stop(self) -> None:
        """SIGTERM (clean shutdown), then SIGKILL whatever is left.

        Returns once the server, every process it started and every
        member of its process group have ended.
        """
        if self.proc is None:
            return
        pgid = self.proc.pid
        tree = self.tree() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 10
        while True:
            _reap_children()
            left = [pid for pid in {*tree[1:], *_stat_fields(5, pgid)} if _alive(pid)]
            if not left:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"server processes {left} would not stop")
            _kill(left, signal.SIGKILL)
            time.sleep(0.02)
        self.proc = None
