"""The benchmark leaves no process behind.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from procs import _alive, adopt_orphans, descendants, stop_descendants  # noqa: E402


def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.02)


def test_orphan_is_adopted_stopped_and_reaped():
    adopt_orphans()
    # The shell exits at once; its background sleep is orphaned.
    shell = subprocess.Popen(["sh", "-c", "sleep 60 >/dev/null & echo $!"], stdout=subprocess.PIPE)
    orphan = int(shell.communicate()[0])
    _wait_for(lambda: orphan in descendants(os.getpid()))
    assert orphan in stop_descendants()
    assert not _alive(orphan)
    assert [pid for pid in descendants(os.getpid()) if pid == orphan] == []


def test_resource_tracker_is_stopped():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    tracker = resource_tracker._resource_tracker._pid
    assert _alive(tracker)
    stop_descendants()
    assert not _alive(tracker)
    assert tracker not in descendants(os.getpid())
