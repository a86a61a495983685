"""The benchmark's span wrappers and its answer check.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from httpload import Exchange  # noqa: E402
from spans import Tracer, write_spans  # noqa: E402
from workloads import check_reads  # noqa: E402


class Layer:
    def work(self, n):
        return list(range(n))

    @staticmethod
    def helper(x):
        return x * 2


def test_wrap_records_nested_spans_and_restores():
    tracer = Tracer()
    module = types.SimpleNamespace(outer=None)
    layer = Layer()

    def outer(n):
        return layer.work(n)

    module.outer = outer
    work, helper = Layer.__dict__["work"], Layer.__dict__["helper"]
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(Layer, "work", "work", on_return=lambda a, r, attrs: attrs.update(rows=len(r)))
    tracer.wrap(Layer, "helper", "helper")
    try:
        assert module.outer(3) == [0, 1, 2]
        assert Layer.helper(4) == 8 and layer.helper(5) == 10
    finally:
        tracer.restore()
    assert module.outer is outer
    assert Layer.__dict__["work"] is work
    assert Layer.__dict__["helper"] is helper
    outer_span, = tracer.named("outer")
    work_span, = tracer.named("work")
    assert work_span["parent"] == outer_span["id"]
    assert outer_span["parent"] is None
    assert work_span["rows"] == 3
    assert outer_span["start"] <= work_span["start"] <= work_span["end"] <= outer_span["end"]
    assert len(tracer.named("helper")) == 2


def test_request_id_and_parents_stay_per_thread(tmp_path):
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def serve(request_id):
        tracer.request_id.set(request_id)
        with tracer.span("request"):
            barrier.wait()
            with tracer.span("inner"):
                pass

    threads = [threading.Thread(target=serve, args=(f"r{i}",)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s["id"]: s for s in tracer.spans}
    for inner in tracer.named("inner"):
        assert by_id[inner["parent"]]["request_id"] == inner["request_id"]
    path = tmp_path / "spans.jsonl"
    write_spans(path, tracer.spans)
    assert len(path.read_text().splitlines()) == 4
    assert json.loads(path.read_text().splitlines()[0])["name"] in ("inner", "request")


def test_wrap_rejects_coroutines():
    async def handler():
        return None

    holder = types.SimpleNamespace(handler=handler)
    with pytest.raises(TypeError):
        Tracer().wrap(holder, "handler", "handler")


def _read(item, coords):
    body = json.dumps({"locations": np.asarray(coords).tolist(), "n": len(coords)})
    return Exchange("read", item, 0.0, 0.0, 0.0, 200, body.encode())


def test_check_reads_accepts_exact_answers_and_forward_version_moves():
    rows = [np.array([0, 1]), np.array([2])]
    v1 = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    v2 = v1 + 0.5
    reads = [_read(0, v1[[0, 1]]), _read(1, v2[[2]]), _read(0, v2[[0, 1]])]
    assert check_reads(reads, rows, [v1, v2]) == []
    # A failed request is counted elsewhere, never checked.
    failed = Exchange("read", 0, 0.0, 0.0, 0.0, 0, b"", "timeout")
    assert check_reads([failed], rows, [v1]) == []


def test_check_reads_rejects_wrong_mixed_and_backward_answers():
    rows = [np.array([0, 1])]
    v1 = np.array([[0.0, 0.0], [1.0, 1.0]])
    v2 = v1 + 0.5
    off_by_one_ulp = v1.copy()
    off_by_one_ulp[1, 0] = np.nextafter(1.0, 2.0)
    assert check_reads([_read(0, off_by_one_ulp)], rows, [v1])
    mixed = np.vstack([v1[0], v2[1]])
    assert check_reads([_read(0, mixed)], rows, [v1, v2])
    assert check_reads([_read(0, v2), _read(0, v1)], rows, [v1, v2])
    assert check_reads([_read(0, v1[:1])], rows, [v1])
