"""The benchmark record's per-layer figures over the first traced ops."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
from bench_record import first_ops  # noqa: E402


def test_first_ops_counts_and_self_times(tmp_path):
    # op 7: root [0, 10] with a child "a" [1, 5] that has a child "b" [2, 3];
    # op 8: root [10, 14] with one "b" [11, 12]; op 9 lies beyond count=2
    path = tmp_path / "spans.npz"
    np.savez(path, layers=np.array(["op", "a", "b"]),
             op=np.array([7, 7, 7, 8, 8, 9], np.int32),
             parent=np.array([-1, 0, 1, -1, 3, -1], np.int32),
             layer=np.array([0, 1, 2, 0, 2, 0], np.int32),
             start=np.array([0.0, 1.0, 2.0, 10.0, 11.0, 20.0]),
             end=np.array([10.0, 5.0, 3.0, 14.0, 12.0, 90.0]))
    got = first_ops(str(path), count=2)
    assert got["ops"] == [7, 8]
    assert got["layers"] == {
        "op": {"calls": 1.0, "self_s": pytest.approx((6.0 + 3.0) / 2)},
        "a": {"calls": 0.5, "self_s": pytest.approx(3.0 / 2)},
        "b": {"calls": 1.0, "self_s": pytest.approx((1.0 + 1.0) / 2)},
    }
