"""The benchmark tracer's targets exist, so a rename shows up in the unit tests.

``perfbench/bench_workloads.py`` wraps each ``(owner, attribute)`` of
``trace_targets()`` for a ``--trace 1`` run and reads it with
``vars(owner)[attribute]``; a refactor that drops one of those names would
otherwise break only the traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_is_bound_on_its_owner():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench_workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    targets = bench_workloads.trace_targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
