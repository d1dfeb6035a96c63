"""The benchmark's per-layer tracer rebinds named attributes of the program
(perfbench/layers.py, TARGETS).  Entering it here makes a rename or deletion
of any of them fail the test suite, not only a traced benchmark run."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from waldlines import space

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    layers = load_layers()
    original = space.certify_lower_bound
    with layers.traced() as tracer:
        assert space.certify_lower_bound(4, 8, F(1, 1000)).answer
    assert space.certify_lower_bound is original
    names = {span[0] for span in tracer.spans}
    assert {"space.certify_lower_bound", "plane.quadric_threshold"} <= names
    # the span's summary of (4; 1^8), read off the trace the result rebuilds
    # on demand: answer, SUBTRACT and SPECIALIZE counts, and the largest
    # denominator bit-length, as the eagerly traced loop reported them
    summaries = [span[5] for span in tracer.spans if span[0] == "space.certify_lower_bound"]
    assert summaries == [(True, 10, 4, 23)]

