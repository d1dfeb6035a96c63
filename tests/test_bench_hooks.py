"""The benchmark's per-layer tracer rebinds named attributes of the program
(perfbench/layers.py, TARGETS).  Entering it here makes a rename or deletion
of any of them fail the test suite, not only a traced benchmark run."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from waldlines import cli, space

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


def root_spans(layers, argv: list[str]) -> int:
    with layers.traced() as tracer:
        assert cli.main(argv) == 0
    return sum(1 for span in tracer.spans if span[0] == "cubic.largest_root")


def test_largest_root_spans_one_per_root(tmp_path):
    # the tracer rebinds largest_root in cubic, space, report and bounds and
    # counts cubic.largest_root.calls from the spans: one per root enclosed.
    # A new private binding would drop spans, a recursive call add them.
    layers = load_layers()
    assert root_spans(layers, ["verify", "invariants", "--max-s", "20"]) == 20
    cache = str(tmp_path / "c.json")
    assert root_spans(layers, ["bound", "5", "--no-l", "--cache", cache]) == 1


def test_trace_t_records_one_kernel_span():
    # a traced trace-t op must reach the rebound plane.quadric_threshold
    # once: its t0 is the kernel's, its steps the reference reduction's
    layers = load_layers()
    with layers.traced() as tracer:
        assert cli.main(["trace-t", "7;1,1,1,1,1;15"]) == 0
    assert [span[0] for span in tracer.spans].count("plane.quadric_threshold") == 1
