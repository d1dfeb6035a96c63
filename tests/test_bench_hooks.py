"""The benchmark's per-layer tracer rebinds named attributes of the program
(perfbench/layers.py, TARGETS).  Entering it here makes a rename or deletion
of any of them fail the test suite, not only a traced benchmark run."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from waldlines import bounds, cli, cubic, plane, space

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def untraced_parser():
    """Build cli.main's shared parser outside any tracer, and drop it after
    the test: a parser built under a tracer would stay cached with its
    parse_args recording into that tracer."""
    cli._parser.cache_clear()
    cli._parser()
    yield
    cli._parser.cache_clear()


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


def root_spans(layers, argv: list[str], code: int = 0) -> int:
    with layers.traced() as tracer:
        assert cli.main(argv) == code
    return sum(1 for span in tracer.spans if span[0] == "cubic.largest_root")


def test_largest_root_spans_one_per_root(tmp_path, monkeypatch):
    # the tracer rebinds largest_root in cubic, space, report and bounds and
    # counts cubic.largest_root.calls from the spans: one per root enclosed.
    # A new private binding would drop spans, a recursive call add them.
    layers = load_layers()
    # verify invariants decides every bound from the cubic's sign and
    # encloses no root, whether the bound holds or, just above e_s at
    # s = 20, as in test_invariants_bound_at_e_s, fails
    assert root_spans(layers, ["verify", "invariants", "--max-s", "20"]) == 0
    above = cubic.largest_root(20, F(1, 10**6)).hi
    closed_form = bounds.plane_degeneration_bound
    monkeypatch.setattr(bounds, "plane_degeneration_bound", lambda n: above if n == 20 else closed_form(n))
    assert root_spans(layers, ["verify", "invariants", "--max-s", "20"], code=1) == 0
    monkeypatch.undo()
    # the report binding: one enclosure per s reported
    cache = str(tmp_path / "c.json")
    assert root_spans(layers, ["table", ",".join(map(str, range(1, 21))), "--no-l", "--cache", cache]) == 20
    assert root_spans(layers, ["bound", "5", "--no-l", "--cache", cache]) == 1


def test_cache_traffic(tmp_path):
    # --no-l never opens the result cache; a search-bound run reads it once
    # per s and writes only on a miss
    layers = load_layers()
    cache = str(tmp_path / "c.json")
    with layers.traced() as tracer:
        assert cli.main(["table", "10,20", "--no-l", "--cache", cache]) == 0
    assert not {span[0] for span in tracer.spans} & {"cache.get", "cache.put"}
    with layers.traced() as tracer:
        for _ in range(2):
            assert cli.main(["bound", "5", "--cache", cache]) == 0
    counters, _, _ = layers.layer_metrics(tracer.spans, {None})
    assert (counters["cache.get.calls"], counters["cache.get.hits"], counters["cache.put.calls"]) == (2, 1, 1)


def test_parse_spans_do_not_grow():
    # the tracer wraps parse_args on each parser build_parser returns; the
    # shared parser must not be re-wrapped, so every call records the same
    # cli.parse spans (one per rational read) however many calls came before
    layers = load_layers()
    per_call = []
    with layers.traced() as tracer:
        for _ in range(5):
            before = len(tracer.spans)
            assert cli.main(["trace-t", "7;1,1,1,1,1;15", "--tau", "1/1000"]) == 0
            per_call.append(sum(1 for span in tracer.spans[before:] if span[0] == "cli.parse"))
    assert per_call == [per_call[0]] * 5 and per_call[0] > 0


def test_trace_t_records_one_kernel_span():
    # a traced trace-t op must reach the rebound plane.quadric_threshold
    # once: its t0 is the kernel's, its steps the reference reduction's
    layers = load_layers()
    with layers.traced() as tracer:
        assert cli.main(["trace-t", "7;1,1,1,1,1;15"]) == 0
    assert [span[0] for span in tracer.spans].count("plane.quadric_threshold") == 1


def test_kernel_spans_per_step():
    # plane.quadric_threshold spans: the loop records one per step that
    # records a t0, all but a final "yes", each inside its certify span;
    # the replay, which has no span of its own, one per subtraction
    layers = load_layers()
    for delta, s in ((F(4), 8), (F(10), 2)):
        with layers.traced() as tracer:
            res = space.certify_lower_bound(delta, s, F(1, 1000))
        moves = res.certificate[2]
        kernel = [span for span in tracer.spans if span[0] == "plane.quadric_threshold"]
        assert len(kernel) == len(moves) - res.answer
        assert {span[3] for span in kernel} == {0}  # the certify span
        with layers.traced() as tracer:
            space.replay_degeneration(res, F(1, 1000))
        kernel = [span for span in tracer.spans if span[0] == "plane.quadric_threshold"]
        assert len(kernel) == sum(move is space.LMove.SUBTRACT for move, _ in moves)
        assert {span[3] for span in kernel} <= {-1}


def test_threshold_summary_reads():
    # _threshold_info reads .steps and .t0.denominator of every kernel
    # result; tests build a ThresholdResult from three positional fields
    layers = load_layers()
    made = plane.ThresholdResult(F(1, 2), 0, 0)
    assert (made.t0, made.cremona, made.merge, made.steps) == (F(1, 2), 0, 0, ())
    assert layers._threshold_info(made) == (0, 0, 2)  # 2 has two bits
    got = plane.quadric_threshold(plane.SpaceSystem(F(4), (F(1),) * 3, 5), F(1, 1000))
    assert got == plane.ThresholdResult(F(4, 7), got.cremona, got.merge) and got.steps == ()
    assert layers._threshold_info(got) == (0, 0, 3)


def test_search_pass_counters():
    # the counters of one untimed search pass (best_bound for s = 6..10),
    # as --trace 1 reports them
    layers = load_layers()
    with layers.traced() as tracer:
        for s in range(6, 11):
            space.best_bound(s, F(1, 1000), F(1, 1000))
    counters, _, _ = layers.layer_metrics(tracer.spans, {None})
    assert counters["space.best_bound.probes"] == 58
    assert counters["space.certify_lower_bound.steps_subtract"] == 606
    assert counters["space.certify_lower_bound.steps_specialize"] == 365
    assert counters["space.certify_lower_bound.answers_yes"] == 34
    assert counters["plane.quadric_threshold.calls"] == 995
    assert counters["linform.max_den_bits"] == 40
