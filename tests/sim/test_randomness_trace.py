"""Tests for seeded RNG streams and the tracer."""

from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.trace import RecordingSink, Tracer, format_record


def test_same_seed_same_stream():
    a = RandomStreams(42).stream("tcp.isn")
    b = RandomStreams(42).stream("tcp.isn")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(42)
    first = [streams.stream("one").random() for _ in range(5)]
    second = [streams.stream("two").random() for _ in range(5)]
    assert first != second


def test_stream_creation_order_does_not_matter():
    forward = RandomStreams(7)
    x1 = forward.stream("x").random()
    _ = forward.stream("y").random()

    backward = RandomStreams(7)
    _ = backward.stream("y").random()
    x2 = backward.stream("x").random()
    assert x1 == x2


def test_reseed_clears_streams():
    streams = RandomStreams(1)
    before = streams.stream("s").random()
    streams.reseed(1)
    after = streams.stream("s").random()
    assert before == after  # same seed reproduces from scratch


def test_tracer_disabled_by_default():
    tracer = Tracer()
    assert "tcp" not in tracer.categories  # the guards build nothing
    tracer.emit(0.0, "x", "y")  # no sinks: must be a no-op


def test_recording_sink_collects():
    tracer = Tracer()
    sink = RecordingSink()
    tracer.add_sink(sink)
    tracer.emit(1.0, "tcp", "send", seq=5)
    tracer.emit(2.0, "ip", "drop")
    assert len(sink.records) == 2
    assert sink.of_category("tcp")[0].fields == {"seq": 5}
    assert [r.event for r in sink.of_event("drop")] == ["drop"]


def test_category_filter():
    tracer = Tracer()
    sink = RecordingSink()
    tracer.add_sink(sink, categories=["tcp"])
    tracer.emit(0.0, "tcp", "send")
    tracer.emit(0.0, "ip", "drop")
    assert [r.category for r in sink.records] == ["tcp"]


def test_remove_sink_disables_when_empty():
    tracer = Tracer()
    sink = RecordingSink()
    tracer.add_sink(sink)
    tracer.remove_sink(sink)
    assert "tcp" not in tracer.categories


def test_removing_filtered_sink_drops_its_categories():
    tracer = Tracer()
    tcp_sink = RecordingSink()
    ip_sink = RecordingSink()
    tracer.add_sink(tcp_sink, categories=["tcp"])
    tracer.add_sink(ip_sink, categories=["ip"])
    tracer.remove_sink(tcp_sink)
    tracer.emit(0.0, "tcp", "send")
    tracer.emit(0.0, "ip", "drop")
    assert [r.category for r in ip_sink.records] == ["ip"]


def test_removing_wildcard_sink_restores_filter():
    tracer = Tracer()
    wildcard = RecordingSink()
    filtered = RecordingSink()
    tracer.add_sink(filtered, categories=["tcp"])
    tracer.add_sink(wildcard)
    tracer.emit(0.0, "ip", "drop")  # only the wildcard sink sees this
    assert [r.category for r in wildcard.records] == ["ip"]
    assert filtered.records == []
    tracer.remove_sink(wildcard)
    tracer.emit(0.0, "ip", "drop")  # filter is tight again
    tracer.emit(0.0, "tcp", "send")
    assert [r.category for r in filtered.records] == ["tcp"]
    assert tracer.categories == frozenset(["tcp"])


def test_two_differently_filtered_sinks_stay_isolated():
    # Regression: the union fast-path filter must not leak one sink's
    # categories into another — a ["tcp"] sink used to receive "link"
    # records whenever any other sink subscribed to them.
    tracer = Tracer()
    tcp_sink = RecordingSink()
    link_sink = RecordingSink()
    tracer.add_sink(tcp_sink, categories=["tcp"])
    tracer.add_sink(link_sink, categories=["link"])
    tracer.emit(0.0, "link", "drop")
    tracer.emit(0.0, "tcp", "send")
    tracer.emit(0.0, "nic", "rx_loss")  # matches neither sink
    assert [r.category for r in tcp_sink.records] == ["tcp"]
    assert [r.category for r in link_sink.records] == ["link"]


def test_remove_unknown_sink_is_noop():
    tracer = Tracer()
    sink = RecordingSink()
    tracer.add_sink(sink, categories=["tcp"])
    tracer.remove_sink(RecordingSink())
    tracer.emit(0.0, "tcp", "send")
    assert len(sink.records) == 1


def test_print_sink_renders():
    sink = RecordingSink()
    tracer = Tracer()
    tracer.add_sink(sink)
    tracer.emit(1.5, "tcp", "send", seq=10)
    (line,) = [format_record(record) for record in sink.records]
    assert "tcp/send" in line
    assert "seq=10" in line


def test_simulator_deterministic_across_runs():
    def run_once():
        sim = Simulator(seed=99)
        values = []

        def proc():
            rng = sim.random.stream("jitter")
            for _ in range(3):
                yield sim.timeout(rng.random())
                values.append(sim.now)

        sim.spawn(proc())
        sim.run()
        return values

    assert run_once() == run_once()
