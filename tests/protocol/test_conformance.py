"""Sim/wire conformance: identical traces must yield identical decisions."""

import importlib.util
from pathlib import Path

import pytest

from tests.protocol import conformance

GENERATOR = Path(__file__).resolve().parents[2] / "scripts" / "regenerate_traces.py"


def _traces():
    paths = conformance.trace_paths()
    assert paths, "conformance trace corpus is empty; run scripts/regenerate_traces.py"
    return paths


@pytest.mark.parametrize("path", _traces(), ids=lambda p: p.stem)
def test_sim_and_net_drivers_decide_identically(path):
    trace = conformance.load_trace(path)
    sim_decisions = conformance.run_sim_trace(trace)
    net_decisions = conformance.run_net_trace(trace)
    assert sim_decisions == net_decisions


@pytest.mark.parametrize("path", _traces(), ids=lambda p: p.stem)
def test_traces_exercise_the_protocol(path):
    """Guard the corpus itself: every trace transmits and (where scripted)
    completes -- a trace that goes quiet would make conformance vacuous."""
    trace = conformance.load_trace(path)
    decisions = conformance.run_sim_trace(trace)
    assert any(d[0] == "packet" for d in decisions)
    completed = any(d[0] == "complete" for d in decisions)
    assert completed == trace["expect_complete"]


def _generated():
    """Each trace ``scripts/regenerate_traces.py`` defines, as the file name
    and text it would write."""
    spec = importlib.util.spec_from_file_location("regenerate_traces", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    expected = {}
    for build in generator.TRACES:
        trace = build()
        expected[f"{trace['name']}.json"] = generator.render(trace)
    return expected


GENERATED = _generated()


def test_every_trace_file_has_a_generator_entry():
    """No trace file lacks a definition, and no definition lacks a file."""
    assert sorted(path.name for path in _traces()) == sorted(GENERATED)


@pytest.mark.parametrize("name", sorted(GENERATED), ids=lambda name: name[:-len(".json")])
def test_corpus_is_exactly_what_its_generator_writes(name):
    """Every trace file is byte-identical to its definition in
    ``scripts/regenerate_traces.py``: an edit to either side alone fails here."""
    on_disk = (conformance.TRACES_DIR / name).read_text(encoding="utf-8")
    assert on_disk == GENERATED[name], f"{name} drifted; run scripts/regenerate_traces.py"


def test_trace_times_are_monotonic():
    for path in _traces():
        trace = conformance.load_trace(path)
        times = [event["t"] for event in trace["events"]]
        assert times == sorted(times), f"{path.stem} events out of order"
        assert trace["horizon"] >= times[-1]


def test_wire_round_trip_is_part_of_the_net_path():
    """The net replay must round-trip payloads through the wire codec --
    sabotaging the codec has to break conformance, not pass silently."""
    trace = conformance.load_trace(conformance.trace_paths()[0])
    from repro.net import wire

    original = wire.encode_frame
    try:
        wire.encode_frame = lambda payload, sent_at=0.0: (_ for _ in ()).throw(
            wire.WireError("sabotaged")
        )
        # conformance.py imported the names at module load; patch there too.
        conformance.encode_frame, saved = wire.encode_frame, conformance.encode_frame
        try:
            with pytest.raises(wire.WireError):
                conformance.run_net_trace(trace)
        finally:
            conformance.encode_frame = saved
    finally:
        wire.encode_frame = original
