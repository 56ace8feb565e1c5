"""Cross-shard trace stitching and truncated-stream tolerance."""

import json

from repro.obs.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TRUNCATED,
    EXIT_USAGE,
)
from repro.obs.spans import Span, write_span_stream
from repro.obs.stitch import (
    MIGRATION_SPAN_NAME,
    format_timeline,
    stitch_spans,
)
from repro.obs.tracer import NullTracer
from tests.obs.test_cli import _write_trace, run_cli


def _shard_stream(shard, slots, traces, miss_slots=()):
    """One shard's slot spans; ``traces`` maps seat -> trace id."""
    tracer = NullTracer()
    spans = []
    for slot in slots:
        builder = tracer.slot(slot, slot * 0.016)
        builder.stage("allocate", slot * 0.016, slot * 0.016 + 0.003)
        for seat, trace in traces.items():
            builder.user(seat, level=2, trace=trace)
        spans.append(
            builder.finish(
                slot * 0.016 + 0.015,
                deadline_hit=slot not in miss_slots,
                shard=shard,
            )
        )
    return spans


def _migration(trace, slot, source, target, reason="rebalance", seq=0,
               client="client-0"):
    return Span(
        name=MIGRATION_SPAN_NAME,
        start_s=float(slot),
        duration_s=0.0,
        attrs={
            "trace": trace,
            "client": client,
            "source_shard": source,
            "target_shard": target,
            "slot": slot,
            "reason": reason,
            "seq": seq,
        },
    )


class TestStitchSpans:
    def test_migrated_session_bridges_two_segments(self):
        streams = [
            _shard_stream(0, range(0, 6), {0: "aaaa"}),
            _shard_stream(1, range(7, 12), {0: "aaaa"}),
            [_migration("aaaa", 6, 0, 1)],
        ]
        timelines = stitch_spans(streams)
        assert len(timelines) == 1
        timeline = timelines[0]
        assert timeline.client == "client-0"
        assert timeline.shards == (0, 1)
        events = timeline.events()
        assert [e["kind"] for e in events] == [
            "segment", "migration", "segment",
        ]
        assert events[0]["last_slot"] == 5
        assert events[1]["slot"] == 6
        assert events[2]["first_slot"] == 7

    def test_one_timeline_per_trace(self):
        streams = [
            _shard_stream(0, range(4), {0: "aaaa", 1: "bbbb"}),
        ]
        timelines = stitch_spans(streams)
        assert [t.trace for t in timelines] == ["aaaa", "bbbb"]
        for timeline in timelines:
            assert timeline.shards == (0,)
            assert timeline.segments[0].user_slots == 4
            assert timeline.migrations == ()

    def test_untraced_user_spans_are_skipped(self):
        tracer = NullTracer()
        builder = tracer.slot(0, 0.0)
        builder.user(0, level=2)  # no trace attr: pre-admission sample
        assert stitch_spans([[builder.finish(0.015)]]) == []

    def test_migration_without_samples_still_surfaces(self):
        timelines = stitch_spans([[_migration("cccc", 3, 1, 0)]])
        assert len(timelines) == 1
        assert timelines[0].segments == ()
        assert timelines[0].migrations[0].target_shard == 0

    def test_chain_order_breaks_first_slot_ties(self):
        # Both shards first see the session at slot 0 (e.g. a slot-0
        # handoff); the migration chain says shard 1 was the source.
        streams = [
            _shard_stream(1, [0], {0: "dddd"}),
            _shard_stream(0, range(0, 5), {0: "dddd"}),
            [_migration("dddd", 0, 1, 0)],
        ]
        assert stitch_spans(streams)[0].shards == (1, 0)

    def test_bridge_orders_by_chain_not_by_slot(self):
        # The target shard's counter already reads the handoff slot
        # (and more) when the session lands there: slot numbers from
        # two shards cannot place the bridge, the chain does.
        streams = [
            _shard_stream(1, range(0, 5), {0: "eeee"}),
            _shard_stream(0, range(3, 9), {0: "eeee"}),
            [_migration("eeee", 5, 1, 0)],
        ]
        timeline = stitch_spans(streams)[0]
        assert timeline.shards == (1, 0)
        events = timeline.events()
        assert [e["kind"] for e in events] == [
            "segment", "migration", "segment",
        ]
        assert (events[0]["shard"], events[2]["shard"]) == (1, 0)

    def test_return_migration_lists_each_shard_once(self):
        streams = [
            _shard_stream(0, list(range(0, 3)) + list(range(8, 10)), {0: "ffff"}),
            _shard_stream(1, range(4, 7), {0: "ffff"}),
            [
                _migration("ffff", 3, 0, 1, seq=0),
                _migration("ffff", 7, 1, 0, seq=1),
            ],
        ]
        events = stitch_spans(streams)[0].events()
        assert [e["kind"] for e in events] == [
            "segment", "migration", "segment", "migration",
        ]

    def test_output_stable_across_stream_order(self):
        streams = [
            _shard_stream(0, range(0, 3), {0: "aaaa"}),
            _shard_stream(1, range(4, 8), {0: "aaaa"}),
            [_migration("aaaa", 3, 0, 1)],
        ]
        forward = stitch_spans(streams)
        reversed_ = stitch_spans(list(reversed(streams)))
        assert [t.to_dict() for t in forward] == [
            t.to_dict() for t in reversed_
        ]

    def test_format_timeline_text(self):
        streams = [
            _shard_stream(0, range(0, 3), {0: "aaaa"}),
            _shard_stream(1, range(4, 8), {0: "aaaa"}),
            [_migration("aaaa", 3, 0, 1)],
        ]
        lines = format_timeline(stitch_spans(streams)[0])
        assert lines[0] == "session client-0 trace=aaaa"
        assert lines[1] == "  shard 0: slots 0..2 (3 user-slot(s))"
        assert lines[2] == "  migration @slot 3: shard 0 -> shard 1 (rebalance)"
        assert lines[3] == "  shard 1: slots 4..7 (4 user-slot(s))"


def _write_stream(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        write_span_stream(handle, spans)
    return path


class TestStitchCli:
    def _cluster_files(self, tmp_path):
        shard0 = _write_stream(
            tmp_path / "run.shard0.jsonl",
            _shard_stream(0, range(0, 6), {0: "aaaa"}),
        )
        shard1 = _write_stream(
            tmp_path / "run.shard1.jsonl",
            _shard_stream(1, range(7, 12), {0: "aaaa"}),
        )
        coord = _write_stream(
            tmp_path / "run.coordinator.jsonl",
            [_migration("aaaa", 6, 0, 1)],
        )
        return [str(shard0), str(shard1), str(coord)]

    def test_text_output_shows_bridge(self, tmp_path):
        code, out, _ = run_cli(["stitch"] + self._cluster_files(tmp_path))
        assert code == EXIT_OK
        assert "session client-0 trace=aaaa" in out
        assert "migration @slot 6: shard 0 -> shard 1" in out
        assert "1 session(s), 1 migrated" in out

    def test_json_output_is_machine_readable(self, tmp_path):
        code, out, _ = run_cli(
            ["stitch", "--json"] + self._cluster_files(tmp_path)
        )
        assert code == EXIT_OK
        sessions = json.loads(out)["sessions"]
        assert sessions[0]["shards"] == [0, 1]
        kinds = [e["kind"] for e in sessions[0]["events"]]
        assert kinds == ["segment", "migration", "segment"]

    def test_missing_file_is_usage_error(self, tmp_path):
        code, _, err = run_cli(["stitch", str(tmp_path / "nope.jsonl")])
        assert code == EXIT_USAGE
        assert "no such trace file" in err


class TestTruncatedStreams:
    """Satellite: a writer killed mid-record must not sink the tools."""

    def _truncate_final_line(self, path):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        # Chop the last record in half, no trailing newline: exactly
        # what a SIGKILL during a buffered write leaves behind.
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines), encoding="utf-8")
        return path

    def test_tail_skips_with_warning_and_exit_3(self, tmp_path):
        trace = self._truncate_final_line(
            _write_trace(tmp_path / "t.jsonl", slots=6)
        )
        code, out, err = run_cli(["tail", str(trace), "-n", "10"])
        assert code == EXIT_TRUNCATED
        assert "skipped 1 truncated final line" in err
        # The intact prefix is still shown.
        assert len(out.strip().splitlines()) == 5

    def test_summarize_reports_surviving_prefix(self, tmp_path):
        trace = self._truncate_final_line(
            _write_trace(tmp_path / "t.jsonl", slots=6)
        )
        code, out, err = run_cli(["summarize", str(trace)])
        assert code == EXIT_TRUNCATED
        assert "5 slot span(s)" in out
        assert "truncated" in err

    def test_stitch_tolerates_truncated_member(self, tmp_path):
        shard0 = self._truncate_final_line(
            _write_stream(
                tmp_path / "run.shard0.jsonl",
                _shard_stream(0, range(0, 6), {0: "aaaa"}),
            )
        )
        coord = _write_stream(
            tmp_path / "run.coordinator.jsonl",
            [_migration("aaaa", 6, 0, 1)],
        )
        code, out, err = run_cli(["stitch", str(shard0), str(coord)])
        assert code == EXIT_TRUNCATED
        assert "truncated" in err
        # Slots 0..4 survive the chopped record for slot 5.
        assert "shard 0: slots 0..4" in out

    def test_interior_corruption_is_still_invalid(self, tmp_path):
        trace = _write_trace(tmp_path / "t.jsonl", slots=6)
        lines = trace.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:10]  # not the final line: real corruption
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for argv in (["tail", str(trace)], ["stitch", str(trace)]):
            code, _, err = run_cli(argv)
            assert code == EXIT_INVALID
            assert "invalid trace" in err
