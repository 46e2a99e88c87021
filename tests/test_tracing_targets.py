"""The benchmark's tracer must find every errant name it wraps."""

from pathlib import Path

from conftest import csv_stream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import errant.cli  # the tracer patches modules that are already loaded
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert errant.cli.main.__module__ == "errant.cli"  # uninstall restored it


def test_bench_tracer_counts_parsed_rows_and_rejects(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import errant.ingest
    import tracing

    rows = ["1,norway,telia,4G,-70,20000,5000,40"] * 3 + ["1,norway,telia,4G,-70,0,5000,40"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        errant.ingest.parse_speedtests(csv_stream(rows))
    finally:
        tracer.uninstall()
    assert tracing.SpanSummary(tracer).counts["ingest.parse_speedtests"] == [4, 1]
