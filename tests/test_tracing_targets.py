"""The benchmark's tracer must find every errant name it wraps."""

from pathlib import Path

import numpy as np
from conftest import csv_stream, make_lognormal

from errant import DryRunBackend, VirtualClock, fit

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


def test_bench_tracer_sees_one_kde_sample_per_apply(monkeypatch):
    # the benchmark's kde.sample_s is the draw's time only while every
    # resample goes through kde.sample: one call per block of 256 applies
    monkeypatch.syspath_prepend(str(BENCH))
    import errant.emulator
    import tracing

    model = fit(make_lognormal(100, seed=3))
    for applies, blocks in ((5, 1), (300, 2)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            report = errant.emulator.run_periodic(
                model, DryRunBackend("eth0", "ifb0"), 2.0 * applies, 2.0,
                np.random.default_rng(5), VirtualClock(),
            )
        finally:
            tracer.uninstall()
        assert sum(event.action == "apply" for event in report.events) == applies
        calls = tracing.SpanSummary(tracer).calls
        assert calls["emulator.run_periodic"] == 1
        assert calls["kde.sample"] == blocks
