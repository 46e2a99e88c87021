"""The benchmark's tracer must find every errant name it wraps."""

from pathlib import Path

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
