"""The benchmark's tracer wraps private names of the program (for example
`measure._marching_segments`, `geodesy._loop_search` and
`geodesy._lifted_graph`); a rename would silently drop its per-layer
metrics, so every name it wraps must exist."""

from pathlib import Path


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.restore()
