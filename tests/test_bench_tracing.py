"""The traced benchmark's patch table names only attributes that exist.

bench/layers.py wraps package functions by module attribute, so a removed
or renamed name would otherwise fail only a traced benchmark run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_patch_table_enters_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracing import Tracer

    tracer = Tracer()
    table = layers.patch_table(tracer)
    originals = [getattr(module, attr) for module, attr, _ in table]
    with tracer.patched(table):
        assert all(getattr(module, attr) is not original
                   for (module, attr, _), original in zip(table, originals))
    assert all(getattr(module, attr) is original
               for (module, attr, _), original in zip(table, originals))
