"""The pin harness: every pin file has a source and the writer's layout,
and a recapture whose source raises writes nothing."""

import shutil

import pytest

import pins


def test_every_pin_file_has_a_source_and_every_source_a_file():
    assert {path.name for path in pins.DIR.glob("*_pins.json")} \
        == set(pins.SOURCES)


@pytest.mark.parametrize("name", sorted(pins.SOURCES))
def test_pin_file_is_in_the_writers_layout(name):
    """Catches a hand edit without recomputing any value."""
    assert pins.dumps(pins.load(name)) \
        == (pins.DIR / name).read_text(encoding="utf-8")


def fine_source():
    return {"b": [1, "x"], "a": None}


def raising_source():
    raise RuntimeError("source failed")


def test_recapture_writes_each_file_in_one_layout(tmp_path, monkeypatch):
    monkeypatch.setattr(pins, "DIR", tmp_path)
    monkeypatch.setattr(pins, "SOURCES",
                        {"a_pins.json": ("test_pins", "fine_source")})
    pins.main()
    assert [p.name for p in tmp_path.iterdir()] == ["a_pins.json"]
    assert (tmp_path / "a_pins.json").read_text(encoding="utf-8") \
        == '{\n  "a": null,\n  "b": [1, "x"]\n}\n'


def test_a_source_that_raises_leaves_every_pin_file_untouched(
        tmp_path, monkeypatch):
    """The sources before the raising one ran, yet their files keep their
    bytes."""
    for name in pins.SOURCES:
        shutil.copy(pins.DIR / name, tmp_path / name)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    *first, last = pins.SOURCES
    monkeypatch.setattr(pins, "DIR", tmp_path)
    monkeypatch.setattr(pins, "SOURCES", {
        **dict.fromkeys(first, ("test_pins", "fine_source")),
        last: ("test_pins", "raising_source")})
    with pytest.raises(RuntimeError, match="source failed"):
        pins.main()
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} \
        == before
