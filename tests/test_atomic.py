"""The atomic-write helper every on-disk store replaces files through."""

import pytest

from repro import atomic
from repro.atomic import atomic_write


def test_clean_exit_replaces_the_file(tmp_path):
    target = tmp_path / "epochs.json"
    target.write_bytes(b"old")
    with atomic_write(target) as handle:
        handle.write(b"new")
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["epochs.json"]


def test_raise_before_rename_keeps_old_bytes_and_no_temp_file(tmp_path):
    target = tmp_path / "epochs.json"
    target.write_bytes(b'{"epochs": [1, 2]}\n')
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write(b'{"epo')
            raise RuntimeError("killed mid-write")
    assert target.read_bytes() == b'{"epochs": [1, 2]}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["epochs.json"]


def test_failed_rename_keeps_old_bytes_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "index.jsonl"
    target.write_bytes(b"line\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(atomic.os, "replace", refuse)
    with pytest.raises(OSError):
        with atomic_write(target) as handle:
            handle.write(b"other\n")
    assert target.read_bytes() == b"line\n"
    assert [p.name for p in tmp_path.iterdir()] == ["index.jsonl"]


def test_raise_on_a_new_file_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "fresh.entry") as handle:
            handle.write(b"partial")
            raise RuntimeError("killed mid-write")
    assert list(tmp_path.iterdir()) == []
