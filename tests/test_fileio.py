import ast
import os
import stat
from collections import Counter
from pathlib import Path

import pytest

from modalign import IoError, fileio
from modalign.fileio import write_atomic

SRC = Path(__file__).resolve().parents[1] / "src" / "modalign"
FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def temp_files(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestWriteAtomic:
    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_non_regular_target_is_refused(self, tmp_path, kind):
        target = tmp_path / "out"
        if kind == "directory":
            target.mkdir()
        else:
            os.mkfifo(target)
        mode = target.stat().st_mode
        with pytest.raises(IoError, match="out: not a regular file"):
            write_atomic(target, b"new")
        assert temp_files(tmp_path) == []
        assert target.stat().st_mode == mode

    def test_failed_replace_keeps_previous_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(fileio.os, "replace", failing_replace)
        with pytest.raises(IoError, match="No space left on device"):
            write_atomic(target, b"new")
        assert target.read_bytes() == b"old"
        assert temp_files(tmp_path) == []

    def test_symlinked_output_updates_the_link_target(self, tmp_path):
        real = tmp_path / "data" / "real.csv"
        real.parent.mkdir()
        real.write_bytes(b"old")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_atomic(link, "new\n")
        assert link.is_symlink()
        assert real.read_bytes() == b"new\n"
        assert temp_files(tmp_path) == temp_files(real.parent) == []

    def test_new_file_mode_matches_plain_open(self, tmp_path):
        previous = os.umask(0o027)
        try:
            write_atomic(tmp_path / "atomic", b"x")
            with open(tmp_path / "plain", "wb"):
                pass
        finally:
            os.umask(previous)
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("atomic", "plain")}
        assert modes == {0o640}


def file_calls(path: Path) -> list[str]:
    """Calls of open, json.loads and the Path read/write methods in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"{path.name}:{node.lineno}: open")
        elif isinstance(func, ast.Attribute) and (
            func.attr in FILE_METHODS
            or (func.attr == "loads" and isinstance(func.value, ast.Name) and func.value.id == "json")
        ):
            found.append(f"{path.name}:{node.lineno}: .{func.attr}")
    return found


def test_only_fileio_reads_decodes_and_writes_files():
    # every read, JSON decode and write goes through modalign.fileio, so its
    # error mapping and atomic replace hold for every format
    assert len(file_calls(SRC / "fileio.py")) == 3  # the guard sees the calls it bans
    offenders = [c for p in sorted(SRC.glob("*.py")) if p.name != "fileio.py" for c in file_calls(p)]
    assert offenders == []


def referenced_name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_every_private_function_is_used_in_src():
    # a private helper that only tests call is a second path; it belongs in the tests
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    refs = Counter(referenced_name(n) for tree in trees for n in ast.walk(tree))
    defs = [
        n for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name.startswith("_") and not n.name.startswith("__")
    ]
    assert any(d.name == "_stage" for d in defs)  # the guard sees private helpers
    # a reference inside a function's own body (recursion) does not count
    unused = [d.name for d in defs if refs[d.name] == sum(referenced_name(n) == d.name for n in ast.walk(d))]
    assert unused == []
