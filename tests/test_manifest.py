import hashlib
import importlib
import json
import re
import sys
import tracemalloc
from pathlib import Path

from feedflow import __version__, manifest
from feedflow.cli import _Outputs
from feedflow.manifest import RunManifest, file_digest, manifest_path_for


def digest_cases(tmp_path) -> dict[Path, str]:
    """Files of 0 bytes, 1 byte, 6 bytes, exactly the read buffer, one byte over
    it and 3 MiB (many buffers), each with hashlib's digest."""
    cases, big = {}, bytes(range(256)) * (3 << 12)
    for name, data in (("empty", b""), ("one", b"x"), ("data.txt", b"hello\n"),
                       ("buffer", big[:manifest._BUFFER]), ("over", big[:manifest._BUFFER + 1]),
                       ("big", big)):
        (tmp_path / name).write_bytes(data)
        cases[tmp_path / name] = hashlib.sha256(data).hexdigest()
    return cases


def test_file_digest(tmp_path):
    for path, digest in digest_cases(tmp_path).items():
        assert file_digest(path) == digest


def test_file_digest_reads_through_one_small_buffer(tmp_path):
    path = tmp_path / "big"
    path.write_bytes(bytes(range(256)) * (3 << 12))  # 3 MiB
    tracemalloc.start()
    try:
        digest = file_digest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 2 * manifest._BUFFER, peak


def test_file_digest_falls_back_to_hashlib(tmp_path, monkeypatch):
    cases = digest_cases(tmp_path)
    monkeypatch.setitem(sys.modules, "_sha2", None)  # None makes the import fail
    monkeypatch.setitem(sys.modules, "_sha256", None)
    try:
        importlib.reload(manifest)
        assert manifest.sha256 is hashlib.sha256
        for path, digest in cases.items():
            assert manifest.file_digest(path) == digest
    finally:
        monkeypatch.undo()
        importlib.reload(manifest)
    assert manifest.sha256 is not hashlib.sha256


def test_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version\s*=\s*"([^"]*)"', project, re.M).group(1) == __version__


def test_manifest_path_for():
    assert manifest_path_for("out/run.csv").name == "run.csv.manifest.json"


def test_manifest_write_and_reload(tmp_path):
    data = tmp_path / "in.tsv"
    data.write_text("1\ta\tT\t1\n")
    out = str(tmp_path / "out.csv")
    with _Outputs() as outputs:
        outputs.write_csv(out, "a,b", [[1], [2]])
        outputs.commit("flows", {"window": [0, 100]}, [str(data)], None)
    target = tmp_path / "out.csv.manifest.json"
    loaded = json.loads(target.read_text())
    assert loaded["command"] == "flows"
    assert loaded["seed"] is None
    assert loaded["inputs"][str(data)] == file_digest(data)
    assert loaded["outputs"] == [out]
    assert loaded["tool_version"] == __version__
    assert target.read_text() == RunManifest(**loaded).to_json()
    # No stray temp files left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in.tsv", "out.csv", "out.csv.manifest.json"]


def test_manifest_overwrite_is_atomic_replacement(tmp_path):
    out = str(tmp_path / "m.csv")
    target = tmp_path / "m.csv.manifest.json"
    with _Outputs() as outputs:
        outputs.write_csv(out, "a", [[]])
        outputs.commit("a", {}, [], 1)
    first = target.read_text()
    with _Outputs() as outputs:
        outputs.write_csv(out, "a", [[]])
        outputs.commit("b", {}, [], 2)
    assert json.loads(target.read_text())["command"] == "b"
    assert first != target.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.csv.manifest.json"]
