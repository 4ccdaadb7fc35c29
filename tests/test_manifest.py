import hashlib
import json

from feedflow.cli import _Outputs
from feedflow.manifest import RunManifest, file_digest, manifest_path_for


def test_file_digest(tmp_path):
    p = tmp_path / "data.txt"
    p.write_bytes(b"hello\n")
    assert file_digest(p) == hashlib.sha256(b"hello\n").hexdigest()


def test_manifest_path_for():
    assert manifest_path_for("out/run.csv").name == "run.csv.manifest.json"


def test_manifest_write_and_reload(tmp_path):
    data = tmp_path / "in.tsv"
    data.write_text("1\ta\tT\t1\n")
    out = str(tmp_path / "out.csv")
    with _Outputs() as outputs:
        outputs.write_csv(out, "a,b", [[1, 2]])
        outputs.commit("flows", {"window": [0, 100]}, [str(data)], None)
    target = tmp_path / "out.csv.manifest.json"
    loaded = json.loads(target.read_text())
    assert loaded["command"] == "flows"
    assert loaded["seed"] is None
    assert loaded["inputs"][str(data)] == file_digest(data)
    assert loaded["outputs"] == [out]
    assert "tool_version" in loaded
    assert target.read_text() == RunManifest(**loaded).to_json()
    # No stray temp files left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in.tsv", "out.csv", "out.csv.manifest.json"]


def test_manifest_overwrite_is_atomic_replacement(tmp_path):
    out = str(tmp_path / "m.csv")
    target = tmp_path / "m.csv.manifest.json"
    with _Outputs() as outputs:
        outputs.write_csv(out, "a", [])
        outputs.commit("a", {}, [], 1)
    first = target.read_text()
    with _Outputs() as outputs:
        outputs.write_csv(out, "a", [])
        outputs.commit("b", {}, [], 2)
    assert json.loads(target.read_text())["command"] == "b"
    assert first != target.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.csv.manifest.json"]
