"""Run manifests: reproducibility records written next to command outputs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from . import __version__


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str]   # path -> sha256, digested before processing
    seed: Optional[int]
    outputs: list[str]
    fit: Optional[dict] = None  # queues --fit-delays: the fit report
    tool_version: str = __version__  # the version --version prints

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def manifest_path_for(output: str | Path) -> Path:
    output = Path(output)
    return output.with_name(output.name + ".manifest.json")
