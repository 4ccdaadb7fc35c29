"""Run manifests: reproducibility records written next to command outputs."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from . import __version__

# CPython's own SHA-256, not hashlib's: hashlib maps OpenSSL's libcrypto, about
# 3.4 MiB resident, and the digest runs when a command's memory is at its peak.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256
_BUFFER = 1 << 16  # bytes file_digest reads at once, unbuffered, into one reused buffer


def file_digest(path: str | Path) -> str:
    h, buf = sha256(), memoryview(bytearray(_BUFFER))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(buf[:n])
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str]   # path -> sha256, digested before the first output rename
    seed: Optional[int]
    outputs: list[str]
    fit: Optional[dict] = None  # queues --fit-delays: the fit report
    tool_version: str = __version__  # the version --version prints

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def manifest_path_for(output: str | Path) -> Path:
    output = Path(output)
    return output.with_name(output.name + ".manifest.json")
