"""Print a sha256 per file of an index directory, for byte-identity checks.

Usage:
    python3 tools/index_digest.py <index_dir>            # one line per file
    python3 tools/index_digest.py <index_dir> <other>    # compare two trees

Each line is ``<sha256>  <path relative to index_dir>``, sorted by path.
JSON files (manifest.json, every stats.json, merged.json, commit files) are
hashed after masking the values that differ between two builds of the same
input in different places or at different times: ``elapsed_sec`` (wall
time), ``lineage_file`` (the input file's path) and the merge's resume
fingerprints (``fingerprint``, keys derived from the segment set and the
shard plan). ``lineage_fingerprint`` (a hash of the segment's urls and doc
lengths) is content and stays unmasked. With two directories, the files
whose digests differ or that only one tree has are printed, and the exit
status is 1 if there is any.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

MASKED = frozenset({"elapsed_sec", "lineage_file", "fingerprint"})


def _mask(obj):
    if isinstance(obj, dict):
        return {k: "<masked>" if k in MASKED else _mask(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_mask(v) for v in obj]
    return obj


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith(".json"):
        data = json.dumps(_mask(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def index_digest(index_dir: str) -> dict[str, str]:
    """{relative path: sha256} of every regular file under ``index_dir``."""
    out = {}
    for root, _, files in os.walk(index_dir):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, index_dir)] = file_digest(path)
    return dict(sorted(out.items()))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    a = index_digest(argv[0])
    if len(argv) == 1:
        for rel, h in a.items():
            print(f"{h}  {rel}")
        return 0
    b = index_digest(argv[1])
    bad = sorted(rel for rel in a.keys() | b.keys() if a.get(rel) != b.get(rel))
    for rel in bad:
        print(f"differs: {rel}  {a.get(rel, '-')}  {b.get(rel, '-')}")
    print(f"{len(a.keys() | b.keys()) - len(bad)} identical, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
