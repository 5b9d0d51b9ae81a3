"""Live docs / tombstones: the .liv analogue (delete-by-term semantics).

Deletes are recorded as a sorted global-docID tombstone file next to the
manifest (Lucene50LiveDocsFormat.java role: a per-generation bitset of
surviving docs). Searchers filter matches against it; updateDocument =
delete-by-url + append-build of the replacement rows. DocID space is NOT
renumbered — like Lucene between merges, deleted docs still occupy ids
and corpus statistics (docCount, avgdl) intentionally still include them
until a future reclaiming merge (deletesPct compaction, NOTES_ROUND1.md).
"""

from __future__ import annotations

import os

import numpy as np

from .manifest import IndexManifest, atomic_write_json, load_json

TOMBSTONES_FILE = "tombstones.json"


def tombstones_path(index_dir: str, manifest=None) -> str:
    """The CURRENT tombstone generation file, per the manifest — the
    manifest commit switches generations atomically with the docID space
    they refer to (renumbering merges write a new generation). An explicit
    ``manifest`` reads the generation AS OF that commit (snapshots)."""
    if manifest is not None:
        return os.path.join(index_dir, manifest.tombstones_file or TOMBSTONES_FILE)
    try:
        name = IndexManifest.load(index_dir).tombstones_file
    except FileNotFoundError:
        name = TOMBSTONES_FILE
    return os.path.join(index_dir, name or TOMBSTONES_FILE)


def load_tombstones(index_dir: str, manifest=None) -> np.ndarray:
    """Sorted global docIDs of deleted documents (empty if none)."""
    path = tombstones_path(index_dir, manifest=manifest)
    if not os.path.exists(path):
        return np.empty(0, dtype=np.int64)
    return np.asarray(sorted(load_json(path)["deleted"]), dtype=np.int64)


def live_mask(tombstones: np.ndarray, global_docs: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``global_docs`` NOT in the sorted ``tombstones``."""
    if len(tombstones) == 0:
        return np.ones(len(global_docs), dtype=bool)
    idx = np.minimum(np.searchsorted(tombstones, global_docs), len(tombstones) - 1)
    return tombstones[idx] != global_docs


def delete_docs(index_dir: str, global_doc_ids) -> int:
    """Add docIDs to the tombstone set; returns the new deleted count."""
    cur = set(int(d) for d in load_tombstones(index_dir))
    cur.update(int(d) for d in global_doc_ids)
    atomic_write_json(tombstones_path(index_dir), {"deleted": sorted(cur)})
    return len(cur)


def delete_by_url(index_dir: str, urls) -> int:
    """Delete-by-term on the unique key (IndexWriter.deleteDocuments(Term)
    with term = url): resolve urls via the docmaps, tombstone the ids."""
    from .segment import SegmentReader

    targets = set(urls)
    manifest = IndexManifest.load(index_dir)
    hits: list[int] = []
    for s in sorted(manifest.segments, key=lambda x: x["doc_base"]):
        r = SegmentReader(os.path.join(index_dir, "segments", s["seg_name"]))
        for local, u in enumerate(r.docmap()["url"].to_pylist()):
            if u in targets:
                hits.append(r.doc_base + local)
    return delete_docs(index_dir, hits)
