"""Index replication: publish/checkout of pinned commit revisions.

Re-creates the lucene/replicator module's core loop (s84
replicator/src/java/org/apache/lucene/replicator/: Replicator.java
publish/checkForUpdate/obtainFile, LocalReplicator.java revision
refcounting, IndexReplicationHandler.java copy-missing-then-sync,
IndexRevision.java commit-pinned file sets) for the Ray engine's
directory-per-segment layout:

- ``LocalReplicator.publish()`` pins the primary's CURRENT commit with a
  snapshot (state/commits.snapshot_commit — the SnapshotDeletionPolicy
  the reference's IndexRevision requires), walks the pinned segment dirs
  into a revision file set, and releases the snapshot of the revision it
  supersedes once no copy session holds it (LocalReplicator.java:120
  release-on-publish semantics).
- ``ReplicationClient.update_now()`` asks for a newer revision, copies
  ONLY files the replica doesn't already have (hardlink when possible —
  segment files are immutable, the reference's handler likewise skips
  same-name-same-size files), then atomically adopts the revision's
  manifest — the replica becomes that commit, reopenable mid-serving via
  open_if_changed. A crash mid-copy leaves the old replica manifest in
  place (copy first, adopt last — IndexReplicationHandler's ordering).

Scale shape: a revision is O(pinned files) of driver metadata; copies are
per-file and incremental, so replicating generation N+1 moves only the
appended segments — on a cluster this is the per-node shard-warming path
(each serving actor pulls its doc-range's segment dirs).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

from .commits import COMMITS_DIR, release_snapshot, snapshot_commit
from .manifest import atomic_write_json, load_json


@dataclass(frozen=True)
class IndexRevision:
    """One published revision: pinned snapshot + its file set
    (relpath -> size). Hashes by (version, snap_id); the dict fields still
    take part in equality."""

    version: int
    snap_id: str
    manifest: dict = field(hash=False)
    files: dict[str, int] = field(hash=False)


def _revision_files(index_dir: str, manifest: dict) -> dict[str, int]:
    """Relpath -> size for every file the pinned commit needs: the
    snapshot's segment dirs + its frozen tombstones file."""
    out: dict[str, int] = {}
    for seg in manifest["segments"]:
        seg_rel = os.path.join("segments", seg["seg_name"])
        seg_abs = os.path.join(index_dir, seg_rel)
        for root, _dirs, names in os.walk(seg_abs):
            for name in names:
                p = os.path.join(root, name)
                out[os.path.relpath(p, index_dir)] = os.path.getsize(p)
    tomb = manifest.get("tombstones_file")
    if tomb:
        p = os.path.join(index_dir, tomb)
        if os.path.exists(p):
            out[tomb] = os.path.getsize(p)
    return out


class LocalReplicator:
    """In-process Replicator (LocalReplicator.java): publish revisions of
    one primary index; hand out copy sessions; release superseded
    snapshots once unreferenced."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self._current: IndexRevision | None = None
        self._sessions: dict[int, int] = {}  # revision version -> open sessions
        self._retired: list[IndexRevision] = []

    def publish(self) -> IndexRevision:
        snap_id = snapshot_commit(self.index_dir)
        manifest = load_json(
            os.path.join(self.index_dir, COMMITS_DIR, f"{snap_id}.json")
        )
        rev = IndexRevision(
            version=int(manifest["version"]),
            snap_id=snap_id,
            manifest=manifest,
            files=_revision_files(self.index_dir, manifest),
        )
        prev = self._current
        self._current = rev
        if prev is not None:
            self._retired.append(prev)
        self._gc_retired()
        return rev

    def check_for_update(self, have_version: int | None) -> IndexRevision | None:
        """The newest revision if the caller is behind, else None
        (Replicator.checkForUpdate)."""
        cur = self._current
        if cur is None or (have_version is not None and cur.version <= have_version):
            return None
        return cur

    # -- copy sessions (obtainFile lifecycle) --------------------------------

    def start_session(self, rev: IndexRevision) -> None:
        self._sessions[rev.version] = self._sessions.get(rev.version, 0) + 1

    def end_session(self, rev: IndexRevision) -> None:
        n = self._sessions.get(rev.version, 0) - 1
        if n <= 0:
            self._sessions.pop(rev.version, None)
        else:
            self._sessions[rev.version] = n
        self._gc_retired()

    def _gc_retired(self) -> None:
        keep: list[IndexRevision] = []
        for rev in self._retired:
            if self._sessions.get(rev.version):
                keep.append(rev)
            else:
                release_snapshot(self.index_dir, rev.snap_id)
        self._retired = keep


class ReplicationClient:
    """One replica's updater (ReplicationClient + IndexReplicationHandler):
    pull missing files, then atomically adopt the new commit."""

    def __init__(self, replicator: LocalReplicator, replica_dir: str):
        self.replicator = replicator
        self.replica_dir = replica_dir
        os.makedirs(replica_dir, exist_ok=True)
        self._version: int | None = None
        mpath = os.path.join(replica_dir, "manifest.json")
        if os.path.exists(mpath):
            self._version = int(load_json(mpath)["version"])

    def update_now(self) -> int:
        """Sync to the latest published revision. Returns the number of
        files copied (0 = already current)."""
        rev = self.replicator.check_for_update(self._version)
        if rev is None:
            return 0
        self.replicator.start_session(rev)
        try:
            copied = 0
            src_root = self.replicator.index_dir
            for rel, size in rev.files.items():
                dst = os.path.join(self.replica_dir, rel)
                if os.path.exists(dst) and os.path.getsize(dst) == size:
                    continue  # immutable segment file already present
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                src = os.path.join(src_root, rel)
                try:
                    os.link(src, dst)  # local transport: hardlink
                except OSError:
                    shutil.copy2(src, dst)
                copied += 1
            # adopt LAST: the revision manifest IS the commit point
            atomic_write_json(
                os.path.join(self.replica_dir, "manifest.json"), rev.manifest
            )
            self._version = rev.version
            return copied
        finally:
            self.replicator.end_session(rev)
