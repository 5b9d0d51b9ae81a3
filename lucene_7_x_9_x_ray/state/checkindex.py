"""CheckIndex analogue: whole-index invariant validation.

Re-creates the role of CheckIndex.checkIndex (solr-8.4.0/lucene/core/src/
java/org/apache/lucene/index/CheckIndex.java:642-882): walk every segment
(and the merged index, if present) and verify the structural invariants
the query engine relies on. Run after builds/merges in tests, or from the
CLI: ``python -m lucene_7_x_9_x_ray.state.checkindex <index_dir>``.

Checks per segment / merged shard:
- term dictionary strictly sorted, unique;
- decoded postings: len == doc_freq, docIDs strictly increasing and
  within [0, doc_count) (local) / [0, total_docs) (merged, global);
- freqs >= 1 and sum == total_term_freq;
- per-block impacts: non-empty pareto frontier per block, and the
  max-score bound dominates every (freq, norm) in its block;
- norms file length == doc_count;
- positions (if present): stream lengths match ttf, positions
  non-negative and < the doc's length is NOT required (tokens may exceed
  norm quantization) but per-doc positions must be strictly increasing;
- cross-checks: Σ segment doc_count == manifest doc_count; merged
  per-term df/ttf == Σ segment df/ttf.
"""

from __future__ import annotations

import os
import struct
import sys


from .manifest import IndexManifest
from .segment import SegmentReader


class CheckIndexError(AssertionError):
    pass


# What a segment's bad bytes raise: a violated invariant, a decode error
# (short buffer, bad JSON/UTF-8/Arrow, index out of range) or a missing
# file. Any other OSError (EIO, EMFILE, EINTR) is the host's, not the
# segment's, and propagates: exorcise must not drop a healthy segment.
_CORRUPTION = (CheckIndexError, FileNotFoundError, ValueError, IndexError,
               KeyError, EOFError, struct.error)


def _check(cond, msg):
    if not cond:
        raise CheckIndexError(msg)


def _check_reader_terms(reader, name: str, doc_limit: int, sample_every: int = 1):
    terms = reader.terms
    if len(terms) > 1:
        _check((terms[:-1] < terms[1:]).all(), f"{name}: term dict not strictly sorted")
    total_df = 0
    total_ttf = 0
    for i in range(0, len(terms), sample_every):
        tp = reader.postings_by_ord(i)
        docs, freqs = tp.decode()
        _check(len(docs) == tp.doc_freq, f"{name}/{terms[i]}: len(docs) != doc_freq")
        if len(docs) > 1:
            _check((docs[1:] > docs[:-1]).all(), f"{name}/{terms[i]}: docs not increasing")
        if len(docs):
            _check(0 <= docs[0] and docs[-1] < doc_limit,
                   f"{name}/{terms[i]}: docID out of range")
        _check((freqs >= 1).all(), f"{name}/{terms[i]}: freq < 1")
        _check(int(freqs.sum()) == tp.total_term_freq,
               f"{name}/{terms[i]}: sum(freqs) != total_term_freq")
        # impacts: per-block frontier dominates the block's true pairs
        from ..functions.codec import BLOCK_SIZE

        bi = 0
        for f_imp, n_imp in tp.impact_slices():
            _check(len(f_imp) > 0, f"{name}/{terms[i]}: empty impact frontier")
            blk_f = freqs[bi * BLOCK_SIZE : (bi + 1) * BLOCK_SIZE]
            blk_d = docs[bi * BLOCK_SIZE : (bi + 1) * BLOCK_SIZE]
            blk_n = reader.norms[blk_d]
            for bf, bn in zip(blk_f, blk_n):
                dominated = any(
                    int(ff) >= int(bf) and int(nn) <= int(bn)
                    for ff, nn in zip(f_imp, n_imp)
                )
                _check(dominated,
                       f"{name}/{terms[i]} block {bi}: ({bf},{bn}) not dominated")
            bi += 1
        if getattr(reader, "has_positions", False):
            pos = reader.positions_by_ord(i, freqs)
            _check(len(pos) == tp.total_term_freq,
                   f"{name}/{terms[i]}: positions stream length != ttf")
            _check((pos >= 0).all(), f"{name}/{terms[i]}: negative position")
            off = 0
            for f in freqs:
                p = pos[off : off + f]
                if len(p) > 1:
                    _check((p[1:] > p[:-1]).all(),
                           f"{name}/{terms[i]}: positions not increasing in doc")
                off += int(f)
        total_df += tp.doc_freq
        total_ttf += tp.total_term_freq
    return total_df, total_ttf


def check_index(index_dir: str, sample_every: int = 1) -> dict:
    """Validate one index directory. Returns summary stats; raises
    CheckIndexError on the first violated invariant."""
    manifest = IndexManifest.load(index_dir)
    seg_doc_total = 0
    seg_term_stats: dict[str, tuple[int, int]] = {}
    field_term_stats: dict[str, dict[str, tuple[int, int]]] = {}
    field_sttf: dict[str, int] = {}
    field_doc_count: dict[str, int] = {}
    n_terms = 0
    for s in sorted(manifest.segments, key=lambda x: x["doc_base"]):
        seg_dir = os.path.join(index_dir, "segments", s["seg_name"])
        r = SegmentReader(seg_dir)
        _check(r.doc_count == s["doc_count"], f"{s['seg_name']}: doc_count mismatch")
        _check(len(r.norms) == r.doc_count, f"{s['seg_name']}: norms length")
        _check(r.docmap().num_rows == r.doc_count, f"{s['seg_name']}: docmap rows")
        _check_reader_terms(r, s["seg_name"], r.doc_count, sample_every)
        for t, df, ttf in zip(r.terms, r.doc_freqs, r.ttfs):
            a, b = seg_term_stats.get(t, (0, 0))
            seg_term_stats[t] = (a + int(df), b + int(ttf))
        seg_doc_total += r.doc_count
        n_terms += len(r.terms)
        # extra fields: same structural invariants + stats roll-up
        for fname, fs in (r.stats.field_stats or {}).items():
            fv = r.field_view(fname)
            _check(len(fv.norms) == r.doc_count, f"{s['seg_name']}/f_{fname}: norms length")
            _check_reader_terms(fv, f"{s['seg_name']}/f_{fname}", r.doc_count, sample_every)
            _check(
                int(fv.ttfs.sum()) == int(fs["sum_total_term_freq"]),
                f"{s['seg_name']}/f_{fname}: Σttf != recorded sum_total_term_freq",
            )
            _check(
                int((fv.norms > 0).sum()) == int(fs["doc_count"]),
                f"{s['seg_name']}/f_{fname}: docsWithField != recorded doc_count",
            )
            acc = field_term_stats.setdefault(fname, {})
            for t, df, ttf in zip(fv.terms, fv.doc_freqs, fv.ttfs):
                a, b = acc.get(t, (0, 0))
                acc[t] = (a + int(df), b + int(ttf))
            field_sttf[fname] = field_sttf.get(fname, 0) + int(fs["sum_total_term_freq"])
            field_doc_count[fname] = field_doc_count.get(fname, 0) + int(fs["doc_count"])
    _check(seg_doc_total == manifest.doc_count, "manifest doc_count != Σ segments")
    for fname, fs in (manifest.field_stats or {}).items():
        _check(field_sttf.get(fname, 0) == int(fs["sum_total_term_freq"]),
               f"manifest field_stats[{fname}].sum_total_term_freq != Σ segments")
        _check(field_doc_count.get(fname, 0) == int(fs["doc_count"]),
               f"manifest field_stats[{fname}].doc_count != Σ segments")

    merged_stats = None
    from ..search.merged import MergedReader, _merged_is_fresh

    # a merged artifact from an OLDER generation (NRT append landed since
    # the merge) is legitimately stale: readers won't serve it (open_searcher
    # runs the same check), so don't cross-check it against segments it has
    # never seen
    if _merged_is_fresh(index_dir, manifest):
        mr = MergedReader(index_dir, manifest)
        _check(len(mr.norms) == manifest.doc_count, "merged norms length")
        merged_terms = mr.terms
        _check(set(map(str, merged_terms)) == set(map(str, seg_term_stats)),
               "merged term dict != union of segment dicts")
        for t in merged_terms:
            df, ttf = mr.term_stats(str(t))
            _check((df, ttf) == seg_term_stats[str(t)],
                   f"merged stats mismatch for {t}: {(df, ttf)} vs {seg_term_stats[str(t)]}")
            tp = mr.term_postings(str(t))
            docs, freqs = tp.decode()
            _check(len(docs) == df, f"merged/{t}: len(docs) != df")
            if len(docs) > 1:
                _check((docs[1:] > docs[:-1]).all(), f"merged/{t}: global docs not increasing")
            _check(int(freqs.sum()) == ttf, f"merged/{t}: freq sum != ttf")
        merged_stats = {"n_terms": len(merged_terms)}
        # merged per-field shard sets (if this merge carried fields)
        for fname in sorted((mr.meta.get("fields") or {}).keys()):
            fv = mr.field_view(fname)
            want = field_term_stats.get(fname, {})
            got_terms = fv.terms
            _check(set(map(str, got_terms)) == set(map(str, want)),
                   f"merged f_{fname} term dict != union of segment field dicts")
            for t in got_terms:
                df, ttf = fv.term_stats(str(t))
                _check((df, ttf) == want[str(t)],
                       f"merged f_{fname} stats mismatch for {t}")
            merged_stats[f"f_{fname}_terms"] = len(got_terms)

    return {
        "segments": len(manifest.segments),
        "doc_count": seg_doc_total,
        "segment_term_entries": n_terms,
        "distinct_terms": len(seg_term_stats),
        "merged": merged_stats,
    }


if __name__ == "__main__":
    out = check_index(sys.argv[1])
    print("checkindex OK:", out)


def check_segment(index_dir: str, seg: dict, sample_every: int = 1) -> None:
    """Validate ONE segment's structural invariants (the per-segment body
    of check_index); raises CheckIndexError on the first violation."""
    seg_dir = os.path.join(index_dir, "segments", seg["seg_name"])
    try:
        r = SegmentReader(seg_dir)
    except _CORRUPTION as e:  # unreadable artifacts = a failed segment
        raise CheckIndexError(f"{seg['seg_name']}: unreadable ({e})") from e
    _check(r.doc_count == seg["doc_count"], f"{seg['seg_name']}: doc_count mismatch")
    _check(len(r.norms) == r.doc_count, f"{seg['seg_name']}: norms length")
    _check(r.docmap().num_rows == r.doc_count, f"{seg['seg_name']}: docmap rows")
    _check_reader_terms(r, seg["seg_name"], r.doc_count, sample_every)
    for fname, fs in (r.stats.field_stats or {}).items():
        fv = r.field_view(fname)
        _check(len(fv.norms) == r.doc_count, f"{seg['seg_name']}/f_{fname}: norms length")
        _check_reader_terms(fv, f"{seg['seg_name']}/f_{fname}", r.doc_count, sample_every)


def exorcise(index_dir: str, sample_every: int = 1) -> list[str]:
    """CheckIndex -exorcise analogue (s84 core index/CheckIndex.java:2980
    exorciseIndex): validate every segment and DROP the corrupt ones from
    the commit — their documents are lost (exactly the reference's
    warning), the survivors keep their docID ranges (gaps are legal: each
    reader owns its own [doc_base, doc_base+count) span), and the global
    statistics re-aggregate over the remaining segments. Publishes a new
    manifest generation; the stale merged tier is ignored by readers via
    the segments fingerprint. Returns the dropped segment names.

    Only corruption drops a segment (``_CORRUPTION``); a transient I/O
    error propagates and no manifest is published."""
    from ..stages.build import _aggregate_field_stats

    manifest = IndexManifest.load(index_dir)
    keep: list[dict] = []
    dropped: list[str] = []
    for seg in manifest.segments:
        try:
            check_segment(index_dir, seg, sample_every)
        except _CORRUPTION:
            dropped.append(seg["seg_name"])
            continue
        keep.append(seg)
    if not dropped:
        return []
    if not keep:
        raise CheckIndexError("every segment failed validation — refusing "
                              "to publish an empty commit")
    manifest.segments = keep
    manifest.doc_count = sum(s["doc_count"] for s in keep)
    manifest.sum_total_term_freq = sum(s["sum_total_term_freq"] for s in keep)
    manifest.field_stats = _aggregate_field_stats(keep)
    manifest.version += 1
    manifest.save()
    return dropped
