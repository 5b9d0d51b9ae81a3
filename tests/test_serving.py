"""Serving parity: the three top-k entry points — IndexSearcher.search,
ServingPool.search_query and the serve() actor pool — return the same
hits, rank-identical and float-exact, for every query shape, on a commit
without deletes and on one whose true top-1 is tombstoned.

The reference is the exhaustive scorer on the undeleted per-segment
index: deleted docs keep counting in the statistics until a reclaim, so
with the top-1 tombstoned the answer is the undeleted top-(k+1) without
it."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

K = 10
# classic-parser strings, so every entry point takes the same query
SHAPES = {
    "head_term": "t00000",
    "disjunction": "t00000 t00009",
    "phrase": '"t00000 t00001"',
    "field_scoped": "title:t00002",
}
ENTRY_POINTS = ("searcher", "pool", "serve")


def _hits(td) -> tuple[list[int], np.ndarray]:
    return [int(d) for d in td.doc_ids], np.asarray(td.scores, dtype=np.float32)


def _entry_hits(idx: str, shapes: list[str]) -> dict:
    """{(entry point, shape): hits} for ``shapes`` served from ``idx``."""
    from lucene_7_x_9_x_ray.search.queries import parse_classic
    from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
    from lucene_7_x_9_x_ray.stages.serve import ServingPool, serve

    searcher = IndexSearcher(idx)
    out = {("searcher", s): _hits(searcher.search(parse_classic(SHAPES[s], searcher.analyzer), k=K))
           for s in shapes}
    pool = ServingPool(idx, n_shards=3)
    try:
        out.update({("pool", s): _hits(pool.search_query(SHAPES[s], k=K)) for s in shapes})
    finally:
        pool.shutdown()
    table = serve(idx, [{"query_id": s, "qstr": SHAPES[s], "k": K} for s in shapes])
    rows = sorted(table.to_pylist(), key=lambda r: (r["query_id"], r["rank"]))
    for s in shapes:
        mine = [r for r in rows if r["query_id"] == s]
        out[("serve", s)] = ([r["doc_id"] for r in mine],
                             np.asarray([r["score"] for r in mine], dtype=np.float32))
    return out


class _Served:
    """Entry-point hits per (shape, deleted), computed once per index: the
    undeleted index serves every shape; each shape's deleted state is a
    copy with that shape's true top-1 tombstoned."""

    def __init__(self, root):
        from lucene_7_x_9_x_ray.search.searcher import IndexSearcher
        from lucene_7_x_9_x_ray.sources.pages import generate_pages, write_pages_parquet
        from lucene_7_x_9_x_ray.stages.build import BuildConfig, FieldSpec, build_index
        from lucene_7_x_9_x_ray.stages.merge import MergeConfig, merge_index

        self.root = root
        pages = generate_pages(400, vocab_size=60, mean_tokens=25, seed=93, dup_url_frac=0)
        path = str(root / "p.parquet")
        write_pages_parquet(pages, path, rows_per_row_group=100)
        self.idx = str(root / "clean")
        build_index(
            [path], self.idx,
            BuildConfig(target_docs_per_segment=100,
                        extra_fields=(FieldSpec("title", "title", index_positions=True),)),
        )
        merge_index(self.idx, MergeConfig(n_shards=4, hot_df_threshold=80))
        self.exhaustive = IndexSearcher(self.idx)
        self._cache: dict = {}

    def reference(self, shape: str, deleted: bool) -> tuple[list[int], np.ndarray]:
        from lucene_7_x_9_x_ray.search.queries import parse_classic

        query = parse_classic(SHAPES[shape], self.exhaustive.analyzer)
        docs, scores = _hits(self.exhaustive.search(
            query, k=K + 1, mode="exhaustive", total_hits_threshold=1 << 30))
        first = 1 if deleted else 0
        return docs[first:first + K], scores[first:first + K]

    def hits(self, entry: str, shape: str, deleted: bool):
        key = shape if deleted else None
        if key not in self._cache:
            idx, shapes = self.idx, list(SHAPES)
            if deleted:
                from lucene_7_x_9_x_ray.state.livedocs import delete_docs

                idx, shapes = str(self.root / f"del_{shape}"), [shape]
                shutil.copytree(self.idx, idx)
                delete_docs(idx, [self.reference(shape, False)[0][0]])
            self._cache[key] = _entry_hits(idx, shapes)
        return self._cache[key][(entry, shape)]


@pytest.fixture(scope="module")
def served(ray_session, tmp_path_factory):
    return _Served(tmp_path_factory.mktemp("serving"))


@pytest.mark.parametrize("deleted", [False, True], ids=["no_deletes", "top1_deleted"])
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_serving_parity(served, entry, shape, deleted):
    want_docs, want_scores = served.reference(shape, deleted)
    assert len(want_docs) == K, "fixture must give every shape k live hits"
    docs, scores = served.hits(entry, shape, deleted)
    assert docs == want_docs
    assert np.array_equal(scores, want_scores)
