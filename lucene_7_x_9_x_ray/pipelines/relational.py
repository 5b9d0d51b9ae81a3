"""Relational companions: the JoinUtil / grouping / sort capabilities of the
reference expressed over the driver's star-schema tables.

- semi-join (JoinUtil.createJoinQuery from->to semantics, JoinUtil.java:90):
  broadcast the distinct small-side key set once (ray.put), filter the big
  side inside map_batches — no shuffle. At 100 TB the fallback is a
  hash-partitioned join on the key.
- latest-by-key (updateDocument keep-latest semantics): groupby +
  map_groups argmax — the exact-dedup-by-url building block.
- grouped aggregate + top-n: groupby().aggregate() and sort().limit().
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import round_half_away_np
from .common import _cluster_cpus, sized_read
from .dedup import _to_table

SORT_TOPN = 20


def q_semi_join(sf_dir: str) -> pa.Table:
    """Customers having at least one order: (c_custkey)."""
    import ray
    import ray.data as rd

    keys = sized_read(f"{sf_dir}/orders.parquet", columns=["o_custkey"]).unique(
        "o_custkey"
    )
    key_ref = ray.put(np.asarray(sorted(keys), dtype=np.int64))

    class SemiFilter:
        def __init__(self):
            self.keys = ray.get(key_ref)  # sorted once per actor

        def __call__(self, batch: pa.Table) -> pa.Table:
            ck = batch["c_custkey"].to_numpy()
            if len(self.keys) == 0:
                return pa.table({"c_custkey": pa.array([], pa.int64())})
            idx = np.searchsorted(self.keys, ck)
            idx = np.minimum(idx, len(self.keys) - 1)
            mask = self.keys[idx] == ck
            return pa.table({"c_custkey": pa.array(ck[mask].astype(np.int64))})

    ds = sized_read(f"{sf_dir}/customer.parquet", columns=["c_custkey"]).map_batches(
        SemiFilter, batch_format="pyarrow", concurrency=2
    )
    return _to_table(ds)


def oracle_semi_join_sql() -> str:
    return """SELECT c_custkey FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)"""


def q_latest_event_per_user(sf_dir: str) -> pa.Table:
    """Keep-latest-by-key: (user_id, event_id, ts) of each user's newest
    event (ties on ts -> larger event_id), the update-by-key dedup shape."""
    import ray.data as rd

    def latest(group: pa.Table) -> pa.Table:
        ts = group["ts"].to_numpy()
        eid = group["event_id"].to_numpy()
        # primary ts asc, secondary event_id asc => last = newest, largest id
        best = int(np.lexsort((eid, ts))[-1])
        return group.take([best]).select(["user_id", "event_id", "ts"])

    ds = (
        sized_read(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])
        .groupby("user_id")
        .map_groups(latest, batch_format="pyarrow")
    )
    return _to_table(ds)


def oracle_latest_event_sql() -> str:
    return """SELECT user_id, event_id, ts FROM (
  SELECT user_id, event_id, ts,
         row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
  FROM events) WHERE rn = 1"""


def q_event_type_agg(sf_dir: str) -> pa.Table:
    """Grouped aggregate (facet-count analogue over the stream table):
    (event_type, n, sum_value_r)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = (
        sized_read(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
        .groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    )
    t = _to_table(ds)
    return pa.table(
        {
            "event_type": t["event_type"],
            "n": t["n"].cast(pa.int64()),
            "sum_value_r": pa.array(
                round_half_away_np(t["sum_value"].to_numpy(zero_copy_only=False).astype(np.float64), 4),
                pa.float64(),
            ),
        }
    )


def oracle_event_type_agg_sql() -> str:
    return """SELECT event_type, count(*) AS n, ROUND(SUM(value), 4) AS sum_value_r
FROM events GROUP BY event_type"""


LINEITEM_CUTOFF = "2001-01-01"


def q_lineitem_pricing(sf_dir: str) -> pa.Table:
    """TPC-H-Q1-style pricing summary over the largest driver table,
    built the 100 TB way: column-pruned read -> per-batch PARTIAL
    aggregation inside map_batches (the combiner) -> a small groupby of
    partial rows -> driver finalize. The shuffle moves one row per
    (batch, group), never raw lineitems."""
    import datetime

    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    cutoff = datetime.datetime.fromisoformat(LINEITEM_CUTOFF)

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.less_equal(batch["l_shipdate"], pa.scalar(cutoff))
        b = batch.filter(keep)
        if b.num_rows == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "p_qty": pa.array([], pa.float64()),
                    "p_price": pa.array([], pa.float64()),
                    "p_disc_price": pa.array([], pa.float64()),
                    "p_n": pa.array([], pa.int64()),
                }
            )
        # Arrow-native partial groupby (no pandas copy of the batch)
        disc_price = pc.multiply(
            b["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), b["l_discount"]),
        )
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": b["l_quantity"],
                "price": b["l_extendedprice"],
                "disc_price": disc_price,
            }
        )
        g = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price", "sum"), ("disc_price", "sum"), ("qty", "count")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "p_qty", "p_price", "p_disc_price", "p_n"]
        )

    ds = (
        sized_read(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate",
            ],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("p_qty", alias_name="sum_qty"),
            Sum("p_price", alias_name="sum_price"),
            Sum("p_disc_price", alias_name="sum_disc_price"),
            Sum("p_n", alias_name="n"),
        )
    )
    t = _to_table(ds)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    sq = t["sum_qty"].to_numpy(zero_copy_only=False).astype(np.float64)
    sp = t["sum_price"].to_numpy(zero_copy_only=False).astype(np.float64)
    sd = t["sum_disc_price"].to_numpy(zero_copy_only=False).astype(np.float64)
    return pa.table(
        {
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty_r": pa.array(round_half_away_np(sq, 2), pa.float64()),
            "sum_price_r": pa.array(round_half_away_np(sp, 2), pa.float64()),
            "sum_disc_price_r": pa.array(round_half_away_np(sd, 2), pa.float64()),
            "avg_qty_r": pa.array(round_half_away_np(sq / n, 4), pa.float64()),
            "avg_price_r": pa.array(round_half_away_np(sp / n, 4), pa.float64()),
            "n": pa.array(n, pa.int64()),
        }
    )


def oracle_lineitem_pricing_sql() -> str:
    return f"""SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty_r,
       ROUND(SUM(l_extendedprice), 2) AS sum_price_r,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS sum_disc_price_r,
       ROUND(SUM(l_quantity) / count(*), 4) AS avg_qty_r,
       ROUND(SUM(l_extendedprice) / count(*), 4) AS avg_price_r,
       count(*) AS n
FROM lineitem WHERE l_shipdate <= TIMESTAMP '{LINEITEM_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus"""


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def detect_hot_keys(ds, threshold: int, per_block_min: int = 8,
                    key_col: str = "key") -> np.ndarray:
    """Heavy-hitter keys for _bucketed_equijoin's ``hot_keys``: each block
    emits only the keys whose IN-BLOCK count >= per_block_min (bounded
    partials — at most block_rows/per_block_min rows leave a block), the
    driver sums the partials, and a key whose summed count >= threshold
    is hot. A key below per_block_min in every block is missed, but its
    true count is then < n_blocks * per_block_min — not a heavy hitter.
    Same detect-then-salt shape as stages/merge.py plan_merge_sampled's
    locally heavy terms."""

    def block_counts(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy()
        uniq, counts = np.unique(k, return_counts=True)
        m = counts >= per_block_min
        return pa.table(
            {
                "key": pa.array(uniq[m], pa.int64()),
                "cnt": pa.array(counts[m].astype(np.int64), pa.int64()),
            }
        )

    parts_tbl = _to_table(ds.map_batches(block_counts, batch_format="pyarrow"))
    if parts_tbl.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    keys = parts_tbl["key"].to_numpy()
    cnts = parts_tbl["cnt"].to_numpy()
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, cnts)
    return uniq[sums >= threshold]


def _bucketed_equijoin(ds_union, parts: int, build_cols: list[str],
                       probe_cols: list[str], emit,
                       unique_build: bool = True,
                       hot_keys=None, n_salts: int = 16):
    """Generic hash-partitioned equijoin over ONE unioned Dataset whose
    rows carry (key:int64, side:int8 — 0 build / 1 probe, plus every
    payload column with placeholder values on the other side).

    ``unique_build=True`` (default, enforced per group): a 1:N join —
    each probe row attaches at most one build row via one searchsorted.
    ``unique_build=False``: full M:N inner-join multiplicity — each
    probe row expands to one output row per matching build row (run
    bounds via two searchsorteds + np.repeat/arange offsets, still no
    Python loop).

    Shape: salt the key into `parts` buckets -> repartition ->
    groupby(bucket).map_groups; inside each group the build side sorts by
    key once and probe rows attach vectorized (searchsorted). ``emit``
    receives (probe payload dict, attached build payload dict) — or
    (None, None) for a groups with an empty side — and returns the
    group's output table (typically a per-group PARTIAL aggregate, so
    only combiner rows leave the join). The inner-join shape of
    SortMergeJoin/Shuffled-HashJoin; at 10^12 rows `parts` scales with
    input bytes like the dedup semi-join's LUCENE_RAY_DEDUP_PARTITIONS.

    ``hot_keys`` (sorted-able int64 array, e.g. from detect_hot_keys):
    skew mitigation — each hot key's PROBE rows spread round-robin over
    ``n_salts`` sub-buckets while its BUILD rows replicate once per salt,
    so no single group holds a hot key's full probe run. Sub-buckets are
    bucket = base * n_salts + salt, which keeps the salt replicas of one
    build key in DISJOINT groups (join-on-key stays correct per group
    with no composite key). Requires the associative-``emit`` contract
    above — a hot key's partials now arrive from up to n_salts groups.
    The same detect-then-salt trick as stages/merge.py hot terms."""

    hot_arr = None
    if hot_keys is not None:
        hot_arr = np.sort(np.asarray(hot_keys, dtype=np.int64))
        if len(hot_arr) == 0:
            hot_arr = None

    def add_bucket(batch: pa.Table) -> pa.Table:
        keys = batch["key"].to_numpy()
        base = ((keys.astype(np.uint64) * _GOLDEN) % np.uint64(parts)).astype(
            np.int64
        )
        if hot_arr is None:
            return batch.append_column("bucket", pa.array(base))
        side = batch["side"].to_numpy()
        loc = np.searchsorted(hot_arr, keys)
        ishot = (loc < len(hot_arr)) & (hot_arr[np.minimum(loc, len(hot_arr) - 1)] == keys)
        salt = np.zeros(len(keys), dtype=np.int64)
        pm = ishot & (side == 1)
        salt[pm] = np.arange(int(pm.sum()), dtype=np.int64) % n_salts
        out = batch.append_column(
            "bucket", pa.array(base * np.int64(n_salts) + salt)
        )
        bm = np.flatnonzero(ishot & (side == 0))
        if len(bm):
            # replicate hot build rows into salts 1..n_salts-1 (the
            # original row already carries salt 0)
            rep_idx = np.repeat(bm, n_salts - 1)
            rep = batch.take(pa.array(rep_idx))
            rsalt = np.tile(np.arange(1, n_salts, dtype=np.int64), len(bm))
            rep = rep.append_column(
                "bucket", pa.array(base[rep_idx] * np.int64(n_salts) + rsalt)
            )
            out = pa.concat_tables([out, rep]).combine_chunks()
        return out

    def join_group(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy()
        keys = group["key"].to_numpy()
        bmask = side == 0
        bk = keys[bmask]
        order = np.argsort(bk)
        bk = bk[order]
        pk = keys[~bmask]
        if len(bk) == 0 or len(pk) == 0:
            return emit(None, None)
        battach = {
            c: group[c].to_numpy(zero_copy_only=False)[bmask][order]
            for c in build_cols
        }
        pattach = {
            c: group[c].to_numpy(zero_copy_only=False)[~bmask] for c in probe_cols
        }
        if unique_build:
            if len(bk) > 1 and np.any(bk[1:] == bk[:-1]):
                # one searchsorted takes ONE build row per probe key; a
                # duplicated build key would silently drop multiplicity
                raise ValueError(
                    "_bucketed_equijoin(unique_build=True) requires unique "
                    "build-side keys; duplicate key found — pass "
                    "unique_build=False for M:N expansion"
                )
            idx = np.searchsorted(bk, pk)
            has = (idx < len(bk)) & (bk[np.minimum(idx, len(bk) - 1)] == pk)
            return emit(
                {c: v[has] for c, v in pattach.items()},
                {c: v[idx[has]] for c, v in battach.items()},
            )
        # M:N expansion: per probe key, the matching build rows form the
        # run [lo, hi); each probe row repeats (hi - lo) times and pairs
        # with build indices lo + (0..run-1) via the cumsum-offset trick
        lo = np.searchsorted(bk, pk, side="left")
        hi = np.searchsorted(bk, pk, side="right")
        counts = hi - lo
        probe_idx = np.repeat(np.arange(len(pk)), counts)
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        build_idx = (
            np.repeat(lo, counts)
            + np.arange(int(starts[-1]), dtype=np.int64)
            - np.repeat(starts[:-1], counts)
        )
        return emit(
            {c: v[probe_idx] for c, v in pattach.items()},
            {c: v[build_idx] for c, v in battach.items()},
        )

    # NOTE: no repartition before the groupby — groupby performs its own
    # all-to-all, so a repartition(parts) here would be a second full
    # shuffle of the unioned relation (round-4 verdict item)
    return (
        ds_union.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(join_group, batch_format="pyarrow")
    )


REVENUE_REGION = "ASIA"


def q_revenue_by_nation(sf_dir: str) -> pa.Table:
    """TPC-H-Q5-style revenue by nation (lineitem x orders x customer x
    nation x region, one region kept), built the 100 TB way:

    - region/nation are TRUE dimension tables (5 / 25 rows): read on the
      driver, reduced to a nationkey -> name dict, broadcast via ray.put.
    - orders x customer is a LARGE-LARGE hash join: both sides stream as
      (custkey, payload) rows into one union, hash-partitioned by
      groupby(bucket of custkey); inside each group the customer rows map
      custkey -> nationkey vectorized (searchsorted) onto the order rows.
      Only (o_orderkey, n_key) pairs leave the join.
    - lineitem x that output is the second hash join, partitioned by
      orderkey; inside each group revenue PARTIALS per nation are
      combined (TableGroupBy), so the final shuffle moves one row per
      (group-task, nation).
    Output: (n_name, revenue_r) — revenue = sum(extprice * (1 - disc)),
    rounded to 2 (float64 sums at any association order are stable far
    beyond 2 decimals at these magnitudes)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    region = pq.read_table(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    rkey = region.filter(pc.equal(region["r_name"], REVENUE_REGION))[
        "r_regionkey"
    ].to_pylist()
    nat = nation.filter(pc.is_in(nation["n_regionkey"], value_set=pa.array(rkey)))
    nkey_to_name = dict(
        zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist())
    )
    keep_ref = ray.put(np.asarray(sorted(nkey_to_name), dtype=np.int64))

    parts = max(4, _cluster_cpus())

    def cust_rows(batch: pa.Table) -> pa.Table:
        keep = ray.get(keep_ref)
        nk = batch["c_nationkey"].to_numpy()
        m = np.isin(nk, keep)
        n = int(m.sum())
        return pa.table(
            {
                "key": pa.array(batch["c_custkey"].to_numpy()[m], pa.int64()),
                "orderkey": pa.array([0] * n, pa.int64()),
                "nkey": pa.array(nk[m], pa.int64()),
                "side": pa.array([0] * n, pa.int8()),
            }
        )

    def order_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch["o_custkey"].cast(pa.int64()),
                "orderkey": batch["o_orderkey"],
                "nkey": pa.array([0] * n, pa.int64()),
                "side": pa.array([1] * n, pa.int8()),
            }
        )

    def emit_orders(probe, build) -> pa.Table:
        if probe is None:
            return pa.table(
                {"orderkey": pa.array([], pa.int64()), "nkey": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "orderkey": pa.array(probe["orderkey"], pa.int64()),
                "nkey": pa.array(build["nkey"], pa.int64()),
            }
        )

    customer = sized_read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(cust_rows, batch_format="pyarrow")
    orders = sized_read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(order_rows, batch_format="pyarrow")
    ord_nat = _bucketed_equijoin(
        customer.union(orders), parts,
        build_cols=["nkey"], probe_cols=["orderkey"], emit=emit_orders,
    )

    def li_rows(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        n = batch.num_rows
        return pa.table(
            {
                "key": batch["l_orderkey"].cast(pa.int64()),
                "nkey": pa.array([0] * n, pa.int64()),
                "rev": rev,
                "side": pa.array([1] * n, pa.int8()),
            }
        )

    def on_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch["orderkey"].cast(pa.int64()),
                "nkey": batch["nkey"],
                "rev": pa.array([0.0] * n, pa.float64()),
                "side": pa.array([0] * n, pa.int8()),
            }
        )

    def emit_rev(probe, build) -> pa.Table:
        if probe is None:
            return pa.table(
                {"nkey": pa.array([], pa.int64()), "p_rev": pa.array([], pa.float64())}
            )
        # in-group combiner: one partial row per nation
        uniq, inv = np.unique(build["nkey"], return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(sums, inv, probe["rev"])
        return pa.table(
            {"nkey": pa.array(uniq, pa.int64()), "p_rev": pa.array(sums, pa.float64())}
        )

    lineitem = sized_read(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_rows, batch_format="pyarrow")
    ds = (
        _bucketed_equijoin(
            ord_nat.map_batches(on_rows, batch_format="pyarrow").union(lineitem),
            parts, build_cols=["nkey"], probe_cols=["rev"], emit=emit_rev,
        )
        .groupby("nkey")
        .aggregate(Sum("p_rev", alias_name="revenue"))
    )
    t = _to_table(ds)
    names = [nkey_to_name[int(k)] for k in t["nkey"].to_pylist()]
    rev = t["revenue"].to_numpy(zero_copy_only=False).astype(np.float64)
    out = pa.table(
        {
            "n_name": pa.array(names, pa.string()),
            "revenue_r": pa.array(round_half_away_np(rev, 2), pa.float64()),
        }
    )
    return out.sort_by("n_name")


def q_brand_returned_revenue(sf_dir: str) -> pa.Table:
    """Returned revenue by part brand: lineitem (l_returnflag = 'R') x
    part on partkey — a second large-large hash join through the shared
    _bucketed_equijoin, with a per-group brand-revenue combiner so only
    (task, brand) partial rows leave the join: (p_brand, revenue_r, n)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    parts = max(4, _cluster_cpus())

    def part_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch["p_partkey"].cast(pa.int64()),
                "brand": batch["p_brand"],
                "rev": pa.array([0.0] * n, pa.float64()),
                "side": pa.array([0] * n, pa.int8()),
            }
        )

    def li_rows(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["l_returnflag"], "R")
        b = batch.filter(m)
        rev = pc.multiply(
            b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
        )
        n = b.num_rows
        return pa.table(
            {
                "key": b["l_partkey"].cast(pa.int64()),
                "brand": pa.array([""] * n, pa.string()),
                "rev": rev,
                "side": pa.array([1] * n, pa.int8()),
            }
        )

    def emit(probe, build) -> pa.Table:
        if probe is None:
            return pa.table(
                {
                    "brand": pa.array([], pa.string()),
                    "p_rev": pa.array([], pa.float64()),
                    "p_n": pa.array([], pa.int64()),
                }
            )
        uniq, inv = np.unique(np.asarray(build["brand"], dtype=object), return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(sums, inv, probe["rev"])
        counts = np.bincount(inv, minlength=len(uniq))
        return pa.table(
            {
                "brand": pa.array(list(uniq), pa.string()),
                "p_rev": pa.array(sums, pa.float64()),
                "p_n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    part = sized_read(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).map_batches(part_rows, batch_format="pyarrow")
    li = sized_read(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_rows, batch_format="pyarrow")
    ds = (
        _bucketed_equijoin(
            part.union(li), parts,
            build_cols=["brand"], probe_cols=["rev"], emit=emit,
        )
        .groupby("brand")
        .aggregate(Sum("p_rev", alias_name="revenue"), Sum("p_n", alias_name="n"))
    )
    t = _to_table(ds)
    rev = t["revenue"].to_numpy(zero_copy_only=False).astype(np.float64)
    out = pa.table(
        {
            "p_brand": t["brand"],
            "revenue_r": pa.array(round_half_away_np(rev, 2), pa.float64()),
            "n": t["n"].cast(pa.int64()),
        }
    )
    return out.sort_by("p_brand")


def oracle_brand_returned_revenue_sql() -> str:
    return """SELECT p_brand,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS revenue_r,
       count(*) AS n
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_returnflag = 'R'
GROUP BY p_brand"""


def q_supplier_stats_by_nation(sf_dir: str) -> pa.Table:
    """Supplier account-balance stats per nation: the broadcast-dimension
    join shape (nation is 25 rows -> ray.put dict; suppliers stream
    through map_batches with a per-batch combiner, the final groupby sees
    one row per (batch, nation)): (n_name, n_suppliers, sum_acctbal_r)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nmap_ref = ray.put(
        dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))
    )

    def partial(batch: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        nk = batch["s_nationkey"].to_numpy()
        bal = batch["s_acctbal"].to_numpy()
        uniq, inv = np.unique(nk, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(sums, inv, bal)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "n_name": pa.array([nmap[int(k)] for k in uniq], pa.string()),
                "p_bal": pa.array(sums, pa.float64()),
                "p_n": pa.array(counts, pa.int64()),
            }
        )

    ds = (
        sized_read(f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("p_n", alias_name="n_suppliers"), Sum("p_bal", alias_name="bal"))
    )
    t = _to_table(ds)
    bal = t["bal"].to_numpy(zero_copy_only=False).astype(np.float64)
    out = pa.table(
        {
            "n_name": t["n_name"],
            "n_suppliers": t["n_suppliers"].cast(pa.int64()),
            "sum_acctbal_r": pa.array(round_half_away_np(bal, 2), pa.float64()),
        }
    )
    return out.sort_by("n_name")


def oracle_supplier_stats_sql() -> str:
    return """SELECT n_name, count(*) AS n_suppliers,
       ROUND(SUM(s_acctbal), 2) AS sum_acctbal_r
FROM supplier JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name"""


def oracle_revenue_by_nation_sql() -> str:
    return f"""SELECT n_name, ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS revenue_r
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = '{REVENUE_REGION}'
GROUP BY n_name"""


def q_customer_supplier_pairs(sf_dir: str) -> pa.Table:
    """(customer x supplier) pairs co-located in a nation — the M:N
    equijoin gate: BOTH sides carry many rows per key (25 nation keys),
    so every probe row must expand to one output row per matching build
    row (_bucketed_equijoin(unique_build=False) cumsum-offset expansion).
    The 25-key layout is also maximally skewed, so the join runs with
    hot_keys = every distinct build key and n_salts=4: customers of one
    nation spread over 4 sub-buckets, the (small) supplier side
    replicates per salt, and each group emits one PARTIAL
    (n_pairs, sum of c_acctbal + s_acctbal) row per nation — associative
    across salt groups. Output: (nationkey, n_pairs, sum_bal_r)."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    parts = max(4, _cluster_cpus())

    def supp_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch["s_nationkey"].cast(pa.int64()),
                "bal": batch["s_acctbal"].cast(pa.float64()),
                "side": pa.array([0] * n, pa.int8()),
            }
        )

    def cust_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch["c_nationkey"].cast(pa.int64()),
                "bal": batch["c_acctbal"].cast(pa.float64()),
                "side": pa.array([1] * n, pa.int8()),
            }
        )

    def emit(probe, build) -> pa.Table:
        if probe is None:
            return pa.table(
                {
                    "nationkey": pa.array([], pa.int64()),
                    "p_pairs": pa.array([], pa.int64()),
                    "p_bal": pa.array([], pa.float64()),
                }
            )
        # probe/build arrive pair-expanded; combine per nation key
        uniq, inv = np.unique(build["key"], return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(sums, inv, probe["bal"] + build["bal"])
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "nationkey": pa.array(uniq, pa.int64()),
                "p_pairs": pa.array(counts, pa.int64()),
                "p_bal": pa.array(sums, pa.float64()),
            }
        )

    # every nation key is a heavy hitter by construction: read the 25-row
    # dimension once on the driver for the hot set
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    hot = nation["n_nationkey"].to_numpy().astype(np.int64)

    supplier = sized_read(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"]
    ).map_batches(supp_rows, batch_format="pyarrow")
    customer = sized_read(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey", "c_acctbal"]
    ).map_batches(cust_rows, batch_format="pyarrow")
    ds = (
        _bucketed_equijoin(
            supplier.union(customer), parts,
            build_cols=["key", "bal"], probe_cols=["bal"], emit=emit,
            unique_build=False, hot_keys=hot, n_salts=4,
        )
        .groupby("nationkey")
        .aggregate(Sum("p_pairs", alias_name="n_pairs"),
                   Sum("p_bal", alias_name="sum_bal"))
    )
    t = _to_table(ds)
    bal = t["sum_bal"].to_numpy(zero_copy_only=False).astype(np.float64)
    out = pa.table(
        {
            "nationkey": t["nationkey"].cast(pa.int64()),
            "n_pairs": t["n_pairs"].cast(pa.int64()),
            "sum_bal_r": pa.array(round_half_away_np(bal, 2), pa.float64()),
        }
    )
    return out.sort_by("nationkey")


def oracle_customer_supplier_pairs_sql() -> str:
    return """SELECT c_nationkey AS nationkey, count(*) AS n_pairs,
       ROUND(SUM(c_acctbal + s_acctbal), 2) AS sum_bal_r
FROM customer JOIN supplier ON c_nationkey = s_nationkey
GROUP BY c_nationkey"""


def q_event_window_agg(sf_dir: str) -> pa.Table:
    """Tumbling-window (daily) aggregate over the stream table: (day,
    event_type, n). The micro-batch windowing shape — key = (time bucket,
    type), computed with a vectorized map + one small groupby."""
    import ray.data as rd
    from ray.data.aggregate import Count

    def add_day(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch["ts"], unit="day")
        return pa.table({"day": day, "event_type": batch["event_type"]})

    ds = (
        sized_read(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
        .map_batches(add_day, batch_format="pyarrow")
        .groupby(["day", "event_type"])
        .aggregate(Count(alias_name="n"))
    )
    t = _to_table(ds)
    return pa.table(
        {"day": t["day"], "event_type": t["event_type"], "n": t["n"].cast(pa.int64())}
    )


def oracle_event_window_agg_sql() -> str:
    return """SELECT date_trunc('day', ts) AS day, event_type, count(*) AS n
FROM events GROUP BY date_trunc('day', ts), event_type"""


def q_sort_topn_docs(sf_dir: str) -> pa.Table:
    """TopFieldCollector analogue: top-N docs by (n_chars desc, doc_id asc).

    TopFieldCollector's per-leaf-heap shape (s84 search/TopFieldCollector
    .java:42): each batch keeps only its OWN top-N inside map_batches (the
    combiner), so the driver reduce sees <= N rows per block instead of an
    all-to-all range sort of the whole table keeping 20 rows."""
    import ray.data as rd

    def partial_topn(batch: pa.Table) -> pa.Table:
        nc = batch["n_chars"].to_numpy()
        did = batch["doc_id"].to_numpy()
        order = np.lexsort((did, -nc))[:SORT_TOPN]
        return pa.table(
            {
                "doc_id": pa.array(did[order].astype(np.int64)),
                "n_chars": batch["n_chars"].take(pa.array(order)),
            }
        )

    t = _to_table(
        sized_read(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        ).map_batches(partial_topn, batch_format="pyarrow")
    )
    nc = t["n_chars"].to_numpy()
    did = t["doc_id"].to_numpy()
    order = np.lexsort((did, -nc))[:SORT_TOPN]
    rank = pa.array(np.arange(1, len(order) + 1, dtype=np.int64))
    return pa.table(
        {
            "rank": rank,
            "doc_id": pa.array(did[order]),
            "n_chars": t["n_chars"].take(pa.array(order)),
        }
    )


def oracle_sort_topn_sql() -> str:
    return f"""SELECT CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rank,
       doc_id, n_chars
FROM documents ORDER BY n_chars DESC, doc_id LIMIT {SORT_TOPN}"""
