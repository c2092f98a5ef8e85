"""Relational operators over the driver's TPC-H-ish parquet tables.

Each function takes ``sf_dir`` and returns a ``ray.data.Dataset`` whose
rows match a DuckDB oracle SQL (registered in ``__ray_entry__.py``)
column-for-column. They exercise the engine's relational surface — the
Ray mapping column of SURVEY.md §2 (groupby/aggregate, hash join,
broadcast join, filter/project, sort/limit/top-k) — on independent
data, alongside the KG flagship pipeline.

Scale notes (100 TB posture):

- every read prunes columns (``read_parquet(columns=[...])``);
- aggregations use ``Dataset.groupby().aggregate(...)`` which combines
  partially per block before the shuffle;
- the one genuinely large join (orders ⋈ customer) is a hash
  ``Dataset.join``; all small sides (region, nation, part for the
  top-k lookup) are broadcast — read once on the driver, shipped to
  tasks in the closure, O(small) per task, no shuffle.

Float determinism: the driver compares engines by exact value hash, so
derived floats never cross the boundary raw. Policy:

- raw parquet columns pass through untouched (bit-identical by
  construction);
- per-row derived values use ``floor(expr * scale + 0.5)`` with the
  exact same IEEE op sequence as the oracle SQL → always identical;
- cross-row sums of non-integral doubles are scaled so the floor
  boundary sits ≫ any summation-order error (dollars for ~1e9 sums,
  cents for ~1e5 sums); sums of integral doubles are exact (< 2^53).
"""

from __future__ import annotations

import os
from typing import List, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.aggregate import Count, Sum

_ONE = pa.scalar(1.0)
_HALF = pa.scalar(0.5)


def _path(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def read_table(
    sf_dir: str, table: str, columns: Optional[List[str]] = None
) -> ray.data.Dataset:
    """Column-pruned streaming parquet read with a metadata-free schema
    (see :mod:`hinbox_ray.sources.reader` for why)."""
    from ..sources.reader import read_parquet_clean

    return read_parquet_clean(_path(sf_dir, table), columns=columns)


def _small_table(sf_dir: str, table: str, columns: List[str]) -> pa.Table:
    """Driver-side read of a broadcast-small side (region/nation/part)."""
    return pq.read_table(_path(sf_dir, table), columns=columns)


def _floor_scaled(arr: pa.ChunkedArray, scale: float) -> pa.ChunkedArray:
    """CAST(floor(x*scale + 0.5) AS BIGINT) — same IEEE ops as DuckDB."""
    x = pc.cast(arr, pa.float64())
    if scale != 1.0:
        x = pc.multiply(x, pa.scalar(float(scale)))
    return pc.cast(pc.floor(pc.add(x, _HALF)), pa.int64())


def _int_col(batch: pa.Table, col: str, scale: float = 1.0) -> pa.Table:
    idx = batch.schema.get_field_index(col)
    return batch.set_column(idx, col, _floor_scaled(batch[col], scale))


def small_groupby_aggregate(
    ds: ray.data.Dataset, keys, spec
) -> ray.data.Dataset:
    """Vocabulary-scale groupby-aggregate without Ray's sort-shuffle
    Aggregate operator.

    ``spec`` is an ordered ``{out_col: (src_col_or_None, op)}`` with op
    in {"count", "sum", "min", "max"}. Shape: per-block pandas partial
    combine (typed output even for empty blocks) → one narrow exchange
    (``repartition(1)``; only |blocks|·|distinct keys| partial rows
    move) → one vectorized final reduce.

    Two wins over ``Dataset.groupby().aggregate``:
    - the all-to-all sort shuffle disappears (the r3 'size-gate every
      tiny reduce' rule: one task beats a 200-partition barrier when the
      key space is small);
    - no operator ever emits the schema-less empty blocks Ray's
      Aggregate produces for empty range partitions — the source of the
      'RefBundle with a different schema' warning noise (r3 VERDICT #4).

    Use ONLY when the distinct-key space fits one task (groups ≲ 10⁶);
    corpus-scale keys (text hashes, user ids) keep the real shuffle.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def _reduce(df: "pd.DataFrame", combined: bool) -> "pd.DataFrame":
        g = df.groupby(keys, sort=True, dropna=False)
        out = {}
        for col, (src, op) in spec.items():
            if op == "count":
                out[col] = g[col].sum() if combined else g.size()
            else:
                out[col] = getattr(g[col if combined else src], op)()
        return pd.DataFrame(out).reset_index()

    def partial_agg(df: "pd.DataFrame") -> "pd.DataFrame":
        return _reduce(df, combined=False)

    def combine_agg(df: "pd.DataFrame") -> "pd.DataFrame":
        return _reduce(df, combined=True)

    return (
        ds.map_batches(partial_agg, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(combine_agg, batch_format="pandas", batch_size=None)
    )


# ---------------------------------------------------------------------------
# Aggregations


def lineitem_agg(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-style pricing summary.

    read(4 cols) → map_batches(add disc_price, zero-copy Arrow) →
    groupby(returnflag, linestatus).aggregate(partial-combined sums).
    sum_qty is exact (integral quantities); price sums round to whole
    dollars; avg_qty_e2 = floor(sum/count·100+.5) from exact integers.
    """

    def add_disc_price(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(_ONE, batch["l_discount"])
        )
        return batch.append_column("disc_price", disc_price)

    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )
    out = small_groupby_aggregate(
        ds.map_batches(add_disc_price, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base_price": ("l_extendedprice", "sum"),
            "sum_disc_price": ("disc_price", "sum"),
            "count_order": (None, "count"),
        },
    )

    def finalize(batch: pa.Table) -> pa.Table:
        avg = pc.divide(
            pc.cast(batch["sum_qty"], pa.float64()),
            pc.cast(batch["count_order"], pa.float64()),
        )
        batch = batch.append_column("avg_qty_e2", _floor_scaled(avg, 100.0))
        batch = _int_col(batch, "sum_qty")
        batch = _int_col(batch, "sum_base_price")
        batch = _int_col(batch, "sum_disc_price")
        return batch

    return out.map_batches(finalize, batch_format="pyarrow").sort(
        ["l_returnflag", "l_linestatus"]
    )


def orders_priority_count(sf_dir: str) -> ray.data.Dataset:
    """Order count per priority bucket (groupby + count)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderpriority"])
    return small_groupby_aggregate(
        ds, "o_orderpriority", {"n_orders": (None, "count")}
    ).sort("o_orderpriority")


def events_daily(sf_dir: str) -> ray.data.Dataset:
    """Events rolled up to (event_type, day): count + sum(value) cents.

    Day is a 'YYYY-MM-DD' string so both engines compare plain strings
    rather than engine-specific timestamp types.
    """

    def add_day(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch["ts"], format="%Y-%m-%d")
        return pa.table(
            {
                "event_type": batch["event_type"],
                "day": day,
                "value": batch["value"],
            }
        )

    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    out = small_groupby_aggregate(
        ds.map_batches(add_day, batch_format="pyarrow"),
        ["event_type", "day"],
        {"n_events": (None, "count"), "sum_value_e2": ("value", "sum")},
    )
    return out.map_batches(
        lambda b: _int_col(b, "sum_value_e2", 100.0), batch_format="pyarrow"
    ).sort(["event_type", "day"])


def events_distinct_users(sf_dir: str) -> ray.data.Dataset:
    """Distinct user_id per event_type.

    Two-level aggregation: groupby(event_type, user_id) collapses to the
    distinct pairs (partial-combined per block, so the shuffle carries
    at most |types|×|users| rows), then a cheap second groupby counts.
    """
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    pairs = ds.groupby(["event_type", "user_id"]).aggregate(
        Count(alias_name="_n")
    )
    return small_groupby_aggregate(
        pairs.drop_columns(["_n"]),
        "event_type",
        {"n_users": (None, "count")},
    ).sort("event_type")


# ---------------------------------------------------------------------------
# Filter / project / sort / top-k


def lineitem_filter_project(sf_dir: str) -> ray.data.Dataset:
    """Predicate + projection: high-quantity line items.

    revenue_e2 is a per-row derived value → identical IEEE op sequence
    as the oracle (price·(1−disc)·100, floor(+.5)).
    """
    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_orderkey",
            "l_linenumber",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def fil(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater_equal(batch["l_quantity"], 48.0))
        revenue = pc.multiply(
            batch["l_extendedprice"], pc.subtract(_ONE, batch["l_discount"])
        )
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_linenumber": batch["l_linenumber"],
                "l_quantity": _floor_scaled(batch["l_quantity"], 1.0),
                "revenue_e2": _floor_scaled(revenue, 100.0),
            }
        )

    return ds.map_batches(fil, batch_format="pyarrow")


def orders_topk(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Top-k orders by total price (global sort + limit).

    o_totalprice passes through raw (bit-identical); tie-break on
    o_orderkey so both engines pick the same boundary rows.
    """
    ds = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return ds.sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(k)


def top_parts_by_quantity(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Pre-aggregate + top-k + broadcast lookup.

    lineitem is groupby-summed on l_partkey (partial combine before the
    shuffle), sorted for the top-k, and only then enriched with the part
    name via a driver-broadcast dict — the part table never shuffles.
    total_qty is a sum of integral doubles → exact BIGINT.
    """
    ds = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
    agg = ds.groupby("l_partkey").aggregate(
        Sum("l_quantity", alias_name="total_qty")
    )
    agg = agg.map_batches(
        lambda b: _int_col(b, "total_qty"), batch_format="pyarrow"
    )
    top = agg.sort(["total_qty", "l_partkey"], descending=[True, False]).limit(k)

    part = _small_table(sf_dir, "part", ["p_partkey", "p_name"])
    name_of = dict(zip(part["p_partkey"].to_pylist(), part["p_name"].to_pylist()))

    def attach(batch: pa.Table) -> pa.Table:
        names = pa.array(
            [name_of.get(kk) for kk in batch["l_partkey"].to_pylist()],
            type=pa.string(),
        )
        return pa.table(
            {
                "l_partkey": batch["l_partkey"],
                "p_name": names,
                "total_qty": batch["total_qty"],
            }
        )

    return top.map_batches(attach, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Joins


def nation_region_count(sf_dir: str) -> ray.data.Dataset:
    """Broadcast join nation ⋈ region → nations per region."""
    region = _small_table(sf_dir, "region", ["r_regionkey", "r_name"])
    rname = dict(
        zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist())
    )

    def attach(batch: pa.Table) -> pa.Table:
        names = pa.array(
            [rname.get(kk) for kk in batch["n_regionkey"].to_pylist()],
            type=pa.string(),
        )
        return pa.table({"region_name": names})

    ds = read_table(sf_dir, "nation", columns=["n_regionkey"])
    return small_groupby_aggregate(
        ds.map_batches(attach, batch_format="pyarrow"),
        "region_name",
        {"n_nations": (None, "count")},
    ).sort("region_name")


def customer_revenue_by_nation(sf_dir: str) -> ray.data.Dataset:
    """Broadcast map join orders ⋈ customer, aggregate, then nation.

    One plan, one pass over the big side: the (c_custkey → c_nationkey)
    map is a pair of int32 columns (~1 MB per 150k customers at TPC-H
    shape — comfortably broadcastable well past the test scale), built
    once on the driver as a vectorized numpy lookup table and applied
    per batch with ``np.searchsorted`` — no shuffle touches the orders
    stream. At a scale where customer itself stops fitting (≳10⁹
    customers) the plan flips to a hash-partition co-group on custkey
    (stages/cogroup.py); Dataset.join is avoided for its measured
    per-call latency (see cogroup.py). Revenue rounds to whole dollars
    (summation-order error ≪ 0.5).
    """
    import numpy as np

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = _small_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ckeys = np.asarray(cust["c_custkey"].to_numpy(zero_copy_only=False))
    cnats = np.asarray(cust["c_nationkey"].to_numpy(zero_copy_only=False))
    order_ = np.argsort(ckeys, kind="stable")
    ckeys, cnats = ckeys[order_], cnats[order_]

    def attach_nat(batch: pa.Table) -> pa.Table:
        ok = batch["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ckeys, ok)
        pos = np.clip(pos, 0, len(ckeys) - 1)
        hit = ckeys[pos] == ok
        nat = np.where(hit, cnats[pos], -1).astype(np.int32)
        keep = nat >= 0
        return pa.table(
            {
                "c_nationkey": pa.array(nat[keep], type=pa.int32()),
                "o_totalprice": batch["o_totalprice"].filter(pa.array(keep)),
            }
        )

    joined = orders.map_batches(attach_nat, batch_format="pyarrow")
    agg = small_groupby_aggregate(
        joined,
        "c_nationkey",
        {"n_orders": (None, "count"), "revenue": ("o_totalprice", "sum")},
    )

    nation = _small_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nname = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    def attach(batch: pa.Table) -> pa.Table:
        names = pa.array(
            [nname.get(kk) for kk in batch["c_nationkey"].to_pylist()],
            type=pa.string(),
        )
        return pa.table(
            {
                "nation_name": names,
                "n_orders": batch["n_orders"],
                "revenue": _floor_scaled(batch["revenue"], 1.0),
            }
        )

    return agg.map_batches(attach, batch_format="pyarrow").sort("nation_name")


# ---------------------------------------------------------------------------
# Windowed / per-group operators


def events_sessionize(sf_dir: str, gap_s: int = 1800) -> ray.data.Dataset:
    """Session windows per user: a new session starts after a >gap_s
    silence. The windowed-aggregate custom operator Ray Data lacks,
    composed as groupby(user).map_groups over per-user time-sorted
    frames (partitioning assumption: one user's events fit one group —
    holds at any scale where per-user event counts are bounded).
    Timestamps cross the engine boundary as epoch microseconds.
    """
    import pandas as pd

    def sessionize(g: "pd.DataFrame") -> "pd.DataFrame":
        import numpy as np
        import pandas as pd

        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        # normalize to epoch microseconds regardless of the pandas
        # datetime64 unit the block arrived in (ns vs us)
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        gaps = np.diff(us, prepend=us[0] - (gap_s * 1_000_000 + 1))
        session_idx = np.cumsum(gaps > gap_s * 1_000_000) - 1
        out = pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(), "session_idx": session_idx, "us": us}
        )
        agg = out.groupby("session_idx", sort=True).agg(
            user_id=("user_id", "first"),
            n_events=("us", "size"),
            start_us=("us", "min"),
            end_us=("us", "max"),
        )
        agg = agg.reset_index()
        return pd.DataFrame(
            {
                "user_id": agg["user_id"].astype("int64"),
                "session_idx": agg["session_idx"].astype("int64"),
                "n_events": agg["n_events"].astype("int64"),
                "start_us": agg["start_us"].astype("int64"),
                "end_us": agg["end_us"].astype("int64"),
            }
        )

    from ..stages.cogroup import bucketed_map_groups

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    # user ids are corpus-scale: bucketed grouping (O(buckets) Ray
    # groups, per-user kernel re-grouped inside — cogroup helper)
    return bucketed_map_groups(ds, "user_id", sessionize).sort(
        ["user_id", "session_idx"]
    )


def orders_top3_per_customer(sf_dir: str, max_custkey: int = 100) -> ray.data.Dataset:
    """Per-group top-k (rank window): top-3 orders by price for the
    first ``max_custkey`` customers. Filter pushed to the scan batch."""
    import pandas as pd

    ds = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def fil(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["o_custkey"], max_custkey))

    def topk(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(3)
        g = g.copy()
        g["rank"] = range(1, len(g) + 1)
        return g

    from ..stages.cogroup import bucketed_map_groups

    # bucketed for the general max_custkey: the default filter caps the
    # key space at 100 (plain groupby would be fine there) but the
    # operator is the per-group-top-k building block and must not
    # degrade to one Ray group per customer when the cap is raised
    return bucketed_map_groups(
        ds.map_batches(fil, batch_format="pyarrow"), "o_custkey", topk
    ).sort(["o_custkey", "rank"])


def supplier_count_by_nation(sf_dir: str) -> ray.data.Dataset:
    """Supplier count + account-balance cents per nation (broadcast
    lookup after the aggregation, as in customer_revenue_by_nation)."""
    ds = read_table(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])
    agg = small_groupby_aggregate(
        ds,
        "s_nationkey",
        {"n_suppliers": (None, "count"), "acctbal_e2": ("s_acctbal", "sum")},
    )
    nation = _small_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nname = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    def attach(batch: pa.Table) -> pa.Table:
        names = pa.array(
            [nname.get(kk) for kk in batch["s_nationkey"].to_pylist()],
            type=pa.string(),
        )
        return pa.table(
            {
                "nation_name": names,
                "n_suppliers": batch["n_suppliers"],
                "acctbal_e2": _floor_scaled(batch["acctbal_e2"], 100.0),
            }
        )

    return agg.map_batches(attach, batch_format="pyarrow").sort("nation_name")


def part_filter_like(sf_dir: str, needle: str = "red") -> ray.data.Dataset:
    """String-predicate scan: parts whose name contains ``needle``."""
    ds = read_table(
        sf_dir, "part", columns=["p_partkey", "p_name", "p_retailprice"]
    )

    def fil(batch: pa.Table) -> pa.Table:
        mask = pc.match_substring(batch["p_name"], needle)
        batch = batch.filter(mask)
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "p_name": batch["p_name"],
                "price_e2": _floor_scaled(batch["p_retailprice"], 100.0),
            }
        )

    return ds.map_batches(fil, batch_format="pyarrow")


def events_asof_last_error(sf_dir: str) -> ray.data.Dataset:
    """Per-user AS-OF join (a custom operator Ray Data lacks): for each
    'click' event, attach the timestamp of the most recent PRIOR
    'error' event of the same user (-1 if none).

    Composition: groupby(user_id) co-locates each user's history, the
    per-group kernel sorts by time and resolves the as-of lookup with
    one vectorized searchsorted. Partitioning assumption: one user's
    events fit in one group (bounded per-user history) — the same
    assumption any keyed as-of join makes before falling back to
    time-bucketed range partitioning.
    """
    import pandas as pd

    def asof(g: "pd.DataFrame") -> "pd.DataFrame":
        import numpy as np
        import pandas as pd

        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        is_err = (g["event_type"] == "error").to_numpy()
        # positional running max of error timestamps, shifted one row —
        # exactly the oracle's ROWS UNBOUNDED PRECEDING AND 1 PRECEDING
        # frame (a same-microsecond earlier ROW counts as prior)
        vals = np.where(is_err, us, np.int64(-1))
        run = np.maximum.accumulate(vals)
        prior = np.concatenate(([np.int64(-1)], run[:-1]))
        is_click = (g["event_type"] == "click").to_numpy()
        clicks = g[is_click]
        return pd.DataFrame(
            {
                "event_id": clicks["event_id"].to_numpy().astype(np.int64),
                "user_id": clicks["user_id"].to_numpy().astype(np.int64),
                "click_us": us[is_click],
                "last_error_us": prior[is_click].astype(np.int64),
            }
        )

    from ..stages.cogroup import bucketed_map_groups

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    return bucketed_map_groups(ds, "user_id", asof).sort(
        ["user_id", "event_id"]
    )


def events_trailing_count(sf_dir: str, window_s: int = 300) -> ray.data.Dataset:
    """Trailing RANGE-frame windowed aggregate: for each 'error' event,
    the number of same-user events in the trailing ``window_s`` seconds
    (inclusive of time-tie peers, exactly SQL's RANGE BETWEEN ...
    PRECEDING AND CURRENT ROW).

    Per-user map_groups with two vectorized ``searchsorted`` calls — no
    per-row loop; same bounded-per-user partitioning assumption as
    ``events_sessionize``.
    """
    import pandas as pd

    win_us = window_s * 1_000_000

    def trailing(g: "pd.DataFrame") -> "pd.DataFrame":
        import numpy as np
        import pandas as pd

        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        # RANGE frame: rows with time in [t - win, t], including peers
        # of the current row that sort after it positionally
        hi = np.searchsorted(us, us, side="right")
        lo = np.searchsorted(us, us - win_us, side="left")
        cnt = (hi - lo).astype(np.int64)
        is_err = (g["event_type"] == "error").to_numpy()
        errs = g[is_err]
        return pd.DataFrame(
            {
                "user_id": errs["user_id"].to_numpy().astype(np.int64),
                "event_id": errs["event_id"].to_numpy().astype(np.int64),
                "err_us": us[is_err],
                "cnt_win": cnt[is_err],
            }
        )

    from ..stages.cogroup import bucketed_map_groups

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    return bucketed_map_groups(ds, "user_id", trailing).sort(
        ["user_id", "event_id"]
    )


def orders_lineitem_range_join(
    sf_dir: str, window_days: int = 30, band_days: int = 32
) -> ray.data.Dataset:
    """Distributed interval (range) join with NO equi-key: for each
    order, the number of lineitems (any order's) whose ship day falls
    in [o_orderdate, o_orderdate + window_days) — the banded range-join
    custom operator Ray Data lacks.

    Physical plan: each interval lands in exactly ONE band (by its
    start day) and the POINT side replicates into every band whose
    intervals can see it (``band_days`` ≥ ``window_days`` ⇒ ≤2 bands
    per point), so each interval is answered completely inside its
    band and NO per-orderkey re-aggregation is needed afterwards — at
    orders cardinality that final aggregate, not the shuffle, was the
    measured bottleneck (48 s of a 60 s run at sf0.1). The point side
    also pre-aggregates to per-batch (day, count) pairs BEFORE the
    shuffle — day cardinality is the calendar, not the corpus, so
    shuffle volume is O(batches × distinct-days-per-batch) int64 rows
    regardless of corpus size; the kernel prefix-sums the counts so
    duplicate day entries from different batches need no pre-merge.
    Only (band, day, cnt) and (band, orderkey, start, end) int64 rows
    cross the shuffle — never the source tables.
    """
    import numpy as np
    import pandas as pd

    from ..stages.cogroup import cogroup

    assert band_days >= window_days, "an interval must span ≤ 2 bands"
    _US_PER_DAY = 86_400_000_000

    def points(batch: pa.Table) -> pa.Table:
        # all values positive → integer divide (truncating) == floor;
        # combine to (day, count) per batch — calendar-scale output.
        # A point at day d is visible to intervals starting in
        # [d - window + 1, d], i.e. bands floor((d-w+1)/B)..floor(d/B)
        # — at most 2 since window ≤ band_days.  Ship the (day, cnt)
        # pair to each such band.
        day = (
            batch["l_shipdate"].cast(pa.int64()).to_numpy() // _US_PER_DAY
        )
        ud, cnt = np.unique(day, return_counts=True)
        b_hi = ud // band_days
        b_lo = (ud - window_days + 1) // band_days
        dup = b_lo != b_hi
        return pa.table(
            {
                "band": pa.array(
                    np.concatenate([b_hi, b_lo[dup]]), type=pa.int64()
                ),
                "day": pa.array(
                    np.concatenate([ud, ud[dup]]), type=pa.int64()
                ),
                "cnt": pa.array(
                    np.concatenate([cnt, cnt[dup]]).astype(np.int64)
                ),
            }
        )

    def intervals(batch: pa.Table) -> pa.Table:
        # each interval lives in exactly ONE band — its start's band —
        # so the band kernel's answer for it is final
        start = (
            batch["o_orderdate"].cast(pa.int64()).to_numpy() // _US_PER_DAY
        )
        end = start + window_days  # exclusive
        okey = batch["o_orderkey"].to_numpy()
        return pa.table(
            {
                "band": pa.array(start // band_days, type=pa.int64()),
                "day": pa.array(start, type=pa.int64()),
                "o_orderkey": pa.array(okey, type=pa.int64()),
                "end_day": pa.array(end, type=pa.int64()),
            }
        )

    def band_kernel(f: dict):
        iv = f["ivs"]
        if iv is None:
            return None
        cnt = np.zeros(len(iv), dtype=np.int64)
        if f["pts"] is not None:
            # a bucket may hold several bands: key every point and every
            # interval bound by (band, day) so an interval only counts
            # its own band's points. (day, cnt) pairs may repeat across
            # batches — sorting and prefix-summing the multiset handles
            # that without a pre-merge. Every point an interval of a band
            # can see was shipped to it (points replicate to both
            # reachable bands), so the [start, end) count is final.
            pts = f["pts"]
            pk = (pts["band"].to_numpy() << 32) + pts["day"].to_numpy()
            o_ = np.argsort(pk, kind="stable")
            pk = pk[o_]
            cum = np.concatenate([[0], np.cumsum(pts["cnt"].to_numpy()[o_])])
            base = iv["band"].to_numpy() << 32
            cnt = (
                cum[np.searchsorted(pk, base + iv["end_day"].to_numpy())]
                - cum[np.searchsorted(pk, base + iv["day"].to_numpy())]
            )
        return pd.DataFrame(
            {
                "o_orderkey": iv["o_orderkey"].to_numpy().astype(np.int64),
                "n_shipped": cnt.astype(np.int64),
            }
        )

    pts = read_table(sf_dir, "lineitem", columns=["l_shipdate"]).map_batches(
        points, batch_format="pyarrow"
    )
    ivs = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(intervals, batch_format="pyarrow")
    return cogroup({"pts": pts, "ivs": ivs}, "band", band_kernel).sort(
        "o_orderkey"
    )


# ---------------------------------------------------------------------------
# Hash-partition joins (inner / semi / anti on a high-cardinality key)
# through ``stages.cogroup.cogroup``: both sides hash onto the same
# buckets, ONE sort shuffle co-locates each bucket, and the kernel is a
# vectorized pandas/numpy merge over a block's two side frames.  One Ray group
# per key would pay ~0.4 ms fixed cost per tiny group at millions of
# keys.  Key→bucket is uniform for surrogate keys, so no salt is
# needed.  Only the lean projected columns cross the shuffle — never
# the source tables.


def revenue_by_region(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q5-shaped 5-way join: lineitem ⋈ orders ⋈ customer ⋈ nation
    ⋈ region → revenue per region.

    Physical plan: customer→nation→region collapses to one broadcast
    int64→int8 lookup (c_custkey → r_regionkey, vectorized
    ``np.searchsorted``) applied to the orders stream; the one genuinely
    corpus-scale join (lineitem ⋈ orders on orderkey) is the
    ``cogroup`` above, with revenue pre-summed per shuffle block so each
    block emits ≤ |regions| rows.  Revenue rounds to whole dollars —
    summation-order error ≪ 0.5 at gate scale (see module float policy).
    """
    import numpy as np
    import pandas as pd

    from ..stages.cogroup import cogroup

    cust = _small_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _small_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _small_table(sf_dir, "region", ["r_regionkey", "r_name"])
    nat2reg = dict(
        zip(
            nation["n_nationkey"].to_pylist(),
            nation["n_regionkey"].to_pylist(),
        )
    )
    ckeys = cust["c_custkey"].to_numpy(zero_copy_only=False)
    cregs = np.array(
        [nat2reg[n] for n in cust["c_nationkey"].to_pylist()], dtype=np.int64
    )
    order_ = np.argsort(ckeys, kind="stable")
    ckeys, cregs = ckeys[order_], cregs[order_]
    rname = dict(
        zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist())
    )

    def orders_side(batch: pa.Table) -> pa.Table:
        ok = batch["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(ckeys, ok), 0, len(ckeys) - 1)
        reg = np.where(ckeys[pos] == ok, cregs[pos], -1)
        keep = reg >= 0
        return pa.table(
            {
                "orderkey": pa.array(
                    batch["o_orderkey"].to_numpy(zero_copy_only=False)[keep],
                    type=pa.int64(),
                ),
                "regionkey": pa.array(reg[keep], type=pa.int64()),
            }
        )

    def lineitem_side(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(_ONE, batch["l_discount"]),
        )
        return pa.table({"orderkey": batch["l_orderkey"], "rev": rev})

    def bucket_join(f: dict):
        if f["li"] is None or f["od"] is None:
            return None
        s = f["li"].merge(f["od"], on="orderkey").groupby("regionkey")["rev"].sum()
        return pd.DataFrame(
            {
                "regionkey": s.index.to_numpy().astype(np.int64),
                "partial_rev": s.to_numpy().astype(np.float64),
            }
        )

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey"]
    ).map_batches(orders_side, batch_format="pyarrow")
    lineitem = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(lineitem_side, batch_format="pyarrow")

    agg = small_groupby_aggregate(
        cogroup(
            {"li": lineitem, "od": orders}, "orderkey", bucket_join, n_buckets=256
        ),
        "regionkey",
        {"rev_sum": ("partial_rev", "sum")},
    )

    def finalize(batch: pa.Table) -> pa.Table:
        names = pa.array(
            [rname.get(kk) for kk in batch["regionkey"].to_pylist()],
            type=pa.string(),
        )
        return pa.table(
            {
                "region_name": names,
                "revenue": _floor_scaled(batch["rev_sum"], 1.0),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow").sort("region_name")


_LAPSED_CUTOFF_US = 946_684_800_000_000  # 2000-01-01 in epoch µs


def customers_no_orders(sf_dir: str) -> ray.data.Dataset:
    """Distributed ANTI join: customers with zero orders since
    2000-01-01 (every synthetic FK is fully covered, so the unfiltered
    anti-join is vacuously empty — the date predicate makes the
    semantics observable), counted per market segment.  Orders prune at
    the read (2 columns), filter vectorized, then pre-thin to
    per-batch-distinct custkeys (combiner) before the ``cogroup``; the
    kernel is one vectorized ``np.isin`` + ``value_counts`` per block.
    """
    import numpy as np
    import pandas as pd

    from ..stages.cogroup import cogroup

    def orders_side(batch: pa.Table) -> pa.Table:
        recent = pc.greater_equal(
            batch["o_orderdate"].cast(pa.int64()), _LAPSED_CUTOFF_US
        )
        ck = np.unique(
            batch["o_custkey"].filter(recent).to_numpy(zero_copy_only=False)
        )
        return pa.table({"o_custkey": pa.array(ck, type=pa.int64())})

    def bucket_anti(f: dict):
        cust = f["cust"]
        if cust is None:
            return None
        if f["orders"] is not None:
            cust = cust[~np.isin(cust["c_custkey"], f["orders"]["o_custkey"])]
        vc = cust["c_mktsegment"].value_counts()
        return pd.DataFrame(
            {
                "seg": vc.index.to_numpy().astype(object),
                "partial": vc.to_numpy().astype(np.int64),
            }
        )

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate"]
    ).map_batches(orders_side, batch_format="pyarrow")
    return (
        cogroup(
            {"cust": cust, "orders": orders},
            {"cust": "c_custkey", "orders": "o_custkey"},
            bucket_anti,
            n_buckets=256,
        )
        .groupby("seg")
        .aggregate(Sum("partial", alias_name="n_customers"))
        .map_batches(
            # rename seg → c_mktsegment (Dataset.rename_columns breaks
            # on pandas-origin blocks in this Ray build)
            lambda b: pa.table(
                {"c_mktsegment": b["seg"], "n_customers": b["n_customers"]}
            ),
            batch_format="pyarrow",
        )
        .sort("c_mktsegment")
    )


def suppliers_with_shipments(sf_dir: str) -> ray.data.Dataset:
    """Distributed SEMI join: suppliers with ≥1 lineitem, counted per
    nation.  The corpus-scale side (lineitem) reduces to per-batch
    distinct suppkeys before the shuffle; supplier carries its
    nationkey through the ``cogroup``; nation names broadcast.
    """
    import numpy as np
    import pandas as pd

    from ..stages.cogroup import cogroup

    nation = _small_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nname = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    def line_side(batch: pa.Table) -> pa.Table:
        sk = np.unique(batch["l_suppkey"].to_numpy(zero_copy_only=False))
        return pa.table({"l_suppkey": pa.array(sk, type=pa.int64())})

    def bucket_semi(f: dict):
        supp = f["supp"]
        if supp is None or f["line"] is None:
            return None
        hit = np.isin(supp["s_suppkey"], f["line"]["l_suppkey"])
        vc = supp["s_nationkey"][hit].value_counts()
        return pd.DataFrame(
            {
                "natkey": vc.index.to_numpy().astype(np.int64),
                "partial": vc.to_numpy().astype(np.int64),
            }
        )

    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    line = read_table(sf_dir, "lineitem", columns=["l_suppkey"]).map_batches(
        line_side, batch_format="pyarrow"
    )
    agg = (
        cogroup(
            {"supp": supp, "line": line},
            {"supp": "s_suppkey", "line": "l_suppkey"},
            bucket_semi,
            n_buckets=256,
        )
        .groupby("natkey")
        .aggregate(Sum("partial", alias_name="n_suppliers"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        names = pa.array(
            [nname.get(kk) for kk in batch["natkey"].to_pylist()],
            type=pa.string(),
        )
        return pa.table(
            {"nation_name": names, "n_suppliers": batch["n_suppliers"]}
        )

    return agg.map_batches(finalize, batch_format="pyarrow").sort("nation_name")


def orders_price_quantiles(
    sf_dir: str, qs: tuple = (0.25, 0.5, 0.75, 0.95), bucket_width: float = 64.0
) -> ray.data.Dataset:
    """EXACT distributed discrete quantiles (DuckDB ``quantile_disc``
    convention: sorted ascending, element at index ``ceil(q*n) - 1``)
    of ``o_totalprice`` — no full sort, no driver materialization of
    the data.

    Two-pass histogram refine: pass 1 builds a sparse fixed-width
    histogram (per-batch ``np.unique`` combiner → tiny
    ``groupby(bucket)`` — only (bucket, count) int64 pairs cross the
    shuffle); the driver's cumulative sum locates, for each requested
    rank, its bucket and in-bucket offset.  Pass 2 re-reads ONLY rows
    in the (few) hit buckets and each bucket group sorts its own values
    to pick the offsets.  At 100 TB: pass-1 state is |value range| /
    ``bucket_width`` counters; a pass-2 bucket holds ≈ corpus /
    n_buckets rows — shrink ``bucket_width`` (or recurse) if a single
    bucket outgrows a worker.  The quantile VALUES are raw parquet
    doubles passed through untouched → bit-exact vs the oracle.
    """
    import numpy as np
    import pandas as pd

    ds = read_table(sf_dir, "orders", columns=["o_totalprice"])

    def hist(batch: pa.Table) -> pa.Table:
        v = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        b = np.floor(v / bucket_width).astype(np.int64)
        ub, cnt = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(ub, type=pa.int64()),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    hrows = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .sort("bucket")
        .take_all()
    )  # sparse histogram: |range|/width entries — vocabulary-scale
    buckets = np.array([r["bucket"] for r in hrows], dtype=np.int64)
    counts = np.array([r["n"] for r in hrows], dtype=np.int64)
    cum = np.concatenate([[0], np.cumsum(counts)])
    total = int(cum[-1])

    # rank → (bucket, offset-within-bucket) for each requested q
    want: dict = {}  # bucket -> list[(pct, offset)]
    for q in qs:
        rank = int(np.ceil(q * total)) - 1  # 0-based, quantile_disc
        rank = min(max(rank, 0), total - 1)
        bi = int(np.searchsorted(cum, rank, side="right")) - 1
        want.setdefault(int(buckets[bi]), []).append(
            (int(round(q * 100)), int(rank - cum[bi]))
        )
    hit = set(want)

    def pick_rows(batch: pa.Table) -> pa.Table:
        v = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        b = np.floor(v / bucket_width).astype(np.int64)
        keep = np.isin(b, list(hit))
        return pa.table(
            {
                "bucket": pa.array(b[keep], type=pa.int64()),
                "price": pa.array(v[keep], type=pa.float64()),
            }
        )

    # one call per histogram bucket: the offsets are per bucket
    def pick_offsets(g: "pd.DataFrame") -> "pd.DataFrame":
        b = int(g["bucket"].iloc[0])
        vals = np.sort(g["price"].to_numpy())
        pcts, prices = [], []
        for pct, off in want[b]:
            pcts.append(pct)
            prices.append(vals[off])
        return pd.DataFrame(
            {
                "pct": np.array(pcts, dtype=np.int64),
                "price": np.array(prices, dtype=np.float64),
            }
        )

    from ..stages.cogroup import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(pick_rows, batch_format="pyarrow"), "bucket", pick_offsets
    ).sort("pct")


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_daily_pivot(sf_dir: str) -> ray.data.Dataset:
    """Long→wide PIVOT: one row per day with a count column per event
    type (n_click … n_view) — the reshape operator (the inverse of a
    rollup). The type vocabulary is fixed and declared (EVENT_TYPES),
    as a distributed pivot must be: dynamic output columns would need
    a driver-side vocabulary pass first.

    Scale plan: each batch maps to day + five 0/1 indicator columns
    and Ray's ``groupby(day).aggregate(Sum×5)`` does the map-side
    partial combine, so the shuffle carries days × 6 integers — the
    standard conditional-aggregation pivot, no co-group needed.
    """
    import numpy as np

    def indicators(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch["ts"], format="%Y-%m-%d")
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        cols = {"day": day}
        for t in EVENT_TYPES:
            cols[f"n_{t}"] = pa.array(
                (et == t).astype(np.int64), type=pa.int64()
            )
        return pa.table(cols)

    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])
    return (
        ds.map_batches(indicators, batch_format="pyarrow")
        .groupby("day")
        .aggregate(
            *[Sum(f"n_{t}", alias_name=f"n_{t}") for t in EVENT_TYPES]
        )
        .sort("day")
    )


def events_interarrival(sf_dir: str) -> ray.data.Dataset:
    """Per-user inter-arrival deltas — the LAG window function: for
    every event, microseconds since the same user's previous event
    ((ts, event_id) ordering so ties are deterministic), −1 for the
    user's first event (both engines need a non-NULL integer to hash).

    Scale plan: one user-hash bucketed co-group; the kernel argsorts
    the user's events and vectorizes the delta with np.diff — the
    same per-key searchsorted-kernel family as sessionize/as-of, no
    driver state.

    Output contract: the final ``.sort("event_id")`` exists only so the
    oracle can hash a deterministic row order. Production consumers
    take the co-group output as is; it stays shard-local (rows grouped
    by user bucket, no global order), so drop the sort there.
    """
    import numpy as np

    from ..stages.cogroup import bucketed_map_groups

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].astype("int64").to_numpy()
        eid = g["event_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((eid, ts))
        ts, eid = ts[order], eid[order]
        d = np.empty(len(ts), dtype=np.int64)
        d[0] = -1
        if len(ts) > 1:
            d[1:] = np.diff(ts)
        return pd.DataFrame(
            {
                "event_id": eid,
                "user_id": np.full(
                    len(eid), int(g["user_id"].iloc[0]), dtype=np.int64
                ),
                "delta_us": d,
            }
        )

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return bucketed_map_groups(ds, "user_id", deltas).sort("event_id")


def events_running_total(sf_dir: str) -> ray.data.Dataset:
    """Per-user running totals — the CUMULATIVE window function
    (SUM ... ROWS UNBOUNDED PRECEDING + row_number), completing the
    window-family matrix beside LAG (events_interarrival) and the
    trailing range window (events_trailing_count): for every event,
    the user's cumulative spend and event ordinal so far, under the
    deterministic (ts, event_id) ordering.

    All-integer: value rounds to cents (floor(value·100 + 0.5), the
    lineitem_agg convention) BEFORE the cumsum, so both engines sum
    identical int64 streams — no float accumulation-order hazard.

    Scale plan: one user-hash bucketed co-group; the kernel argsorts
    the user's events and np.cumsum's the cents — same per-key
    vectorized family as interarrival/sessionize. Output is
    corpus-scale by definition (one row per event); no driver state.

    Output contract: as for ``events_interarrival``, the final
    ``.sort("event_id")`` exists only for oracle hashing; production
    output stays shard-local (per user bucket, no global sort).
    """
    import numpy as np

    from ..stages.cogroup import bucketed_map_groups

    def running(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].astype("int64").to_numpy()
        eid = g["event_id"].to_numpy(dtype=np.int64)
        v = np.floor(g["value"].to_numpy(dtype=np.float64) * 100 + 0.5).astype(
            np.int64
        )
        order = np.lexsort((eid, ts))
        eid, v = eid[order], v[order]
        return pd.DataFrame(
            {
                "event_id": eid,
                "user_id": np.full(
                    len(eid), int(g["user_id"].iloc[0]), dtype=np.int64
                ),
                "value_e2": v,
                "run_sum_e2": np.cumsum(v),
                "run_n": np.arange(1, len(eid) + 1, dtype=np.int64),
            }
        )

    ds = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )
    return bucketed_map_groups(ds, "user_id", running).sort("event_id")


def events_hourly_gapfill(sf_dir: str) -> ray.data.Dataset:
    """Dense per-type hourly counts with zero-fill — the resample /
    dimension-densification operator (the one shape that GENERATES
    rows: every hour in [min(ts), max(ts)] of a type appears, gaps as
    n_events = 0). The monitoring/seasonality consumer of the events
    stream; 215 of 3600 output rows are zero-fills at sf0.01, so the
    densification is non-vacuous.

    Scale plan: a per-block (event_type, epoch_hour) → count combiner
    thins the corpus to hour-vocabulary scale before ONE type-hash
    co-group merges counts and densifies with a bincount over the
    type's own hour range — the dense range is (max−min) hours,
    calendar-scale, never corpus-scale; no driver state. Hour strings
    are formatted inside the kernel so both engines compare plain
    strings (the events_daily convention).
    """
    import numpy as np

    from ..stages.cogroup import bucketed_map_groups

    US_PER_HOUR = 3_600_000_000

    def combine(batch: pa.Table) -> pd.DataFrame:
        eh = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            // US_PER_HOUR
        )
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_numpy(
                    zero_copy_only=False
                ),
                "eh": eh.astype(np.int64),
            }
        )
        g = (
            df.groupby(["event_type", "eh"], sort=True)
            .size()
            .rename("n")
            .reset_index()
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    def densify(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("eh", sort=True)["n"].sum()
        lo, hi = int(m.index.min()), int(m.index.max())
        hours = np.arange(lo, hi + 1, dtype=np.int64)
        n = np.zeros(len(hours), dtype=np.int64)
        n[m.index.to_numpy(dtype=np.int64) - lo] = m.to_numpy(
            dtype=np.int64
        )
        hour_str = pd.to_datetime(hours * 3600, unit="s").strftime(
            "%Y-%m-%d %H:00:00"
        )
        return pd.DataFrame(
            {
                "event_type": pd.Series(
                    [g["event_type"].iloc[0]] * len(hours), dtype=object
                ),
                "hour": pd.Series(hour_str, dtype=object),
                "n_events": pd.Series(n, dtype=np.int64),
            }
        )

    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])
    return bucketed_map_groups(
        ds.map_batches(combine, batch_format="pyarrow"),
        "event_type",
        densify,
    ).sort(["event_type", "hour"])


def events_sliding_window(
    sf_dir: str, width_hours: int = 6, step_hours: int = 2
) -> ray.data.Dataset:
    """Hopping-window aggregation (width 6 h, step 2 h): per
    (window_start, event_type) event counts AND distinct users, where
    consecutive windows OVERLAP — the streaming-analytics shape
    (sliding trend lines, rate alarms) that tumbling buckets
    (events_daily / events_hourly_gapfill) cannot express because each
    event belongs to width/step = 3 windows at once.

    Semantics: window [w, w+width) with w on the step grid; an event at
    t lands in windows w = (t//step − j)·step for j in 0..2, so only
    windows with ≥1 event appear (both engines derive windows from the
    events themselves — no empty-window generation; that shape is
    events_hourly_gapfill's).

    Scale plan: the ×3 row amplification happens inside a per-block
    combiner that immediately re-groups to (window, type, user) partial
    counts, so the shuffle carries at most windows × types × active
    users rows, never 3× the corpus; one (type, window)-hash co-group
    merges partials and counts distinct users vectorized. No driver
    state.
    """
    import numpy as np

    from ..stages.cogroup import bucketed_map_groups

    step_us = step_hours * 3_600_000_000
    n_win = width_hours // step_hours

    def combine(batch: pa.Table) -> pd.DataFrame:
        k = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            // step_us
        ).astype(np.int64)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        df = pd.DataFrame(
            {
                "wstep": np.concatenate([k - j for j in range(n_win)]),
                "event_type": np.tile(et, n_win),
                "user_id": np.tile(uid, n_win),
            }
        )
        g = (
            df.groupby(["wstep", "event_type", "user_id"], sort=True)
            .size()
            .rename("n")
            .reset_index()
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        per_user = g.groupby("user_id", sort=False)["n"].sum()
        w = int(g["wstep"].iloc[0])
        start = pd.to_datetime(w * step_hours * 3600, unit="s").strftime(
            "%Y-%m-%d %H:%M:%S"
        )
        return pd.DataFrame(
            {
                "window_start": pd.Series([start], dtype=object),
                "event_type": pd.Series(
                    [g["event_type"].iloc[0]], dtype=object
                ),
                "n_events": pd.Series(
                    [int(per_user.sum())], dtype=np.int64
                ),
                "n_users": pd.Series([len(per_user)], dtype=np.int64),
            }
        )

    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "user_id"])
    return bucketed_map_groups(
        ds.map_batches(combine, batch_format="pyarrow"),
        ["wstep", "event_type"],
        merge,
    ).sort(["window_start", "event_type"])


def events_rollup(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY ROLLUP(event_type, day): per-(type, day) counts plus
    per-type subtotals (day = -1) and a grand total (type = 'ALL').

    One corpus-scale aggregate produces the fine (type, day) cube —
    vocabulary-scale — and both rollup levels re-aggregate THAT, so the
    corpus is read exactly once and the subtotal shuffles move only
    cube rows.
    """
    import numpy as np

    _US_PER_DAY = 86_400_000_000

    def add_day(batch: pa.Table) -> pa.Table:
        day = pc.divide(batch["ts"].cast(pa.int64()), _US_PER_DAY)
        return pa.table({"event_type": batch["event_type"], "day": day})

    fine = small_groupby_aggregate(
        read_table(sf_dir, "events", columns=["ts", "event_type"]).map_batches(
            add_day, batch_format="pyarrow"
        ),
        ["event_type", "day"],
        {"n_events": (None, "count")},
    )

    by_type = small_groupby_aggregate(
        fine, "event_type", {"n_events": ("n_events", "sum")}
    )

    def tag_subtotal(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "day": pa.array(
                    np.full(len(batch), -1, dtype=np.int64)
                ),
                "n_events": batch["n_events"],
            }
        )

    def grand(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": pa.array(["ALL"] * len(batch), type=pa.string()),
                "day": pa.array(np.full(len(batch), -1, dtype=np.int64)),
                "n_events": batch["n_events"],
            }
        )

    grand_total = small_groupby_aggregate(
        by_type.map_batches(grand, batch_format="pyarrow"),
        "event_type",
        {"n_events": ("n_events", "sum")},
    )

    def reorder(batch: pa.Table) -> pa.Table:
        return batch.select(["event_type", "day", "n_events"])

    subtotal = by_type.map_batches(tag_subtotal, batch_format="pyarrow")
    g2 = grand_total.map_batches(
        lambda b: pa.table(
            {
                "event_type": b["event_type"],
                "day": pa.array(np.full(len(b), -1, dtype=np.int64)),
                "n_events": b["n_events"],
            }
        ),
        batch_format="pyarrow",
    )
    return (
        fine.map_batches(reorder, batch_format="pyarrow")
        .union(subtotal, g2)
        .sort(["event_type", "day"])
    )


def _splitmix64(x: "np.ndarray") -> "np.ndarray":
    """Vectorized splitmix64 finalizer — a public-domain 64-bit mixer
    (Steele et al., used as the canonical uint64 hash in numpy/JDK)."""
    import numpy as np

    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D4ECB871BCAF9D)
    return z ^ (z >> np.uint64(31))


def events_hll_users(sf_dir: str, p: int = 14) -> ray.data.Dataset:
    """HyperLogLog distinct-user estimate (Flajolet et al. 2007) as a
    mergeable sketch: each batch folds its user ids into a 2^p-register
    partial (one uint64 hash pass + ``np.maximum.at``), registers merge
    by elementwise max in one tiny keyed exchange on a constant key,
    and the final row carries the estimate.  Only n_batches × 2^p bytes
    cross the shuffle regardless of corpus size — the canonical 100-TB
    COUNT(DISTINCT) plan.  Standard error ≈ 1.04/√(2^p) ≈ 0.8% at p=14.

    Oracle-exact by construction (round 4): every float op either has
    an exhaustively-verified twin in DuckDB or is replaced by integer
    arithmetic, so the estimate is SQL-reproducible bit-for-bit —
    ``events_hll_users_sql`` re-derives it from the raw table:

    - rank = leading-zero count is exact (float log2 candidate ± one
      integer correction; the SQL side uses an exact range join);
    - the harmonic sum is the INTEGER S = Σ 2^(scale − rank_i), scale =
      64 − p + 1 (every term a power of two ≥ 1, no float rounding);
    - the bias-corrected branch is a pure integer floor division
      (α(m)·m²·2^scale/S with α(m) = 7213·m/(10·(1000m+1079)) exact);
    - the branch test est ≤ 2.5m is cross-multiplied in integers;
    - linear counting keeps m·ln(m/V), whose quantized value agrees
      between numpy and DuckDB on the ENTIRE reachable domain
      V ∈ [1, m] (exhaustive sweep pinned by
      tests/test_analytics_extra.py::test_hll_linear_counting_ln_parity).
    """
    import numpy as np
    import pandas as pd

    m = 1 << p
    scale = 64 - p + 1

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["user_id"].to_numpy(zero_copy_only=False)
        h = _splitmix64(np.unique(ids))
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = h << np.uint64(p)  # remaining 64-p bits, left-aligned
        # rank = leading zeros of the remaining bits + 1 (capped)
        nz = rest != 0
        lz = np.full(len(h), 64 - p, dtype=np.int64)
        if nz.any():
            rnz = rest[nz]
            # float log2 gives a ±1 candidate (uint64→double rounds);
            # one integer compare in each direction makes it exact
            k = np.floor(np.log2(rnz.astype(np.float64))).astype(np.int64)
            np.clip(k, 0, 63, out=k)
            pk = np.left_shift(np.uint64(1), k.astype(np.uint64))
            k = np.where(rnz < pk, k - 1, k)
            up = (k < 63) & (
                rnz
                >= np.left_shift(
                    np.uint64(1), np.minimum(k + 1, 63).astype(np.uint64)
                )
            )
            lz[nz] = 63 - (k + up)
            np.clip(lz, 0, 64 - p, out=lz)
        rank = (lz + 1).astype(np.uint8)
        regs = np.zeros(m, dtype=np.uint8)
        np.maximum.at(regs, idx, rank)
        return pa.table(
            {
                "g": pa.array([0], type=pa.int64()),
                "registers": pa.array([regs.tolist()], type=pa.list_(pa.uint8())),
            }
        )

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        regs = np.zeros(m, dtype=np.uint8)
        for r in g["registers"]:
            np.maximum(regs, np.asarray(r, dtype=np.uint8), out=regs)
        counts = np.bincount(regs, minlength=scale + 1).tolist()
        s = sum(int(c) << (scale - r) for r, c in enumerate(counts) if c)
        zeros = int(counts[0])
        num = 7213 * m * m * m * (1 << scale)
        den = 10 * (1000 * m + 1079) * s
        if 2 * num <= 5 * m * den and zeros:  # small-range linear counting
            est = int(np.floor(m * np.log(m / zeros) + 0.5))
        else:
            est = num // den
        return pd.DataFrame({"n_users_est": np.array([est], dtype=np.int64)})

    from ..stages.cogroup import bucket_exchange

    partials = read_table(sf_dir, "events", columns=["user_id"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return bucket_exchange(partials, "g", merge)


def events_hll_users_sql(p: int = 14) -> str:
    """DuckDB SQL re-deriving ``events_hll_users``' estimate exactly
    from the raw events table: splitmix64 via hi/lo 32-bit multiply
    decomposition (a·b mod 2^64 needs 128 bits; HUGEINT holds each
    sub-product), ranks via an exact range join against precomputed
    power-of-two literals, the harmonic sum as the same integer S, and
    the same integer branch/floor-division arithmetic. The only float
    op is the linear-counting ln, exhaustively verified over its whole
    reachable domain (see events_hll_users docstring)."""
    m = 1 << p
    scale = 64 - p + 1
    c1 = 0x9E3779B97F4A7C15
    c2 = 0xBF58476D1CE4E5B9
    c3 = 0x94D4ECB871BCAF9D
    m64 = 2**64
    num = 7213 * m * m * m * (1 << scale)

    def mul64(a: str, b: int) -> str:
        bl = b & 0xFFFFFFFF
        return (
            f"(CAST(({a}) % 4294967296 AS HUGEINT) * {b} + "
            f"((CAST(({a}) >> 32 AS HUGEINT) * {bl}) % 4294967296) "
            f"* 4294967296) % {m64}"
        )

    rnk_rows = ",\n            ".join(
        f"({r}, {2 ** (64 - r)}, {2 ** (65 - r)}, {2 ** (scale - r)})"
        for r in range(1, scale + 1)
    )
    return f"""
        WITH uids AS (
            SELECT DISTINCT CAST(user_id AS HUGEINT) AS x FROM events
        ),
        s0 AS (SELECT CAST((x + {c1}) % {m64} AS UBIGINT) AS z FROM uids),
        s1 AS (SELECT CAST({mul64("xor(z, z >> 30)", c2)} AS UBIGINT) AS z
               FROM s0),
        s2 AS (SELECT CAST({mul64("xor(z, z >> 27)", c3)} AS UBIGINT) AS z
               FROM s1),
        hs AS (SELECT xor(z, z >> 31) AS h FROM s2),
        ir AS (SELECT h >> {64 - p} AS idx,
                      CAST(h AS HUGEINT) * {1 << p} % {m64} AS rest
               FROM hs),
        rnk(r, lo, hi, term) AS (VALUES
            {rnk_rows}),
        ranked AS (
            SELECT ir.idx, COALESCE(rnk.r, {scale}) AS rank
            FROM ir LEFT JOIN rnk ON ir.rest >= rnk.lo AND ir.rest < rnk.hi
        ),
        regs AS (SELECT idx, MAX(rank) AS rnk FROM ranked GROUP BY idx),
        agg AS (
            SELECT SUM(t.term)::HUGEINT AS s_nz, COUNT(*) AS n_nz
            FROM regs JOIN rnk t ON t.r = regs.rnk
        ),
        est AS (
            SELECT ({m} - n_nz) AS v,
                   (s_nz + ({m} - n_nz) * {2 ** scale}::HUGEINT) AS s
            FROM agg
        )
        SELECT CASE WHEN 2 * {num}::HUGEINT
                         <= 5 * {m} * (10 * (1000 * {m} + 1079) * s)
                         AND v > 0
                    THEN CAST(floor({m} * ln({m}.0 / v) + 0.5) AS BIGINT)
                    ELSE CAST({num}::HUGEINT
                              // (10 * (1000 * {m} + 1079) * s) AS BIGINT)
               END AS n_users_est
        FROM est
    """


def events_funnel(sf_dir: str, window_s: int = 7 * 86400) -> ray.data.Dataset:
    """Ordered view→click→purchase funnel per user.

    The product-analytics funnel primitive: a view CONVERTS iff a click
    follows it strictly and a purchase strictly follows that click,
    with the purchase within ``window_s`` of the view (default 7 days
    — the synthetic events' median per-user inter-event gap is ~7.7 h,
    so an hour-scale window converts nothing). Counting is
    per-view EXISTS (each view converts at most once), ties on equal
    timestamps never chain (strict <), so both engines agree exactly.
    Emits (user_id, n_views, n_converted).

    Scale plan: one bucketed per-user co-group (user ids are
    corpus-scale → `user_id % 512` buckets, the house rule); inside a
    user frame the chain check is O(n log n) via two searchsorteds —
    the FIRST click after the view minimizes the next-purchase time, so
    no per-view scan. Timestamps cross engines as epoch microseconds.
    """
    import numpy as np
    import pandas as pd

    win_us = window_s * 1_000_000

    def funnel(g: "pd.DataFrame") -> "pd.DataFrame":
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        uid = int(g["user_id"].iloc[0])
        views = np.sort(us[et == "view"])
        clicks = np.sort(us[et == "click"])
        purchases = np.sort(us[et == "purchase"])
        n_conv = 0
        if len(views) and len(clicks) and len(purchases):
            # first click strictly after each view
            ci = np.searchsorted(clicks, views, side="right")
            ok = ci < len(clicks)
            first_click = clicks[np.minimum(ci, len(clicks) - 1)]
            # first purchase strictly after that click
            pi = np.searchsorted(purchases, first_click, side="right")
            ok &= pi < len(purchases)
            first_purchase = purchases[
                np.minimum(pi, len(purchases) - 1)
            ]
            ok &= first_purchase <= views + win_us
            n_conv = int(ok.sum())
        return pd.DataFrame(
            {
                "user_id": pd.Series([uid], dtype=np.int64),
                "n_views": pd.Series([len(views)], dtype=np.int64),
                "n_converted": pd.Series([n_conv], dtype=np.int64),
            }
        )

    from ..stages.cogroup import bucketed_map_groups

    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "event_type"])
    return bucketed_map_groups(ds, "user_id", funnel).sort("user_id")


def events_retention(sf_dir: str) -> ray.data.Dataset:
    """Weekly cohort retention: users grouped by first-event week,
    counted as retained in every later epoch-week they are active.

    The cohort-analysis primitive: cohort_week = the user's first
    event's epoch week (µs // 7·86400·10⁶ — integer, timezone-free),
    week_offset = event week − cohort week; emits (cohort_week,
    week_offset, n_users) with n_users = distinct users active at that
    offset (offset 0 = cohort size).

    Scale plan: one bucketed per-user co-group computes each user's
    cohort and distinct offsets (user ids are corpus-scale — `% 512`
    buckets); the per-(cohort, offset) distinct-user count then needs
    only a Sum over the per-user 0/1 rows, pre-combined per block so
    the final groupby sees (weeks × offsets)-scale partials, not
    user-scale rows.
    """
    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Sum

    WEEK_US = 7 * 86400 * 1_000_000

    def per_user(g: "pd.DataFrame") -> "pd.DataFrame":
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        weeks = us // WEEK_US
        cohort = int(weeks.min())
        offs = np.unique(weeks - cohort)
        return pd.DataFrame(
            {
                "cohort_week": pd.Series(
                    np.full(len(offs), cohort, dtype=np.int64)
                ),
                "week_offset": pd.Series(offs, dtype=np.int64),
                "n_users": pd.Series(np.ones(len(offs), dtype=np.int64)),
            }
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(
            ["cohort_week", "week_offset"], as_index=False, sort=True
        )["n_users"].sum()
        return out.astype(np.int64)

    from ..stages.cogroup import bucketed_map_groups

    ds = read_table(sf_dir, "events", columns=["ts", "user_id"])
    marks = bucketed_map_groups(ds, "user_id", per_user)
    return (
        marks.map_batches(combine, batch_format="pandas")
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .sort(["cohort_week", "week_offset"])
    )
