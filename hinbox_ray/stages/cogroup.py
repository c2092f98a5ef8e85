"""Sort-shuffle co-group joins and bucketed groupings.

Two-sided attaches (``attach_component``, ``attach_entity_id``, the
textops gram attach) tag each side, ``union`` them and run one
``groupby(bucket).map_groups`` — the sort shuffle routes both sides by
the same comparison key, so matching is exact by construction. They do
not use ``Dataset.join`` for cost: measured on Ray 2.49.2 (4 cpus), a
join took 3.6–5.2 s per call at every size from 19 to 50k rows, the
bucketed co-group 0.14–2.5 s.

Sizing rule. A sort-shuffle ``map_groups`` pays a fixed ~18 ms per
INPUT block (about twice that when the upstream is lazy), nearly
independent of rows and of ``num_partitions``, and every ``union``
adds its sides' block counts. So every exchange here goes through
``bucket_exchange``, whose bucket-tagging map (run after the sides are
unioned) has ``batch_size=COALESCE_ROWS``: Ray bundles small upstream
blocks into one task, and the shuffle sees about ⌈rows/COALESCE_ROWS⌉
blocks. Blocks already over that size are unchanged. It adds no
``count()``, no ``repartition`` and no parameter.

Measured negatives (same probe setup):
- ``repartition(target_num_rows_per_block=…)`` does not coalesce
  small blocks (49 blocks in, 49 out);
- ``repartition(1)`` coalesces, but adds one all-to-all per call
  (kgbench docs_dedup ``plan.all_to_all_calls`` 21 → 30);
- ``groupby(..., num_partitions=cpus)`` moved nothing measurable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_FNV_PRIME = np.uint64(1099511628211)

# rows per block a co-group input is coalesced to before its exchange
COALESCE_ROWS = 65_536


def key_buckets(df: pd.DataFrame, key_cols, n_buckets: int) -> np.ndarray:
    """Deterministic per-row bucket from one or more key columns
    (pandas' fixed-key siphash per column, FNV-folded — stable across
    processes/nodes, vectorized)."""
    h = np.zeros(len(df), dtype=np.uint64)
    for c in key_cols:
        h = h * _FNV_PRIME + pd.util.hash_pandas_object(
            df[c], index=False
        ).to_numpy().astype(np.uint64)
    return (h % np.uint64(n_buckets)).astype(np.int64)


def bucket_exchange(ds, bucket_of, kernel):
    """One sort-shuffle co-group: coalesce ``ds`` by rows (module
    docstring), tag each row with ``_gbucket = bucket_of(frame)`` and
    run ``kernel`` once per bucket frame. Callers union their tagged
    sides first, so the exchange sees ⌈rows/COALESCE_ROWS⌉ blocks."""

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_gbucket"] = bucket_of(df)
        return df

    return (
        ds.map_batches(
            add_bucket, batch_format="pandas", batch_size=COALESCE_ROWS
        )
        .groupby("_gbucket")
        .map_groups(kernel, batch_format="pandas")
    )


def bucketed_map_groups(ds, keys, kernel, *, n_buckets: int = 512):
    """``groupby(keys).map_groups(kernel)`` with O(n_buckets) Ray
    groups instead of one per key.

    Ray's map_groups pays ~0.4 ms fixed scheduling cost per group; over
    a vocabulary-scale key space (most groups tiny) that fixed cost IS
    the stage — measured 186 s for 30k docs on the minhash band path
    before the same fix. Shuffling on a hash bucket of the key keeps
    the exchange identical (all rows of a key co-locate) while the
    per-key re-grouping happens inside the bucket task with pandas,
    whose per-group cost is ~10× smaller and parallelizes across
    buckets. Exactness is preserved: bucket(key) is a function of the
    key, so no key spans two Ray groups.
    """
    key_list = [keys] if isinstance(keys, str) else list(keys)

    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_gbucket"])
        outs = [
            kernel(sub)
            for _, sub in g.groupby(key_list, sort=True, dropna=False)
        ]
        return pd.concat(outs, ignore_index=True)

    return bucket_exchange(
        ds, lambda df: key_buckets(df, key_list, n_buckets), run_bucket
    )


def bucketed_drop_duplicates(ds, dedup_cols, *, bucket_cols=None, n_buckets=512):
    """Distributed ``drop_duplicates(dedup_cols)`` with O(n_buckets) Ray
    groups and ONE vectorized pandas dedup per bucket — never one group
    per distinct row.

    Exactness requires every copy of a duplicate row to land in the
    same bucket: ``bucket_cols`` (default: ``dedup_cols``) must be
    DETERMINED BY the dedup key — a subset of it, or a function of it
    (e.g. bucketing on (entity_id, salt) where salt = f(url) is valid
    for dedup on (entity_id, url))."""
    bucket_cols = list(bucket_cols or (
        [dedup_cols] if isinstance(dedup_cols, str) else dedup_cols
    ))
    dd_cols = [dedup_cols] if isinstance(dedup_cols, str) else list(dedup_cols)

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(dd_cols).drop(columns=["_gbucket"])

    return bucket_exchange(
        ds, lambda df: key_buckets(df, bucket_cols, n_buckets), dedup
    )


# raw-entity column order (resolve._reduce_mention_group output + node_id)
RAW_COLS = [
    "entity_type",
    "name",
    "attr_type",
    "start_date",
    "end_date",
    "event_type",
    "description",
    "aliases",
    "n_mentions",
    "first_url",
    "first_ord",
    "first_ts",
    "evidence",
    "node_id",
]

_STR_COLS = [
    "entity_type",
    "name",
    "attr_type",
    "start_date",
    "end_date",
    "event_type",
    "description",
    "aliases",
    "first_url",
    "evidence",
]


def attach_component(raw_ds, comps_ds, *, n_buckets: int = 512):
    """raw(node_id, ...) ⟕ comps(node_id, component) via BUCKETED
    co-group: one sort-shuffle on ``node_id % n_buckets`` (O(n_buckets)
    Ray groups, not one per node — see ``bucketed_map_groups``), then a
    vectorized pandas left-merge per bucket.

    Returns the raw columns + ``component`` (int64); nodes absent from
    comps (singletons — no candidate edges) get their own node_id.
    """

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df[RAW_COLS].copy()
        df["component"] = np.int64(-1)
        df["_src"] = np.int8(0)
        return df

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(index=range(len(df)))
        for c in _STR_COLS:
            out[c] = ""
        out["n_mentions"] = np.int64(0)
        out["first_ord"] = np.int64(0)
        out["first_ts"] = pd.NaT
        out["node_id"] = df["node_id"].astype(np.int64).to_numpy()
        out = out[RAW_COLS]
        out["component"] = df["component"].astype(np.int64).to_numpy()
        out["_src"] = np.int8(1)
        return out

    def resolve_bucket(g: pd.DataFrame) -> pd.DataFrame:
        maps = g[g["_src"] == 1][["node_id", "component"]].drop_duplicates(
            "node_id"
        )
        rows = g[g["_src"] == 0].drop(
            columns=["_src", "_gbucket", "component"]
        )
        if rows.empty:
            out = rows.copy()
            out["component"] = pd.Series(dtype=np.int64)
            return out
        # INT-EXACT left lookup: a merge + fillna would pass the int64
        # component column through float64 (NaN for singletons), and
        # 63-bit ids lose precision above 2^53 — silently merging
        # unrelated clusters. get_indexer keeps everything integral.
        out = rows.copy()
        nid = out["node_id"].astype(np.int64).to_numpy()
        if maps.empty:
            out["component"] = nid
            return out
        idx = pd.Index(maps["node_id"].astype(np.int64).to_numpy())
        pos = idx.get_indexer(nid)  # -1 where the node has no edge row
        comp = maps["component"].astype(np.int64).to_numpy()
        out["component"] = np.where(
            pos >= 0, comp[np.maximum(pos, 0)], nid
        ).astype(np.int64)
        return out

    left = raw_ds.map_batches(tag_left, batch_format="pandas")
    right = comps_ds.map_batches(tag_right, batch_format="pandas")
    return bucket_exchange(
        left.union(right),
        lambda df: df["node_id"].to_numpy(np.int64) % n_buckets,
        resolve_bucket,
    )


def _url_salt(urls: pd.Series, n_salts: int) -> np.ndarray:
    """Deterministic per-url salt (pandas' fixed-key siphash — stable
    across processes and nodes)."""
    return (
        pd.util.hash_pandas_object(urls, index=False).to_numpy() % n_salts
    ).astype(np.int64)


def attach_entity_id(mention_nodes_ds, node_map_ds, *, n_salts: int = 16):
    """(node_id, url) ⋈ (node_id → entity_id) via SALTED co-group (inner).

    Hot-entity skew handling (the north rule's "salted repartitioning"):
    a popular name ("United States") concentrates a large fraction of
    all mention rows under one node_id, so an unsalted groupby puts them
    in one reduce task. The group key is (node_id, salt(url)); the tiny
    node→entity map is replicated to every salt. Salting by URL also
    keeps every duplicate of a given (entity, url) pair in the same
    salted group, so downstream dedup stays exact.
    """

    n_buckets = 512

    def _bucket(node: np.ndarray, salt: np.ndarray) -> np.ndarray:
        # salt spreads a hot node's rows over n_salts buckets — the
        # whole point of the salting — so the bucket must mix BOTH
        return (
            (node.astype(np.uint64) * _FNV_PRIME + salt.astype(np.uint64))
            % np.uint64(n_buckets)
        ).astype(np.int64)

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        node = df["node_id"].astype(np.int64).to_numpy()
        salt = _url_salt(df["url"], n_salts)
        return pd.DataFrame(
            {
                "node_id": node,
                "salt": salt,
                "url": df["url"].astype(str),
                "entity_id": "",
                "_src": np.int8(0),
            }
        )

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        node = np.repeat(df["node_id"].astype(np.int64).to_numpy(), n_salts)
        salt = np.tile(np.arange(n_salts, dtype=np.int64), n)
        return pd.DataFrame(
            {
                "node_id": node,
                "salt": salt,
                "url": "",
                "entity_id": np.repeat(
                    df["entity_id"].astype(str).to_numpy(), n_salts
                ),
                "_src": np.int8(1),
            }
        )

    def resolve_bucket(g: pd.DataFrame) -> pd.DataFrame:
        maps = g[g["_src"] == 1][["node_id", "entity_id"]].drop_duplicates(
            "node_id"
        )
        rows = g[g["_src"] == 0]
        if rows.empty or maps.empty:
            return pd.DataFrame(
                {
                    "entity_id": pd.Series(dtype=object),
                    "url": pd.Series(dtype=object),
                    "salt": pd.Series(dtype=np.int64),
                }
            )
        # (node, url) dedup is globally exact in-bucket: equal urls get
        # equal salts, so every copy of a (node, url) pair lands here
        sub = rows[["node_id", "salt", "url"]].drop_duplicates(
            ["node_id", "url"]
        )
        out = sub.merge(maps, on="node_id", how="inner")
        return pd.DataFrame(
            {
                "entity_id": out["entity_id"].astype(str).to_numpy(),
                "url": out["url"].to_numpy(),
                "salt": out["salt"].astype(np.int64).to_numpy(),
            }
        )

    left = mention_nodes_ds.map_batches(tag_left, batch_format="pandas")
    right = node_map_ds.map_batches(tag_right, batch_format="pandas")
    return bucket_exchange(
        left.union(right),
        lambda df: _bucket(df["node_id"].to_numpy(), df["salt"].to_numpy()),
        resolve_bucket,
    )
