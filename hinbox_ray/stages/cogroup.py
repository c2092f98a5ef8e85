"""Sort-shuffle co-group joins and bucketed groupings.

``cogroup`` is the one two-sided exchange: it hashes every side on its
key columns into the same buckets, ships each side's per-bucket
sub-table as one Arrow IPC payload row ``(_gbucket, _side, _blob)``,
groups the payload rows with one sort shuffle and hands the kernel
whole per-side block frames. Sides keep their own schemas. They are
not ``union``-ed as rows: on Ray 2.49.2 a ``union`` of two sides with
different columns runs, but Ray concatenates the blocks through pandas
and casts the other side's int64 column to float64, so the values
2^62+0 … 2^62+5 all came back as 4.611686018427388e18. Every
two-sided co-group in the package goes through it (the attaches here,
the graph queries, the textops joins, the TPC-H joins, the memo,
grounding, profiles and the KG increment diff); this module is the only
one that tags, buckets and ships sides. It does not use
``Dataset.join`` for cost: measured on Ray 2.49.2 (4 cpus), a join
took 3.6–5.2 s per call at every size from 19 to 50k rows, the
bucketed co-group 0.14–2.5 s.

Kernel contract (every exchange here). The kernel runs once per
shuffle output block, not once per bucket or per key. A block holds
whole key groups: the sort on ``_gbucket`` never puts equal buckets in
two blocks, and a key determines its bucket. A block holds many keys,
so a kernel must give the same answer over any union of whole key
groups, i.e. group or merge on its key itself. For ``cogroup`` a side
is ``None`` when it has no rows in the block; empty blocks are skipped.

Sizing rule. A sort shuffle pays a fixed ~18 ms per INPUT block (about
twice that when the upstream is lazy), nearly independent of rows and
of ``num_partitions``, and every ``union`` adds its sides' block
counts. So every exchange here tags its rows in a map with
``batch_size=COALESCE_ROWS``: Ray bundles small upstream blocks into
one task, and the shuffle sees about ⌈rows/COALESCE_ROWS⌉ blocks per
side. Blocks already over that size are unchanged. The sort emits as
many blocks as it takes in, so a kernel runs ⌈rows/COALESCE_ROWS⌉
times per exchange, however many buckets there are; the bucket count
only sets how finely rows can spread over blocks (and, for
``cogroup``, how many payload rows a batch ships). It adds no
``count()``, no ``repartition`` and no parameter.

Measured negatives (same probe setup):
- ``repartition(target_num_rows_per_block=…)`` does not coalesce
  small blocks (49 blocks in, 49 out);
- ``repartition(1)`` coalesces, but adds one all-to-all per call
  (kgbench docs_dedup ``plan.all_to_all_calls`` 21 → 30);
- ``groupby(..., num_partitions=cpus)`` moved nothing measurable;
- one kernel call per bucket (``groupby(_gbucket).map_groups``) paid
  a few ms of slicing and pandas set-up per bucket, all in one task on
  a one-block input: traced kgbench docs_dedup ``cogroup.busy_s`` read
  3.65–3.73 s against 0.66–0.69 s for one call per block (1-core VM,
  Ray num_cpus=4).

``bucket_exchange(ds, keys, kernel)`` is the one one-sided exchange:
every keyed grouping in the package outside Ray-native
``groupby().aggregate`` goes through it, directly or via
``bucketed_map_groups`` (one kernel call per key, for kernels that
read their key with ``iloc[0]``) and ``bucketed_drop_duplicates``. No
module calls ``Dataset.groupby(...).map_groups``, and no module but
this one computes a shuffle bucket (``tests/test_structure.py``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_FNV_PRIME = np.uint64(1099511628211)

# rows per block a co-group input is coalesced to before its exchange
COALESCE_ROWS = 65_536

# hash buckets of the one-sided exchanges
N_BUCKETS = 512


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


def bucket_exchange(ds, keys, kernel):
    """One-sided sort-shuffle grouping on ``keys`` (one column or a
    list): coalesce ``ds`` by rows, tag each row with its
    ``key_buckets`` bucket, sort on it and run ``kernel`` once per
    non-empty output block on that block's rows (the bucket column
    dropped). Every key lies whole in one block; a block holds many
    keys (module docstring)."""
    key_list = _key_list(keys)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_gbucket"] = key_buckets(df, key_list, N_BUCKETS)
        return df

    def run(df: pd.DataFrame):
        if len(df):
            yield kernel(df.drop(columns=["_gbucket"]))

    return (
        ds.map_batches(
            add_bucket, batch_format="pandas", batch_size=COALESCE_ROWS
        )
        .sort("_gbucket")
        .map_batches(run, batch_format="pandas", batch_size=None)
    )


def bucketed_map_groups(ds, keys, kernel):
    """One ``kernel`` call per key, as Ray's per-group ``map_groups``
    makes, without one Ray group per key: ``bucket_exchange`` on
    ``keys``, then a pandas groupby inside each block's task. For
    kernels that read one key per call (``g[key].iloc[0]``); a kernel
    that groups on its key itself should go to ``bucket_exchange``
    directly."""
    key_list = _key_list(keys)

    def run_block(g: pd.DataFrame) -> pd.DataFrame:
        outs = [
            kernel(sub)
            for _, sub in g.groupby(key_list, sort=True, dropna=False)
        ]
        return pd.concat(outs, ignore_index=True)

    return bucket_exchange(ds, key_list, run_block)


def bucketed_drop_duplicates(ds, dedup_cols, *, bucket_cols=None):
    """Distributed ``drop_duplicates(dedup_cols)``: ONE vectorized
    pandas dedup per shuffle block — never one group per distinct row.

    Exactness requires every copy of a duplicate row to land in the
    same bucket: ``bucket_cols`` (default: ``dedup_cols``) must be
    DETERMINED BY the dedup key — a subset of it, or a function of it
    (e.g. bucketing on (entity_id, salt) where salt = f(url) is valid
    for dedup on (entity_id, url))."""
    dd_cols = _key_list(dedup_cols)
    return bucket_exchange(
        ds, bucket_cols or dd_cols, lambda g: g.drop_duplicates(dd_cols)
    )


def _key_list(cols) -> list:
    return [cols] if isinstance(cols, str) else list(cols)


def _to_payload(side: str, cols: list, n_buckets: int):
    """Arrow batch → one ``(_gbucket, _side, _blob)`` row per bucket.
    Key columns are normalised first (ints to int64, strings to
    string), so int32 v int64 and Arrow-string v object keys hash
    alike and the kernel sees one dtype."""

    def fn(t: pa.Table) -> pa.Table:
        for c in cols:
            typ = t.schema.field(c).type
            if pa.types.is_integer(typ):
                to = pa.int64()
            elif pa.types.is_dictionary(typ) or pa.types.is_large_string(typ):
                to = pa.string()
            else:
                continue
            t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(to))
        b = key_buckets(t.select(cols).to_pandas(), cols, n_buckets)
        order = np.argsort(b, kind="stable")
        b = b[order]
        t = t.take(pa.array(order))
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]]) if len(b) else b
        blobs = []
        for s, e in zip(starts, np.r_[starts[1:], len(b)]):
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, t.schema) as w:
                w.write_table(t.slice(s, e - s))
            blobs.append(sink.getvalue().to_pybytes())
        return pa.table(
            {
                "_gbucket": pa.array(b[starts], pa.int64()),
                "_side": pa.array([side] * len(blobs), pa.string()),
                "_blob": pa.array(blobs, pa.large_binary()),
            }
        )

    return fn


def cogroup(sides: dict, on, kernel, *, n_buckets: int = 512):
    """Co-group the datasets in ``sides`` on their key columns and run
    ``kernel(frames)`` once per shuffle output block, where ``frames``
    maps each side name to that side's pandas rows in the block, or
    ``None`` when the side has no rows there. A block holds whole key
    groups, many keys each (module docstring), so a kernel that merges
    its frames on the key joins exactly.

    ``on`` names the key columns: one column or a list, shared by every
    side, or a dict ``{side: columns}``; key columns pair by position.
    Each side is coalesced by data rows (module docstring) and turned
    into Arrow payload rows, one per bucket and batch; the payload rows
    of all sides are bundled again (at most one full payload batch per
    side) and one sort shuffle on ``_gbucket`` groups them. The kernel
    returns a DataFrame, an Arrow table or ``None`` (no rows)."""
    names = list(sides)
    keys = {
        n: _key_list(on[n] if isinstance(on, dict) else on) for n in names
    }
    tagged = [
        sides[n].map_batches(
            _to_payload(n, keys[n], n_buckets),
            batch_format="pyarrow",
            batch_size=COALESCE_ROWS,
        )
        for n in names
    ]
    ds = tagged[0]
    if len(tagged) > 1:
        # the union adds the sides' block counts; bundle the payload
        # rows again so small sides share one shuffle input block
        ds = ds.union(*tagged[1:]).map_batches(
            lambda t: t,
            batch_format="pyarrow",
            batch_size=n_buckets * len(tagged),
        )

    def run(t: pa.Table):
        if not t.num_rows:
            return
        side = t["_side"].to_numpy(zero_copy_only=False)
        blob = t["_blob"]
        frames = {}
        for n in names:
            parts = [
                pa.ipc.open_stream(blob[int(i)].as_buffer()).read_all()
                for i in np.flatnonzero(side == n)
            ]
            frames[n] = (
                pa.concat_tables(parts, promote_options="permissive").to_pandas()
                if parts
                else None
            )
        out = kernel(frames)
        if out is not None:
            yield out

    return ds.sort("_gbucket").map_batches(
        run, batch_format="pyarrow", batch_size=None
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


def attach_component(raw_ds, comps_ds):
    """raw(node_id, ...) ⟕ comps(node_id, component) via ``cogroup`` on
    node_id, then a vectorized lookup per shuffle block.

    Returns the raw columns + ``component`` (int64); nodes absent from
    comps (singletons — no candidate edges) get their own node_id.
    """

    def resolve_bucket(f: dict):
        raw, comps = f["raw"], f["comps"]
        if raw is None:
            return None
        out = raw[RAW_COLS].copy()
        nid = out["node_id"].to_numpy(np.int64)
        if comps is None:
            out["component"] = nid
            return out
        # INT-EXACT left lookup: a merge + fillna would pass the int64
        # component column through float64 (NaN for singletons), and
        # 63-bit ids lose precision above 2^53 — silently merging
        # unrelated clusters. get_indexer keeps everything integral.
        comps = comps.drop_duplicates("node_id")
        pos = pd.Index(comps["node_id"].to_numpy(np.int64)).get_indexer(nid)
        comp = comps["component"].to_numpy(np.int64)
        out["component"] = np.where(pos >= 0, comp[np.maximum(pos, 0)], nid)
        return out

    return cogroup(
        {"raw": raw_ds, "comps": comps_ds},
        "node_id",
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
    in one reduce task. The co-group key is (node_id, salt(url)), which
    spreads a hot node's rows over n_salts buckets; the tiny
    node→entity map is replicated to every salt. Salting by URL also
    keeps every duplicate of a given (entity, url) pair in the same
    salted group, so downstream dedup stays exact.
    """

    def salted(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node_id": df["node_id"].to_numpy(np.int64),
                "salt": _url_salt(df["url"], n_salts),
                "url": df["url"].astype(str),
            }
        )

    def replicated(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame(
            {
                "node_id": np.repeat(df["node_id"].to_numpy(np.int64), n_salts),
                "salt": np.tile(np.arange(n_salts, dtype=np.int64), n),
                "entity_id": np.repeat(
                    df["entity_id"].astype(str).to_numpy(), n_salts
                ),
            }
        )

    def resolve_bucket(f: dict):
        rows, maps = f["rows"], f["maps"]
        if rows is None or maps is None:
            return None
        # (node, url) dedup is globally exact in-block: equal urls get
        # equal salts, so every copy of a (node, url) pair lands here
        sub = rows.drop_duplicates(["node_id", "url"])
        out = sub.merge(
            maps[["node_id", "entity_id"]].drop_duplicates("node_id"),
            on="node_id",
        )
        return out[["entity_id", "url", "salt"]]

    return cogroup(
        {
            "rows": mention_nodes_ds.map_batches(salted, batch_format="pandas"),
            "maps": node_map_ds.map_batches(replicated, batch_format="pandas"),
        },
        ["node_id", "salt"],
        resolve_bucket,
    )
