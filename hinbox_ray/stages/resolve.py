"""Entity resolution, part 1: mentions → raw entities → candidate edges.

Ray-native replacement for the reference's serial greedy merge
(/root/reference/src/engine/mergers.py:707-1258). Instead of one thread
mutating a global entity dict, resolution is expressed as shuffles:

1. **Raw-entity aggregation** — mentions are pre-aggregated per batch
   (combiner) and then ``groupby`` the exact entity key. Cardinality
   drops from O(corpus mentions) to O(distinct names) — the vocabulary —
   before anything expensive runs.
2. **Blocking-key explode** — each raw entity emits its blocking keys
   (exact / acronym bucket / equivalence group / MinHash-LSH bands, see
   functions.matching.blocking_keys); ``groupby(block_key)`` is the
   shuffle that replaces the reference's in-memory RapidFuzz index scan
   (mergers.py:319-415).
3. **Per-block pair scoring** — within a block, the shared deterministic
   ``mentions_match`` predicate emits candidate edges. Skew guard: a
   block larger than ``rep_cap`` compares all-pairs only among the top
   ``rep_cap`` members (by mention count, then node id — deterministic)
   and links tail members against the top ``tail_link`` representatives
   only, bounding per-block work at O(rep_cap² + n·tail_link) — the
   scale analog of the reference's 50-candidate cap (mergers.py:414-415)
   and the "salted repartition for hot keys" the north rule requires:
   connectivity for a hot name is preserved through its representatives
   without materializing O(n²) pairs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import DomainConfig
from ..functions.hashing import hash_str_u64
from ..functions.matching import blocking_keys
from ..functions.names import equivalence_group_index

_KEY_COLS = ["entity_type", "name", "attr_type", "start_date"]
ALIAS_SEP = "\x1f"  # aliases stored as one joined string: pyarrow hash
#  joins don't support list payload columns (Acero limitation)


def join_aliases(aliases) -> str:
    return ALIAS_SEP.join(aliases)


def split_aliases(s) -> list:
    return [a for a in str(s or "").split(ALIAS_SEP) if a]
_MASK63 = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def node_key_strings(df: pd.DataFrame) -> pd.Series:
    return (
        df["entity_type"]
        + "\x1f"
        + df["name"]
        + "\x1f"
        + df["attr_type"]
        + "\x1f"
        + df["start_date"]
    )


def add_node_id(df: pd.DataFrame) -> pd.DataFrame:
    """Deterministic 63-bit node id per entity key.

    Vectorized pandas siphash (fixed default key → stable across
    processes/nodes); node ids are internal to the resolution graph, so
    only cross-process determinism matters, not a specific function.
    The per-row blake2b loop this replaces cost ~2 µs/row — material on
    the corpus-scale mention path.
    """
    keys = node_key_strings(df)
    df = df.copy()
    df["node_id"] = (
        pd.util.hash_pandas_object(keys, index=False).to_numpy() & _MASK63
    ).astype(np.int64)
    return df


def _reduce_mention_group(df: pd.DataFrame) -> pd.DataFrame:
    """Combine mention rows that share an exact entity key into one raw
    entity row. Used both as the per-batch combiner and as the global
    per-group reducer (it is associative/idempotent on its outputs)."""
    # (url, doc_ord) = the reference's serial processing order: article
    # order, then extractor emission order within the article
    df = df.sort_values(["url", "doc_ord"], kind="mergesort")
    first = df.iloc[0]
    aliases: List[str] = []
    seen = set()
    for lst in df["aliases"]:
        for a in list(lst) if lst is not None else []:
            low = a.lower()
            if low not in seen:
                seen.add(low)
                aliases.append(a)
                if len(aliases) >= 32:  # alias cap: bounded row width
                    break

    def first_nonempty(col: str) -> str:
        vals = df[col][df[col] != ""]
        return str(vals.iloc[0]) if len(vals) else ""

    return pd.DataFrame(
        {
            "entity_type": [first["entity_type"]],
            "name": [first["name"]],
            "attr_type": [first["attr_type"]],
            "start_date": [first["start_date"]],
            "end_date": [first_nonempty("end_date")],
            "event_type": [first_nonempty("event_type")],
            "description": [first_nonempty("description")],
            "aliases": [join_aliases(aliases)],
            "n_mentions": [int(df["n_mentions"].sum())],
            "first_url": [str(first["url"])],
            "first_ord": [int(first["doc_ord"])],
            "first_ts": [df["warc_ts"].min()],
            "evidence": [str(first["evidence"])],
        }
    )


def _combine_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Per-batch partial aggregation (combiner) to shrink the shuffle.

    Vectorized: one sorted groupby-agg per batch instead of building a
    one-row DataFrame per key (the per-frame pandas overhead was ~40%
    of this stage's CPU at bench scale). Semantics identical to
    ``_reduce_mention_group`` applied per key.
    """
    if df.empty:
        return _reduce_mention_group(df) if len(df) else df
    df = df.sort_values(["url", "doc_ord"], kind="mergesort")

    firsts = df.drop_duplicates(_KEY_COLS, keep="first").set_index(_KEY_COLS)
    g = df.groupby(_KEY_COLS, sort=True)
    sums = g["n_mentions"].sum()
    min_ts = g["warc_ts"].min()

    def first_nonempty(col: str) -> pd.Series:
        # groupby.first() skips NaN → first non-"" value in sorted order
        s = df[col].where(df[col] != "")
        return (
            df.assign(_v=s).groupby(_KEY_COLS, sort=True)["_v"].first().fillna("")
        )

    # ordered alias union (cap 32): only rows with aliases participate
    alias_acc: dict = {}
    has_alias = df["aliases"].map(
        lambda lst: lst is not None and len(lst) > 0
    )
    if has_alias.any():
        sub = df[has_alias]
        for key, lst in zip(
            zip(*(sub[c] for c in _KEY_COLS)), sub["aliases"]
        ):
            seen_al, acc = alias_acc.setdefault(key, (set(), []))
            for a in lst:
                low = a.lower()
                if low not in seen_al and len(acc) < 32:
                    seen_al.add(low)
                    acc.append(a)

    idx = sums.index
    out = pd.DataFrame(
        {
            "entity_type": [k[0] for k in idx],
            "name": [k[1] for k in idx],
            "attr_type": [k[2] for k in idx],
            "start_date": [k[3] for k in idx],
            "end_date": first_nonempty("end_date").reindex(idx).to_numpy(),
            "event_type": first_nonempty("event_type").reindex(idx).to_numpy(),
            "description": first_nonempty("description").reindex(idx).to_numpy(),
            "aliases": [
                join_aliases(alias_acc.get(k, (None, []))[1]) for k in idx
            ],
            "n_mentions": sums.to_numpy().astype(np.int64),
            "first_url": firsts["url"].reindex(idx).astype(str).to_numpy(),
            "first_ord": firsts["doc_ord"].reindex(idx).to_numpy().astype(np.int64),
            "first_ts": min_ts.reindex(idx).to_numpy(),
            "evidence": firsts["evidence"].reindex(idx).astype(str).to_numpy(),
        }
    )
    return out.reset_index(drop=True)


# the ``_regroup`` output schema + node_id
RAW_ENTITIES_SCHEMA = pa.schema(
    [
        ("entity_type", pa.string()),
        ("name", pa.string()),
        ("attr_type", pa.string()),
        ("start_date", pa.string()),
        ("end_date", pa.string()),
        ("event_type", pa.string()),
        ("description", pa.string()),
        ("aliases", pa.string()),
        ("n_mentions", pa.int64()),
        ("first_url", pa.string()),
        ("first_ord", pa.int64()),
        ("first_ts", pa.timestamp("us")),
        ("evidence", pa.string()),
        ("node_id", pa.int64()),
    ]
)


def _regroup(df: pd.DataFrame) -> pd.DataFrame:
    """Global reducer over combined partials: same reduction, but sums
    n_mentions and unions aliases across partials."""
    df = df.sort_values(["first_url", "first_ord"], kind="mergesort")
    first = df.iloc[0]
    aliases: List[str] = []
    seen = set()
    for s_ in df["aliases"]:
        for a in split_aliases(s_):
            low = a.lower()
            if low not in seen:
                seen.add(low)
                aliases.append(a)
                if len(aliases) >= 32:
                    break

    def first_nonempty(col: str) -> str:
        vals = df[col][df[col] != ""]
        return str(vals.iloc[0]) if len(vals) else ""

    out = pd.DataFrame(
        {
            "entity_type": [first["entity_type"]],
            "name": [first["name"]],
            "attr_type": [first["attr_type"]],
            "start_date": [first["start_date"]],
            "end_date": [first_nonempty("end_date")],
            "event_type": [first_nonempty("event_type")],
            "description": [first_nonempty("description")],
            "aliases": [join_aliases(aliases)],
            "n_mentions": [int(df["n_mentions"].sum())],
            "first_url": [str(first["first_url"])],
            "first_ord": [int(first["first_ord"])],
            "first_ts": [df["first_ts"].min()],
            "evidence": [str(first["evidence"])],
        }
    )
    return add_node_id(out)


def raw_entities(mentions_ds):
    """mentions → one row per distinct entity key (vocabulary scale).

    Bucketed grouping: rows shuffle on a hash bucket of the key, and
    the per-key ``_regroup`` reduction runs by pandas inside each
    shuffle block — the key space is the vocabulary, and one Ray group
    per key would pay ~0.4 ms fixed cost each (see
    cogroup.bucketed_map_groups)."""
    from .cogroup import COALESCE_ROWS, bucketed_map_groups

    # combiner per COALESCE_ROWS rows, not per 4096-row slice: fewer
    # pandas frames (measured 3.2 s → 1.0 s at 2.5M mentions / 128
    # blocks) and fewer partial rows into the shuffle (one partial per
    # key per batch); small mention blocks are bundled into one task
    combined = mentions_ds.map_batches(
        _combine_batch, batch_format="pandas", batch_size=COALESCE_ROWS
    ).materialize()
    if combined.count() == 0:
        # zero-mention corpus — Ray may never invoke the reduce UDF on
        # an all-empty dataset, so emit the typed empty schema directly
        # (Arrow: Ray cannot size a zero-row pandas object column)
        import ray.data as rd

        return rd.from_arrow(RAW_ENTITIES_SCHEMA.empty_table())
    return bucketed_map_groups(combined, _KEY_COLS, _regroup)


# ──────────────────────────────────────────────
# Blocking explode + per-block pair scoring
# ──────────────────────────────────────────────


def _explode_blocking(df: pd.DataFrame, cfg: DomainConfig) -> pd.DataFrame:
    group_idx: Dict[str, Dict[str, int]] = {
        t: equivalence_group_index(cfg.groups_for(t))
        for t in ("people", "organizations", "locations", "events")
    }
    # per-row key computation is inherent (string normalization inside
    # blocking_keys); the fan-out itself is vectorized via np.repeat
    keys_per_row: List[List[str]] = []
    alias_joined: List[str] = []
    for row in df.itertuples(index=False):
        aliases = split_aliases(row.aliases)
        keys_per_row.append(
            list(
                blocking_keys(
                    row.entity_type,
                    row.name,
                    aliases,
                    cfg=cfg,
                    group_index=group_idx[row.entity_type],
                )
            )
        )
        alias_joined.append(join_aliases(aliases))
    counts = np.fromiter(
        map(len, keys_per_row), dtype=np.int64, count=len(keys_per_row)
    )
    if counts.sum() == 0:
        return pd.DataFrame(
            {
                "block_key": pd.Series([], dtype=object),
                "node_id": pd.Series([], dtype="int64"),
                "entity_type": pd.Series([], dtype=object),
                "name": pd.Series([], dtype=object),
                "attr_type": pd.Series([], dtype=object),
                "start_date": pd.Series([], dtype=object),
                "aliases": pd.Series([], dtype=object),
                "n_mentions": pd.Series([], dtype="int64"),
            }
        )
    rep = lambda col: np.repeat(df[col].to_numpy(), counts)  # noqa: E731
    return pd.DataFrame(
        {
            "block_key": np.concatenate(
                [np.asarray(k, dtype=object) for k in keys_per_row if k]
            ),
            "node_id": np.repeat(
                df["node_id"].to_numpy().astype(np.int64), counts
            ),
            "entity_type": rep("entity_type"),
            "name": rep("name"),
            "attr_type": rep("attr_type"),
            "start_date": rep("start_date"),
            "aliases": np.repeat(np.asarray(alias_joined, dtype=object), counts),
            "n_mentions": rep("n_mentions"),
        }
    )


PAIR_META_SCHEMA = pa.schema(
    [
        ("u", pa.int64()),
        ("v", pa.int64()),
        ("entity_type", pa.string()),
        ("name_u", pa.string()),
        ("name_v", pa.string()),
        ("start_date_u", pa.string()),
        ("start_date_v", pa.string()),
        ("aliases_u", pa.string()),
        ("aliases_v", pa.string()),
    ]
)


def _block_pair_rows(df: pd.DataFrame, cfg: DomainConfig) -> Optional[pd.DataFrame]:
    """One block → its candidate PAIR rows with the name metadata the
    verifier consumes. Skew guard unchanged from round 1: a block larger
    than ``rep_cap`` compares all-pairs only among the top ``rep_cap``
    members (by mention count, then node id — deterministic) and links
    tail members against the top ``tail_link`` representatives only,
    bounding per-block work at O(rep_cap² + n·tail_link). Pair fields
    are oriented by node id (u < v)."""
    df = df.drop_duplicates("node_id")
    if len(df) < 2:
        return None

    rep_cap = max(2, cfg.blocking.max_candidates)
    tail_link = 8
    df = df.sort_values(["n_mentions", "node_id"], ascending=[False, True])
    rows = list(df.itertuples(index=False))
    reps = rows[:rep_cap]
    tail = rows[rep_cap:]

    out: Dict[str, List] = {c: [] for c in PAIR_META_SCHEMA.names}

    def emit(a, b):
        if a.node_id > b.node_id:
            a, b = b, a
        out["u"].append(int(a.node_id))
        out["v"].append(int(b.node_id))
        out["entity_type"].append(a.entity_type)
        out["name_u"].append(a.name)
        out["name_v"].append(b.name)
        out["start_date_u"].append(a.start_date)
        out["start_date_v"].append(b.start_date)
        out["aliases_u"].append(a.aliases)
        out["aliases_v"].append(b.aliases)

    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            emit(reps[i], reps[j])
    for t in tail:  # skew guard: tail links only to top representatives
        for r in reps[:tail_link]:
            emit(t, r)

    if not out["u"]:
        return None
    res = pd.DataFrame(out)
    res["u"] = res["u"].astype(np.int64)
    res["v"] = res["v"].astype(np.int64)
    return res


def _shuffle_block_pair_rows(
    df: pd.DataFrame, cfg: DomainConfig
) -> "pd.DataFrame | pa.Table":
    """Pair rows of every blocking key in one shuffle block. Most keys
    hold one node and emit nothing (295 of 336 on the kgbench
    kg_planted corpus), so they are dropped in one vectorized pass
    before the per-key ``_block_pair_rows`` loop. A block without pairs
    is a typed Arrow empty: Ray cannot size a zero-row pandas object
    column and logs an error for each."""
    df = df[df.groupby("block_key")["node_id"].transform("nunique") >= 2]
    rows = [_block_pair_rows(g, cfg) for _, g in df.groupby("block_key", sort=True)]
    rows = [r for r in rows if r is not None]
    if not rows:
        return PAIR_META_SCHEMA.empty_table()
    return pd.concat(rows, ignore_index=True)


def candidate_pairs(raw_entities_ds, cfg: Optional[DomainConfig] = None):
    """raw entities → deduped candidate pair rows WITH metadata (the
    verifier's input). SHUFFLE #1: bucketed on block_key; SHUFFLE #2
    (small): pair dedup — a pair can surface from several blocks."""
    from .cogroup import bucket_exchange, bucketed_drop_duplicates

    cfg = cfg or DomainConfig()
    exploded = raw_entities_ds.map_batches(
        lambda df: _explode_blocking(df, cfg), batch_format="pandas"
    )
    pairs = bucket_exchange(
        exploded, "block_key", lambda df: _shuffle_block_pair_rows(df, cfg)
    )
    # a pair can surface from several blocks → distributed exact dedup
    return bucketed_drop_duplicates(pairs, ["u", "v"])


def candidate_edges_with_verdicts(
    raw_entities_ds,
    cfg: Optional[DomainConfig] = None,
    *,
    verifier_cls=None,
    defer_policy: str = "skip",
):
    """raw entities → (VERDICT-GATED candidate-match edges, verdicts).

    Round-2 semantics (reference mergers.py:907-942 + the dispute
    override pinned by its tests/test_merge_dispute_agent_routing.py):
    blocking only PROPOSES pairs; the pair verdict DECIDES the merge.
    ``PairVerifier`` (stages/verify.py) returns MATCH / SKIP / DEFER per
    pair; MATCH pairs become edges, SKIP pairs never merge, DEFER
    follows ``defer_policy`` ("skip" → no merge, the rows are the
    review-queue side output; "merge" → dispute resolved as merge).
    Swapping ``verifier_cls`` for an LLM-backed checker changes the
    merge topology with no other code change. ``verdicts`` is the
    materialized per-pair verdict Dataset (vocabulary-scale), reusable
    for MergeStats + review queue without re-running
    blocking/verification."""
    import pyarrow as _pa

    from .verify import DEFER, MATCH, verify_pairs

    cfg = cfg or DomainConfig()
    pairs = candidate_pairs(raw_entities_ds, cfg)
    verdicts = verify_pairs(
        pairs, cfg, verifier_cls=verifier_cls
    ).materialize()

    accepted = {MATCH} | ({DEFER} if defer_policy == "merge" else set())

    def keep(batch: _pa.Table) -> _pa.Table:
        import pyarrow.compute as _pc

        mask = _pc.is_in(batch["verdict"], value_set=_pa.array(sorted(accepted)))
        return batch.filter(mask).select(["u", "v"])

    return verdicts.map_batches(keep, batch_format="pyarrow"), verdicts
