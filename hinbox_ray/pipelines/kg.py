"""End-to-end knowledge-graph construction pipeline (the flagship).

Stage graph (SURVEY.md §7.1), all Ray Data:

    pages (url, warc_ts, html, text, lang)
      → map_batches(extract_text)          stateless tasks
      → vectorized lang/nonempty filter    stateless tasks
      → map_batches(MentionExtractor, concurrency=N)   actor pool
      → raw-entity aggregation             combiner + bucketed grouping
      → blocking-key explode → bucketed pair scoring   SHUFFLE
      → connected components               log-n grouping rounds
      → per-component canonical election   bucketed grouping
      → triples: entity triples ∪ mentioned_in (broadcast node map)
      → range exchange on exact subject ranges         final SHUFFLE
        (cut points from the entity table, no sampling pass) →
        per-block adjacent distinct → one file per range

Everything else streams. The materialized intermediates are the
mention boundary (read by two consumers) and the vocabulary-scale
resolution tables (raw entities, verdicts, canonical entities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DomainConfig
from ..stages.canonical import (
    TRIPLES_SCHEMA,
    canonical_entities,
    entity_triples,
    mention_triples,
    node_map,
)
from ..stages.cc import connected_components
from ..stages.cogroup import COALESCE_ROWS
from ..stages.extract import extract_and_filter
from ..stages.mentions import extract_mentions
from ..stages.resolve import candidate_edges_with_verdicts, raw_entities
from ..stages.verify import compute_merge_stats


@dataclass
class KGResult:
    triples: "object"   # ray.data.Dataset[(subj, pred, obj)]
    entities: "object"  # canonical entity table
    mentions: "object"  # per-(doc, entity) mention rows
    verdicts: "object" = None   # per-pair MATCH/SKIP/DEFER rows (A4/A5)
    merge_stats: "object" = None  # MergeStats counters (G1–G3)
    profiles: "object" = None   # versioned profiles (A6), when requested


def build_kg(
    pages_ds,
    cfg: Optional[DomainConfig] = None,
    *,
    concurrency=None,  # None → extract_mentions sizes the pool
    batch_size: int = 128,
    sort_triples: bool = True,
    verifier_cls=None,        # swap the merge-decision model (A4/A5)
    defer_policy: str = "skip",
    relevance_scorer=None,    # F3: plug a domain-relevance scorer
    use_relevance_gate: bool = False,
    extractor_cls=None,       # A1: swap the extraction model class
    extractor_kwargs=None,
    checkpoint_mentions: Optional[bool] = None,  # parquet the boundary
    checkpoint_dir: Optional[str] = None,
) -> KGResult:
    cfg = cfg or DomainConfig()

    fused = not (use_relevance_gate or relevance_scorer is not None)
    if fused:
        # html→text is fused INTO the extraction actors (the extractor
        # detects the html column): one pool does both kernels, so the
        # CPU split between a task stage and an actor pool can't starve
        # either side. The read is the only upstream work.
        docs = pages_ds
    else:
        # F3 gate ahead of extraction needs the text column, so the
        # stages stay separate. Off by default in the flagship: the
        # deterministic scorer uses the extractor's own lexicon, so it
        # cannot change the graph — turn it on to prune extractor work
        # on sparse corpora or to plug an LLM scorer.
        from ..stages.relevance import relevance_gate

        docs = relevance_gate(
            extract_and_filter(pages_ds), cfg, scorer_fn=relevance_scorer
        )
    # Materialize at the mention boundary: `mentions` feeds BOTH the
    # raw-entity aggregation and the mentioned_in triple join; without a
    # checkpoint each consumer would re-execute the whole extraction
    # (Ray Data executes per-consumer, it does not cache shared
    # subplans). Mentions are ~an order of magnitude smaller than pages
    # and spill to the object store; the resumable production path
    # checkpoints this same boundary to Parquet (state/lineage.py).
    # No repartition before the materialize: Ray's dynamic block
    # building already emits ~target-size blocks from the actor stage
    # (measured 192 blocks for 25M mention rows), and the repartition
    # round-trip cost ~10 s at 10M pages for no downstream gain. The
    # two consumers coalesce their own input to COALESCE_ROWS.
    extracted = extract_mentions(
        docs,
        cfg,
        concurrency=concurrency,
        batch_size=batch_size,
        extractor_cls=extractor_cls,
        extractor_kwargs=extractor_kwargs,
    )
    if checkpoint_mentions is None:
        import os as _os

        checkpoint_mentions = _os.environ.get("GRAFT_KG_CHECKPOINT", "") == "1"
    if checkpoint_mentions:
        # Parquet checkpoint instead of plasma materialize (round-4
        # VERDICT #4): at 20M+ pages the 50M-row mention table pinned in
        # the object store forces spill and drags the 8v32 scaling
        # efficiency under the bar. zstd parquet compresses the string
        # columns ~8× vs Arrow plasma blocks, the boundary becomes
        # restart-resumable for free, and both downstream consumers
        # re-read it with column pruning (mention_triples never pays for
        # evidence/description bytes). This is also the production
        # resume boundary (state/lineage.py checkpoints the same stage).
        import os as _os
        import shutil as _shutil
        import tempfile as _tempfile

        base = checkpoint_dir or _tempfile.mkdtemp(prefix="kg_mentions_")
        out = _os.path.join(base, "mentions")
        _shutil.rmtree(out, ignore_errors=True)
        extracted.write_parquet(out, compression="zstd")
        from ..sources.reader import read_parquet_clean

        mentions = read_parquet_clean(out)
    else:
        mentions = extracted.materialize()

    # Everything below is vocabulary-scale (distinct names), not corpus
    # scale — materializing is cheap and avoids re-running the shuffles.
    raw = raw_entities(mentions).materialize()
    n_raw = raw.count()
    if n_raw > 0:
        # The vocabulary inherits the corpus' block count (100+
        # near-empty blocks), and every downstream groupby barrier pays
        # per-block scheduling — measured 8.1 s → 4.9 s across the
        # resolution phase at bench scale after coalescing. Size-gated
        # to ~64k-row blocks so a web-scale vocabulary (millions of
        # names) keeps its parallelism.
        target_blocks = max(2, min(n_raw // 65536 + 1, raw.num_blocks()))
        if target_blocks < raw.num_blocks() // 2:
            raw = raw.repartition(target_blocks).materialize()
    if n_raw == 0:
        # empty corpus: blocks would carry no schema and the hash join
        # would fail — return well-typed empty outputs instead
        import ray.data as rd

        empty = rd.from_arrow(TRIPLES_SCHEMA.empty_table())
        return KGResult(triples=empty, entities=raw, mentions=mentions)
    edges, verdicts = candidate_edges_with_verdicts(
        raw, cfg, verifier_cls=verifier_cls, defer_policy=defer_policy
    )
    comps = connected_components(edges)
    entities = canonical_entities(raw, comps).materialize()
    merge_stats = compute_merge_stats(verdicts, entities.count())

    nmap = node_map(entities)
    # when a sort follows, mentioned_in distinctness is finished by
    # the per-range distinct after it, so the salted dedup shuffle is
    # skipped: one exchange over the triple stream instead of two
    triples = entity_triples(entities).union(
        mention_triples(
            mentions,
            nmap,
            dedup="local" if sort_triples else "global",
        )
    )
    if sort_triples == "sharded":
        triples = sharded_sorted_triples(triples)
    elif sort_triples:
        triples = range_sorted_triples(triples, entities)
    return KGResult(
        triples=triples,
        entities=entities,
        mentions=mentions,
        verdicts=verdicts,
        merge_stats=merge_stats,
    )


# triples an entity emits besides its mentioned_in rows (rdf:type,
# name, aliases, attributes); it only moves range balance
_ENTITY_TRIPLE_WEIGHT = 8


def subject_cuts(entities_ds) -> np.ndarray:
    """Cut points of ``range_sorted_triples``, computed on the driver
    from the materialized entity table (no sampling pass): the sorted
    entity ids where the cumulative triple weight ``n_mentions +
    _ENTITY_TRIPLE_WEIGHT`` crosses a multiple of ``COALESCE_ROWS``.
    Range ``r`` is ``[cuts[r-1], cuts[r])``; every range holds a
    subject. Two or more subjects make two or more ranges (a middle
    cut below ``COALESCE_ROWS``): Ray's sort needs a boundary, and an
    output range with no rows would be a block with no columns."""
    w = (
        entities_ds.select_columns(["entity_id", "n_mentions"])
        .to_pandas()
        .groupby("entity_id", sort=True)["n_mentions"]
        .sum()
    )
    weight = w.to_numpy(np.int64) + _ENTITY_TRIPLE_WEIGHT
    before = np.cumsum(weight) - weight
    first = np.flatnonzero(np.diff(before // COALESCE_ROWS)) + 1
    if not len(first) and len(w) > 1:
        first = np.array([len(w) // 2])
    return w.index.to_numpy(object)[first]


def range_sorted_triples(triples_ds, entities_ds):
    """Sorted, distinct ``(subj, pred, obj)`` in one range exchange:
    tag each triple with its subject's range in a map coalesced to
    ``COALESCE_ROWS`` rows, sort on ``(_range, subj, pred, obj)`` with
    the range ids as boundaries (one output block per range, in key
    order), then an adjacent distinct per block. A subject lies in one
    range, so distinctness and file order are exact by construction;
    the cut points only move balance. The boundaries are never an
    empty list, which would make Ray sample them: ``1..k-1`` for ``k``
    ranges, ``[1]`` when one subject leaves a second block empty."""
    cuts = subject_cuts(entities_ds)

    def tag(batch: pa.Table) -> pa.Table:
        subj = batch["subj"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_range": np.searchsorted(cuts, subj, side="right").astype(
                    np.int64
                ),
                "subj": batch["subj"],
                "pred": batch["pred"],
                "obj": batch["obj"],
            }
        )

    return (
        triples_ds.map_batches(
            tag, batch_format="pyarrow", batch_size=COALESCE_ROWS
        )
        .sort(
            ["_range", "subj", "pred", "obj"],
            boundaries=list(range(1, max(2, len(cuts) + 1))),
        )
        .map_batches(
            _distinct_range_block, batch_format="pyarrow", batch_size=None
        )
    )


def _distinct_range_block(batch):
    """One range block → its distinct triples without ``_range``."""
    return _distinct_sorted_block(batch.drop_columns(["_range"]))


def _distinct_sorted_block(batch):
    """Adjacent-distinct over one block sorted on (subj, pred, obj)
    (a vectorized Arrow compare of each row against its predecessor).
    Exact over the whole dataset because the exchange before it keeps
    every subject in one block (a range in ``range_sorted_triples``, a
    hash shard in ``sharded_sorted_triples``)."""
    n = batch.num_rows
    if n <= 1:
        return batch
    same = None
    for c in ("subj", "pred", "obj"):
        col = batch[c].combine_chunks()
        eq = pc.equal(col.slice(1), col.slice(0, n - 1))
        same = eq if same is None else pc.and_(same, eq)
    keep = np.ones(n, dtype=bool)
    keep[1:] = ~same.to_numpy(zero_copy_only=False)
    return batch.filter(pa.array(keep))


def sharded_sorted_triples(triples_ds, num_shards: int = 64):
    """Hash-bucketed, per-shard-sorted triples — the scale path for the
    final sort (round-1 VERDICT #8: at 10M pages the global sample-sort
    barrier pressures the object store and scaling efficiency drops
    0.80 → 0.65).

    Plan: shard = hash(subj) % num_shards (int64), one keyed exchange
    on the INT shard (cheap comparisons, no string sample-sort), then
    each shuffle block sorts ONLY its own rows by (shard, subj, pred,
    obj) with the Arrow sort kernel. Every shard lies whole in one
    block and all triples of one subject co-locate in one shard, so
    shards are independently consumable range files — exactly the
    "range-partitioned sorted shards" layout write_kg emits one file
    per block. Output keeps the ``shard`` column so a consumer can
    prune.

    Measured note (10M pages, 32 cpus, single node): Ray's global Arrow
    sample-sort, which ``range_sorted_triples`` replaced, finished the
    same 25M triples in ~25 s — on ONE node it beat this path, so the
    flagship default is ``sort_triples=True`` and this layout is for
    multi-node runs and for resumable partitioned output. Whether the
    range exchange makes it redundant there is unmeasured.
    """
    import pandas as pd

    from ..stages.cogroup import bucket_exchange

    def add_shard(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.copy()
        df["shard"] = (
            pd.util.hash_pandas_object(df["subj"], index=False).to_numpy()
            % num_shards
        ).astype(np.int64)
        return df

    def sort_shards(g: "pd.DataFrame") -> pa.Table:
        # sorted + adjacent-distinct: the block holds ALL rows of each
        # of its shards (hash partition), so the distinct is exact
        return _distinct_sorted_block(
            pa.Table.from_pandas(g, preserve_index=False).sort_by(
                [
                    ("shard", "ascending"),
                    ("subj", "ascending"),
                    ("pred", "ascending"),
                    ("obj", "ascending"),
                ]
            )
        )

    return bucket_exchange(
        triples_ds.map_batches(add_shard, batch_format="pandas"),
        "shard",
        sort_shards,
    )


def build_kg_from_sf(
    sf_dir: str, cfg: Optional[DomainConfig] = None, *, repeat: int = 1, **kwargs
) -> KGResult:
    from ..sources.pages import pages_dataset

    return build_kg(pages_dataset(sf_dir, repeat=repeat), cfg, **kwargs)


def write_kg(result: KGResult, out_dir: str) -> dict:
    """Materialize the graph as partitioned Parquet.

    ``triples/`` and ``entities/`` each get one file per block (never
    one giant file), so a consumer can list/read shards independently
    and a re-run with the same out_dir replaces shards atomically at
    the filesystem level. Corpus-scale resume lives one stage earlier
    (state/lineage.py checkpoints mentions per input partition);
    everything from mentions to triples is vocabulary-scale and cheap
    to recompute.
    """
    import os

    tri_dir = os.path.join(out_dir, "triples")
    ent_dir = os.path.join(out_dir, "entities")
    result.triples.write_parquet(tri_dir)
    result.entities.drop_columns(["member_nodes"]).write_parquet(ent_dir)
    if result.merge_stats is not None:
        import json

        with open(os.path.join(out_dir, "merge_stats.json"), "w") as f:
            json.dump(result.merge_stats.to_dict(), f, sort_keys=True)
    return {"triples_dir": tri_dir, "entities_dir": ent_dir}
