"""End-to-end knowledge-graph construction pipeline (the flagship).

Stage graph (SURVEY.md §7.1), all Ray Data:

    pages (url, warc_ts, html, text, lang)
      → map_batches(MentionExtractor, concurrency=N)   actor pool
        (html→text fused into the extraction actors)
      → mention boundary: materialize, or a zstd Parquet checkpoint
    resolve_mentions (shared with state/lineage.resolve_from_checkpoint):
      → raw-entity aggregation             combiner + bucketed grouping
      → blocking-key explode → bucketed pair scoring   SHUFFLE
      → connected components               log-n grouping rounds
      → per-component canonical election   bucketed grouping
      → triples: entity triples ∪ mentioned_in (broadcast node map)
      → range exchange on exact subject ranges         final SHUFFLE
        (cut points from the entity table, no sampling pass) →
        per-block adjacent distinct
    write_kg (both entry points): one sorted file per range under
      triples/, entities/, merge_stats.json — each renamed into place

Everything else streams. The materialized intermediates are the
mention boundary (read by two consumers) and the vocabulary-scale
resolution tables (raw entities, verdicts, canonical entities).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import DomainConfig
from ..stages.canonical import (
    ENTITIES_SCHEMA,
    TRIPLES_SCHEMA,
    canonical_entities,
    entity_triples,
    mention_triples,
    node_map,
)
from ..stages.cc import connected_components
from ..stages.cogroup import COALESCE_ROWS
from ..stages.mentions import extract_mentions
from ..stages.resolve import candidate_edges_with_verdicts, raw_entities
from ..stages.verify import MergeStats, compute_merge_stats


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
    verifier_cls=None,        # swap the merge-decision model (A4/A5)
    defer_policy: str = "skip",
    extractor_cls=None,       # A1: swap the extraction model class
    extractor_kwargs=None,
    checkpoint_mentions: bool = False,  # parquet the boundary
    checkpoint_dir: Optional[str] = None,
) -> KGResult:
    """Pages → knowledge graph: extraction, the mention boundary, then
    ``resolve_mentions``. html→text is fused into the extraction actors
    (the extractor detects the html column), so one pool does both
    kernels and the read is the only upstream work."""
    cfg = cfg or DomainConfig()
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
        pages_ds,
        cfg,
        concurrency=concurrency,
        batch_size=batch_size,
        extractor_cls=extractor_cls,
        extractor_kwargs=extractor_kwargs,
    )
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
        import tempfile

        from ..sources.reader import read_parquet_clean

        base = checkpoint_dir or tempfile.mkdtemp(prefix="kg_mentions_")
        out = os.path.join(base, "mentions")
        shutil.rmtree(out, ignore_errors=True)
        extracted.write_parquet(out, compression="zstd")
        mentions = read_parquet_clean(out)
    else:
        mentions = extracted.materialize()
    return resolve_mentions(
        mentions, cfg, verifier_cls=verifier_cls, defer_policy=defer_policy
    )


def resolve_mentions(
    mentions,
    cfg: Optional[DomainConfig] = None,
    *,
    verifier_cls=None,
    defer_policy: str = "skip",
) -> KGResult:
    """Mentions → graph: the resolution tail of both ``build_kg`` and
    the resume path (``state/lineage.resolve_from_checkpoint``).

    Raw entities → verdict-gated candidate edges → connected components
    → canonical entities (+ merge stats) → entity triples ∪ mentioned_in
    triples → ``range_sorted_triples``. Every intermediate from the raw
    entities on is vocabulary-scale (distinct names), so materializing
    them is cheap and avoids re-running their shuffles. The stages are called through
    this module's globals, where per-layer tracing wraps them.

    A corpus with no mentions returns well-typed empty triples and
    entities and zero merge stats: its blocks would carry no schema
    downstream."""
    cfg = cfg or DomainConfig()
    raw = raw_entities(mentions).materialize()
    if raw.count() == 0:
        import ray.data as rd

        return KGResult(
            triples=rd.from_arrow(TRIPLES_SCHEMA.empty_table()),
            entities=rd.from_arrow(ENTITIES_SCHEMA.empty_table()),
            mentions=mentions,
            merge_stats=MergeStats(),
        )
    edges, verdicts = candidate_edges_with_verdicts(
        raw, cfg, verifier_cls=verifier_cls, defer_policy=defer_policy
    )
    comps = connected_components(edges)
    entities = canonical_entities(raw, comps).materialize()
    merge_stats = compute_merge_stats(verdicts, entities.count())

    triples = entity_triples(entities).union(
        mention_triples(mentions, node_map(entities))
    )
    return KGResult(
        triples=range_sorted_triples(triples, entities),
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
    the cut points only move balance.

    The boundaries are never an empty list, which would make Ray sample
    them: ``1..k-1`` for ``k`` ranges, ``[1]`` for a single subject.
    Ray emits an output range with no rows as a block with no columns
    and passes it through maps without calling them, so a single
    subject's empty second range gets one null-subject row, which the
    distinct drops: every block keeps the triple schema."""
    import ray.data as rd

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

    tagged = triples_ds.map_batches(
        tag, batch_format="pyarrow", batch_size=COALESCE_ROWS
    )
    if not len(cuts):
        pad = {c: pa.nulls(1, pa.string()) for c in ("subj", "pred", "obj")}
        pad = pa.table({"_range": pa.array([1], pa.int64()), **pad})
        tagged = tagged.union(rd.from_arrow(pad))
    return tagged.sort(
        ["_range", "subj", "pred", "obj"],
        boundaries=list(range(1, max(2, len(cuts) + 1))),
    ).map_batches(_distinct_range_block, batch_format="pyarrow", batch_size=None)


def _distinct_range_block(batch: pa.Table) -> pa.Table:
    """One range block → its distinct triples, without ``_range`` or
    the padding row: a vectorized Arrow compare of each row against its
    predecessor. Exact over the whole dataset because every subject's
    triples sit sorted in one range block."""
    if batch["subj"].null_count:
        batch = batch.filter(pc.is_valid(batch["subj"]))
    batch = batch.drop_columns(["_range"])
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


def build_kg_from_sf(
    sf_dir: str, cfg: Optional[DomainConfig] = None, *, repeat: int = 1, **kwargs
) -> KGResult:
    from ..sources.pages import pages_dataset

    return build_kg(pages_dataset(sf_dir, repeat=repeat), cfg, **kwargs)


def write_kg(result: KGResult, out_dir: str) -> dict:
    """Write the graph under ``out_dir``: ``triples/`` (one sorted,
    distinct file per subject range, file-name order equal to key
    order), ``entities/`` and ``merge_stats.json``. Both entry points
    write through here (``build_kg`` and
    ``state/lineage.resolve_from_checkpoint``).

    Each directory is written to ``<name>.tmp`` and renamed into place,
    and the stats file likewise, so a crash never leaves a half-written
    output and a re-run replaces the old one. A table with no rows gets
    one empty file of its schema (Ray writes no directory for it), so
    both directories always read back typed. ``merge_stats.json`` holds
    the G3 reflection counters too when ``result.profiles`` is set.

    Returns both directories and ``n_triples``, read from the written
    files' Parquet footers: counting the lazy ``result.triples`` would
    run the triple exchange again."""
    from ..state.lineage import atomic_write_json

    tri_dir = _write_dir(
        result.triples,
        os.path.join(out_dir, "triples"),
        TRIPLES_SCHEMA.empty_table(),
    )
    ent_dir = _write_dir(
        result.entities.drop_columns(["member_nodes"]),
        os.path.join(out_dir, "entities"),
        ENTITIES_SCHEMA.empty_table().drop_columns(["member_nodes"]),
    )
    stats = result.merge_stats.to_dict()
    if result.profiles is not None:
        from ..stages.profiles import reflection_stats

        stats.update(reflection_stats(result.profiles))
    atomic_write_json(os.path.join(out_dir, "merge_stats.json"), stats)
    n_triples = sum(
        pq.read_metadata(os.path.join(tri_dir, f)).num_rows
        for f in os.listdir(tri_dir)
    )
    return {"triples_dir": tri_dir, "entities_dir": ent_dir, "n_triples": n_triples}


def _write_dir(ds, path: str, empty: pa.Table) -> str:
    """``ds`` as Parquet files under ``path``, renamed into place from
    ``path.tmp``; ``empty`` is the file left when ``ds`` has no rows."""
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    if not os.path.isdir(tmp):
        os.makedirs(tmp)
        pq.write_table(empty, os.path.join(tmp, "empty.parquet"))
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path
