"""Versioned entity profiles (reference A6).

The reference's primary per-entity output is a versioned, cited profile:
``ProfileVersion`` / ``VersionedProfile`` containers
(/root/reference/src/engine/profiles.py:39-102), created on first sight
(create_profile :443-490) and updated once per new linked article
(update_profile :409-441), each update appending an immutable deep-copy
snapshot with ``trigger_article_id`` recorded and ``current_version``
advancing monotonically. Generation itself is an LLM reflection loop
(:106-212); here it is a deterministic kernel with the same contract —
swapping ``profile_kernel`` for a model-backed one changes no plumbing.

Deterministic profile text: each cited claim is the entity's own name
(guaranteed present in the cited article — mentions come from the text
scan), so the grounding stage (stages/grounding.py) can verify every
citation without a model:

    "{name} ^[{url1}] {name} ^[{url2}] — {kind} profile."

Ray plan (everything vocabulary-scale after the first combiner):

1. mentions → (node_id, url, warc_ts) with a PER-BATCH top-K combiner
   per node (articles arrive url-sorted; K = max_versions) so the
   shuffle carries ≤ blocks × K rows per entity, not the full hot-key
   article list;
2. broadcast node→entity map (as in canonical.mention_triples);
3. groupby(entity_id) → global first-K article list (warc_ts, url
   order — the reference processes articles in input order);
4. co-group with the canonical entity table → one profile row per
   entity with the full version history as JSON.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import sha256_hex

ALIAS_SEP = "\x1f"

_KIND_LABEL = {
    "people": "person",
    "organizations": "organization",
    "locations": "location",
    "events": "event",
}


def profile_kernel(
    name: str, entity_type: str, attr_type: str, urls: List[str], repair=None
) -> Dict:
    """Deterministic stand-in for the reference's LLM profile generation
    (profiles.py:106-212): profile dict for ``name`` given its first
    ``len(urls)`` source articles. Same output contract as
    ``EntityProfile`` (text/tags/confidence/sources).

    ``repair`` is the previous round's ``ReflectionResult`` when the
    reflection loop (stages/reflection.py) regenerates after a failed
    validation — the reference appends the critique to the generation
    messages (llm.py:720-726). The deterministic kernel is
    repair-invariant (its output always satisfies the default
    reflector); a model-backed ``profile_fn`` uses it."""
    kind = _KIND_LABEL.get(entity_type, entity_type)
    cited = " ".join(f"{name} ^[{u}]" for u in urls)
    text = f"{cited} — {kind} profile." if cited else f"{name} — {kind} profile."
    tags = [entity_type] + ([attr_type] if attr_type else [])
    # confidence grows with corroborating sources, capped (deterministic
    # analog of the model's self-reported confidence)
    confidence = min(0.95, 0.5 + 0.05 * len(urls))
    return {
        "text": text,
        "tags": tags,
        "confidence": round(confidence, 2),
        "sources": list(urls),
    }


def build_versions(
    name: str,
    entity_type: str,
    attr_type: str,
    urls: List[str],
    *,
    profile_fn=None,
    reflector=None,
    max_iterations: int = 3,
) -> Dict:
    """Replay of the reference's create→update ladder: version 1 from
    the first article, then one immutable snapshot per further article
    (VersionedProfile.add_version semantics — version_number =
    len(versions)+1, trigger recorded, current_version advances).

    Each version is generated through the reflection loop
    (stages/reflection.py ``iterative_improve``, reference
    llm.py:654-754 / profiles.py:106-212): generate → validate with
    ``reflector`` → regenerate with the critique, ≤ ``max_iterations``
    rounds. With the deterministic kernel + default reflector every
    version validates first try, so the ladder is byte-identical to the
    loop-free one; the per-entity attempt total is surfaced as the
    ``reflection`` summary (reference ``reflection_summary`` in
    processing metadata, process_and_extract.py:343-362)."""
    from .reflection import default_profile_reflector, iterative_improve

    gen = profile_fn or profile_kernel
    reflect = reflector or default_profile_reflector
    versions = []
    total_attempts = 0
    all_valid = True
    for k in range(1, len(urls) + 1):
        prefix = urls[:k]
        imp = iterative_improve(
            gen(name, entity_type, attr_type, prefix),
            lambda cur, r, p=prefix: gen(
                name, entity_type, attr_type, p, repair=r
            ),
            reflect,
            max_iterations=max_iterations,
        )
        total_attempts += imp["attempts"]
        all_valid = all_valid and imp["final_valid"]
        versions.append(
            {
                "version_number": k,
                "profile": imp["result"],
                "trigger_article_id": urls[k - 1],
            }
        )
    return {
        "current_version": len(versions),
        "versions": versions,
        "reflection": {
            "total_attempts": total_attempts,
            "final_valid": all_valid,
        },
    }


def _article_lists(mentions_ds, node_map_df: pd.DataFrame, max_versions: int):
    """mentions → (entity_id, urls list ordered by (warc_ts, url), first
    ``max_versions`` only). Per-batch combiner bounds the shuffle."""
    lookup = dict(
        zip(node_map_df["node_id"].astype(np.int64), node_map_df["entity_id"])
    )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        from .resolve import add_node_id

        df = add_node_id(df)
        df = df.drop_duplicates(["node_id", "url"])
        eids = df["node_id"].map(lookup)
        keep = eids.notna()
        out = pd.DataFrame(
            {
                "entity_id": eids[keep].astype(str).to_numpy(),
                "url": df["url"][keep].astype(str).to_numpy(),
                "warc_ts": df["warc_ts"][keep].to_numpy(),
            }
        )
        # per-batch top-K per entity: the combiner that keeps hot-entity
        # article lists from flooding the shuffle. Dedup (entity, url)
        # FIRST — two nodes of one entity co-mentioned in the same docs
        # (e.g. transliteration variants) otherwise burn the top-K
        # budget on duplicate urls and push real articles out (caught
        # by the round-5 kg_profiles_planted value-hash oracle).
        out = out.sort_values(["entity_id", "warc_ts", "url"], kind="mergesort")
        out = out.drop_duplicates(["entity_id", "url"])
        return out.groupby("entity_id", sort=False).head(max_versions)

    def reduce_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("url").sort_values(
            ["warc_ts", "url"], kind="mergesort"
        ).head(max_versions)
        return pd.DataFrame(
            {
                "entity_id": [str(g["entity_id"].iloc[0])],
                "urls": [ALIAS_SEP.join(g["url"].tolist())],
            }
        )

    from .cogroup import bucketed_map_groups

    combined = mentions_ds.map_batches(combine, batch_format="pandas")
    # entity ids are vocabulary-scale: bucketed grouping (see
    # cogroup.bucketed_map_groups), per-entity reduce inside the bucket
    return bucketed_map_groups(combined, "entity_id", reduce_group)


def entity_profiles(
    entities_ds,
    mentions_ds,
    *,
    max_versions: int = 8,
    profile_fn=None,
    reflector=None,
    max_iterations: int = 3,
):
    """Canonical entities + mentions → one versioned-profile row per
    entity (SHUFFLE: article-list groupby + the entity co-group).

    Output: entity_id, entity_type, name, profile_text, confidence_e2,
    n_sources, current_version, sources (\\x1f-joined), profile_hash,
    versions_json (full immutable history), reflection_attempts (G3
    counter: total reflection-loop attempts across the entity's
    versions — 1 per version when generation validates first try).

    ``profile_fn`` / ``reflector`` / ``max_iterations`` plug the
    reflection loop (stages/reflection.py); defaults are the
    deterministic kernel + contract validator.
    """
    from .canonical import node_map

    nmap_df = node_map(entities_ds).to_pandas()  # vocabulary-scale
    articles = _article_lists(mentions_ds, nmap_df, max_versions)

    # co-group entities ⟕ article lists on entity_id (both vocab-scale);
    # stages/cogroup.py gives the measured Dataset.join latency
    def build(f: dict) -> pd.DataFrame:
        ents, arts = f["ents"], f["arts"]
        if ents is None:
            return pd.DataFrame(
                {
                    "entity_id": pd.Series(dtype=object),
                    "entity_type": pd.Series(dtype=object),
                    "name": pd.Series(dtype=object),
                    "profile_text": pd.Series(dtype=object),
                    "confidence_e2": pd.Series(dtype=np.int64),
                    "n_sources": pd.Series(dtype=np.int64),
                    "current_version": pd.Series(dtype=np.int64),
                    "sources": pd.Series(dtype=object),
                    "profile_hash": pd.Series(dtype=object),
                    "versions_json": pd.Series(dtype=object),
                    "reflection_attempts": pd.Series(dtype=np.int64),
                }
            )
        urls_of = (
            {}
            if arts is None
            else arts.drop_duplicates("entity_id").set_index("entity_id")["urls"]
        )
        rows = []
        ents = ents.drop_duplicates("entity_id").sort_values("entity_id")
        for e in ents.astype(str).itertuples(index=False):
            eid, etype, name, attr = e.entity_id, e.entity_type, e.name, e.attr_type
            urls = [u for u in str(urls_of.get(eid, "")).split(ALIAS_SEP) if u]
            vp = build_versions(
                name,
                etype,
                attr,
                urls,
                profile_fn=profile_fn,
                reflector=reflector,
                max_iterations=max_iterations,
            )
            cur = (
                vp["versions"][-1]["profile"]
                if vp["versions"]
                else profile_kernel(name, etype, attr, [])
            )
            rows.append(
                {
                    "entity_id": eid,
                    "entity_type": etype,
                    "name": name,
                    "profile_text": cur["text"],
                    "confidence_e2": np.int64(round(cur["confidence"] * 100)),
                    "n_sources": np.int64(len(urls)),
                    "current_version": np.int64(vp["current_version"]),
                    "sources": ALIAS_SEP.join(urls),
                    "profile_hash": sha256_hex(cur["text"]),
                    "versions_json": json.dumps(vp, sort_keys=True),
                    "reflection_attempts": np.int64(
                        vp["reflection"]["total_attempts"]
                    ),
                }
            )
        return pd.DataFrame(rows)

    from .cogroup import cogroup

    return cogroup(
        {
            "ents": entities_ds.select_columns(
                ["entity_id", "entity_type", "name", "attr_type"]
            ),
            "arts": articles,
        },
        "entity_id",
        build,
    )


def reflection_stats(profiles_ds) -> Dict:
    """Fold per-entity ``reflection_attempts`` into the G3 summary the
    reference logs per run (``calculate_reflection_statistics``,
    src/process_and_extract.py:343-362): total attempts + mean per
    entity. Vocabulary-scale aggregate — one Sum + one count."""
    from ray.data.aggregate import Sum

    n = profiles_ds.count()
    total = 0
    if n:
        row = profiles_ds.aggregate(
            Sum("reflection_attempts", alias_name="total")
        )
        total = int(row["total"] or 0)
    return {
        "total_reflection_attempts": total,
        "avg_reflections": (total / n) if n else 0.0,
        "n_profiles": int(n),
    }


def profiles_from_sf(sf_dir: str, *, max_versions: int = 8):
    """sf pages → canonical entities → versioned profiles (the
    ``kg_profiles`` query entry)."""
    from ..pipelines.kg import build_kg_from_sf

    res = build_kg_from_sf(sf_dir)
    return entity_profiles(
        res.entities, res.mentions, max_versions=max_versions
    ).sort("entity_id")
