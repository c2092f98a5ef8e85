"""Content-addressed extraction memo (reference S7).

The reference memoizes extraction results per
(cache-version, entity-type, model, temperature, content-hash,
prompt-hash, schema-hash) in an atomic JSON sidecar store
(/root/reference/src/utils/extraction_cache.py:58-177, key at :88-111),
so a re-run — even after a config-version bump that changes OTHER
inputs — re-extracts only documents whose key inputs changed. Lineage
manifests (state/lineage.py) resume per *partition*; this memo resumes
per *document*: a modified shard re-extracts only its modified docs.

Ray-native layout (``memo_dir/``):

- ``index/*.parquet``  — (memo_key, url, n_mentions): one row per
  processed doc, INCLUDING zero-mention docs (so they hit next time);
- ``data/*.parquet``   — memo_key + the mention schema: the memoized
  extractor output, replayed for hits.

The hit/miss split, the index counts and the replay are ``cogroup``
exchanges on memo_key or url (see stages/cogroup.py for why not
``Dataset.join``; one Ray group per *document* key would make the
fixed per-group cost dominate the very resume the memo exists to
accelerate) — no driver-side key set, so the memo can be
corpus-scale. Writes are tmp + ``os.replace``
(atomic), mirroring the reference's sidecar.

Replay semantics mirror the reference's reattach
(extraction_cache.py: cached results are re-attached to the CURRENT
article): every hit doc keeps its own url/warc_ts and the memoized
mention fields are fanned out per hit doc — a doc whose content matches
an earlier doc at a *different* url gets the mentions attributed to
itself, not to the absent old url. The append-only data dir may hold
duplicate rows for a key (concurrent runs, or a crash between the data
append and the index append followed by a re-extract); replay dedups
the payload per key before fanning out.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Dict, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DomainConfig

MEMO_CACHE_VERSION = 1


def model_id(cfg: Optional[DomainConfig] = None) -> str:
    """Identity of the extraction model+domain — a different extractor
    or domain config must miss the memo (reference key semantics)."""
    cfg = cfg or DomainConfig()
    return f"gazetteer-lexicon|{cfg.domain}"


def memo_key(text: str, cfg: Optional[DomainConfig] = None, *,
             version: int = MEMO_CACHE_VERSION) -> str:
    """sha256 over every output-affecting input
    (extraction_cache.make_key:88-111 collapsed to the deterministic
    extractor's inputs: cache version, model id, content hash)."""
    content = hashlib.sha256(text.encode("utf-8")).hexdigest()
    parts = f"extraction|v{version}|{model_id(cfg)}|content={content}"
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


def _add_memo_key(cfg: Optional[DomainConfig], version: int):
    def add(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["memo_key"] = [memo_key(t or "", cfg, version=version) for t in df["text"]]
        return df

    return add


def _list_parquet(d: str):
    if not os.path.isdir(d):
        return []
    return [
        os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]


def _atomic_write_dir(ds, final_dir: str) -> None:
    """write_parquet into a tmp dir, then atomically move each file into
    the (append-only) final dir. File names get a content-derived prefix
    so concurrent writers never collide destructively."""
    os.makedirs(final_dir, exist_ok=True)
    tmp = final_dir + f".tmp-{os.getpid()}"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    ds.write_parquet(tmp)
    if not os.path.isdir(tmp):  # empty dataset writes nothing
        return
    for f in sorted(os.listdir(tmp)):
        if not f.endswith(".parquet"):
            continue
        src = os.path.join(tmp, f)
        with open(src, "rb") as fh:
            tag = hashlib.sha256(fh.read(65536)).hexdigest()[:12]
        os.replace(src, os.path.join(final_dir, f"part-{tag}-{f}"))
    shutil.rmtree(tmp, ignore_errors=True)


def extract_with_memo(
    docs_ds,
    memo_dir: str,
    cfg: Optional[DomainConfig] = None,
    *,
    concurrency: Optional[int] = None,
    batch_size: int = 256,
    version: int = MEMO_CACHE_VERSION,
) -> Tuple["object", Dict[str, int]]:
    """docs → mentions, extracting ONLY memo misses.

    Returns (mentions Dataset, stats {"hits": H, "misses": M}). Misses
    are extracted with ``extract_mentions``' actor pool (its sizing
    rule when ``concurrency`` is None), their results appended
    to the memo (index + data); hits are replayed from the memo data
    files without touching the extractor.
    """
    import ray.data as rd

    from ..stages.mentions import (
        MENTIONS_SCHEMA,
        MentionExtractor,
        extract_mentions,
    )

    cfg = cfg or DomainConfig()
    keyed = docs_ds.map_batches(
        _add_memo_key(cfg, version), batch_format="pandas"
    )

    idx_files = _list_parquet(os.path.join(memo_dir, "index"))

    from ..stages.cogroup import cogroup

    if not idx_files:
        misses = keyed
        hit_docs = None
    else:
        index = rd.read_parquet(idx_files, columns=["memo_key"])

        def split_bucket(f: dict):
            # one vectorized isin per block — never one Ray group per doc
            if f["docs"] is None:  # block holds only memo entries
                return None
            out = f["docs"]
            hit = (
                out["memo_key"].isin(f["index"]["memo_key"]).to_numpy()
                if f["index"] is not None
                else np.zeros(len(out), dtype=bool)
            )
            # hit docs KEEP url/warc_ts (replay reattaches mentions to
            # the current doc); only the text can be thinned away.
            out.loc[hit, "text"] = ""
            out["_hit"] = hit.astype(np.int8)
            return out

        cg = cogroup(
            {
                "docs": keyed.select_columns(
                    ["memo_key", "url", "warc_ts", "text"]
                ),
                "index": index,
            },
            "memo_key",
            split_bucket,
        ).materialize()
        # Arrow filters: a zero-row pandas frame with string columns
        # makes Ray log a sizing error for each of them
        misses = cg.map_batches(
            lambda t: t.filter(pc.equal(t["_hit"], 0)).drop_columns(["_hit"]),
            batch_format="pyarrow",
        )
        hit_docs = cg.map_batches(
            lambda t: t.filter(pc.equal(t["_hit"], 1)).select(
                ["memo_key", "url", "warc_ts"]
            ),
            batch_format="pyarrow",
        )

    n_miss = misses.count()
    n_hit = hit_docs.count() if hit_docs is not None else 0

    fresh = None
    if n_miss:
        misses = misses.materialize()

        class _MemoExtractor(MentionExtractor):
            """Extractor emitting memo_key per mention row: the key and
            the text are co-located in the input batch, so no
            driver-side url→key map is ever built."""

            def __call__(self, batch: pa.Table) -> pa.Table:
                key_of = dict(
                    zip(
                        batch.column("url").to_pylist(),
                        batch.column("memo_key").to_pylist(),
                    )
                )
                base = super().__call__(batch)
                mk = [key_of[u] for u in base.column("url").to_pylist()]
                return base.append_column(
                    "memo_key", pa.array(mk, type=pa.string())
                )

        data_rows = extract_mentions(
            misses,
            cfg,
            concurrency=concurrency,
            batch_size=batch_size,
            extractor_cls=_MemoExtractor,
        ).materialize()
        mentions_fresh = data_rows.drop_columns(["memo_key"])
        _atomic_write_dir(data_rows, os.path.join(memo_dir, "data"))

        # index rows: EVERY miss doc, including zero-mention ones.
        # Per-url mention counts attach via a co-group on url — a
        # driver-side Series (one entry per miss url, shipped into every
        # task's closure) would be a corpus-scale collect on exactly the
        # resume path the memo exists to scale.
        def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("url", sort=False).size()
            return pd.DataFrame(
                {
                    "url": g.index.astype(str),
                    "n_mentions": g.to_numpy().astype(np.int64),
                }
            )

        def attach_counts(f: dict):
            m = f["miss"]
            if m is None:
                return None
            n = np.zeros(len(m), dtype=np.int64)
            if f["cnt"] is not None:
                c = f["cnt"].groupby("url", sort=False)["n_mentions"].sum()
                pos = c.index.get_indexer(m["url"])
                hit = pos >= 0
                n[hit] = c.to_numpy(np.int64)[pos[hit]]
            return pd.DataFrame(
                {
                    "memo_key": m["memo_key"].astype(str).to_numpy(),
                    "url": m["url"].astype(str).to_numpy(),
                    "n_mentions": n,
                }
            )

        index_rows = cogroup(
            {
                "miss": misses.select_columns(["memo_key", "url"]),
                "cnt": mentions_fresh.map_batches(
                    cnt_partial, batch_format="pandas"
                ),
            },
            "url",
            attach_counts,
        )
        _atomic_write_dir(index_rows, os.path.join(memo_dir, "index"))
        fresh = mentions_fresh

    replayed = None
    data_files = _list_parquet(os.path.join(memo_dir, "data"))
    if n_hit and data_files:
        data = rd.read_parquet(data_files)
        mcols = list(MENTIONS_SCHEMA.names)
        # memoized mention fields = everything except the doc identity,
        # which replay takes from the CURRENT hit doc
        payload_cols = [c for c in mcols if c not in ("url", "warc_ts")]

        def replay_bucket(f: dict):
            # vectorized per block: dedup each key's payload (the
            # append-only data dir may hold duplicates), then fan it out
            # to every hit doc of that key via one merge — each replayed
            # row carries the hit doc's own url/warc_ts.
            if f["hits"] is None:  # block holds only memo data
                return None
            if f["data"] is None:  # a typed empty keeps the schema
                return MENTIONS_SCHEMA.empty_table()
            payload = f["data"][["memo_key", *payload_cols]].drop_duplicates(
                ["memo_key", "doc_ord", "entity_type", "name"]
            )
            out = f["hits"].merge(payload, on="memo_key", how="inner")
            # Arrow, not pandas: Ray casts a pandas column of arrays to
            # its tensor extension and cannot size it when every
            # `aliases` list in the block is empty
            return pa.Table.from_pandas(
                out[mcols], schema=MENTIONS_SCHEMA, preserve_index=False
            )

        replayed = cogroup(
            {"data": data.select_columns(["memo_key", *mcols]), "hits": hit_docs},
            "memo_key",
            replay_bucket,
        )

    stats = {"hits": int(n_hit), "misses": int(n_miss)}
    if fresh is not None and replayed is not None:
        return fresh.union(replayed), stats
    if fresh is not None:
        return fresh, stats
    if replayed is not None:
        return replayed, stats
    import ray.data as rd2

    return rd2.from_arrow(MENTIONS_SCHEMA.empty_table()), stats
