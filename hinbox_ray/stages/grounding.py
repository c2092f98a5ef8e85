"""Profile grounding verification as a pipeline stage (reference A7).

The reference verifies each profile's cited claims against the cited
source articles (/root/reference/src/utils/quality_controls.py:602-750:
extract citations → group by article → verify each claim → fold into a
GroundingReport), orchestrated per entity with a
skip-unchanged-by-profile-hash memo
(/root/reference/src/process_and_extract.py:409-477).

Ray plan:

1. profiles → explode (entity_id, article_id, claim, profile_hash)
   rows via ``functions.citations.extract_cited_claims`` —
   vocabulary × max_versions scale;
2. optional memo: profiles whose (entity_id, profile_hash) already have
   a report are anti-joined out (the skip-unchanged semantics); their
   prior reports are replayed from the memo Parquet;
3. claims ⟕ docs co-grouped by url (the ONLY corpus-scale shuffle —
   the doc text never leaves its group): per group each claim gets a
   support level via the deterministic verifier stand-in
   (``support_by_substring``; an LLM verifier replaces that kernel
   exactly as in the reference);
4. groupby(entity_id) → GroundingReport row per entity
   (``grounding_summary`` arithmetic, same flags/score).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.citations import (
    MISSING_SOURCE,
    extract_cited_claims,
    grounding_summary,
    support_by_substring,
)

REPORT_COLS = [
    "entity_id",
    "profile_hash",
    "total_citations",
    "verified",
    "unverified",
    "missing_source",
    "grounding_score_e4",
    "passed",
    "flags",
]


def _report_empty() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "entity_id": pd.Series(dtype=object),
            "profile_hash": pd.Series(dtype=object),
            "total_citations": pd.Series(dtype=np.int64),
            "verified": pd.Series(dtype=np.int64),
            "unverified": pd.Series(dtype=np.int64),
            "missing_source": pd.Series(dtype=np.int64),
            "grounding_score_e4": pd.Series(dtype=np.int64),
            "passed": pd.Series(dtype=bool),
            "flags": pd.Series(dtype=object),
        }
    )


def _explode_claims(df: pd.DataFrame) -> pd.DataFrame:
    out = {"entity_id": [], "profile_hash": [], "article_id": [], "claim": []}
    for eid, ph, text in zip(df["entity_id"], df["profile_hash"], df["profile_text"]):
        for c in extract_cited_claims(str(text)):
            out["entity_id"].append(str(eid))
            out["profile_hash"].append(str(ph))
            out["article_id"].append(c["article_id"])
            out["claim"].append(c["claim"])
    return pd.DataFrame(out)


def verify_claims(claims_ds, docs_ds):
    """claims ⟕ docs co-group on article url → per-claim support level.

    The doc text stays inside its group (never re-shipped per claim
    consumer); claims for unknown articles get MISSING_SOURCE."""

    def resolve(f: dict) -> pd.DataFrame:
        claims, docs = f["claims"], f["docs"]
        if claims is None:
            return pd.DataFrame(
                {
                    "entity_id": pd.Series(dtype=object),
                    "profile_hash": pd.Series(dtype=object),
                    "support": pd.Series(dtype=object),
                }
            )
        texts = [None] * len(claims)
        if docs is not None:
            docs = docs.drop_duplicates("url")
            pos = pd.Index(docs["url"]).get_indexer(claims["article_id"])
            doc_text = docs["text"].to_numpy()
            texts = [doc_text[p] if p >= 0 else None for p in pos]
        support = [
            support_by_substring(str(c), str(t)) if t is not None else MISSING_SOURCE
            for c, t in zip(claims["claim"], texts)
        ]
        return pd.DataFrame(
            {
                "entity_id": claims["entity_id"].astype(str).to_numpy(),
                "profile_hash": claims["profile_hash"].astype(str).to_numpy(),
                "support": support,
            }
        )

    from .cogroup import cogroup

    # article ids are corpus-scale: per-block verify, never one Ray
    # group per article
    return cogroup(
        {
            "claims": claims_ds.select_columns(
                ["article_id", "entity_id", "profile_hash", "claim"]
            ),
            "docs": docs_ds.select_columns(["url", "text"]),
        },
        {"claims": "article_id", "docs": "url"},
        resolve,
    )


def _fold_reports(g: pd.DataFrame, min_grounding_score: float) -> pd.DataFrame:
    rep = grounding_summary(
        g["support"].tolist(), min_grounding_score=min_grounding_score
    )
    score = rep["grounding_score"]
    return pd.DataFrame(
        {
            "entity_id": [str(g["entity_id"].iloc[0])],
            "profile_hash": [str(g["profile_hash"].iloc[0])],
            "total_citations": [np.int64(rep["total_citations"])],
            "verified": [np.int64(rep["verified"])],
            "unverified": [np.int64(rep["unverified"])],
            "missing_source": [np.int64(rep["missing_source"])],
            "grounding_score_e4": [
                np.int64(-1 if score is None else int(np.floor(score * 1e4 + 0.5)))
            ],
            "passed": [bool(rep["passed"])],
            "flags": [",".join(rep["flags"])],
        }
    )


def ground_profiles(
    profiles_ds,
    docs_ds,
    *,
    min_grounding_score: float = 0.5,
    memo_dir: Optional[str] = None,
):
    """profiles × docs → one grounding-report row per entity.

    ``memo_dir`` enables the reference's skip-unchanged semantics: a
    parquet memo keyed by (entity_id, profile_hash). Profiles whose hash
    is already memoized are NOT re-verified — their stored reports are
    replayed — and newly computed reports are appended for next time.
    """
    import ray.data as rd

    memo_df = None
    if memo_dir and os.path.isdir(memo_dir):
        import pyarrow.parquet as pq

        files = [
            os.path.join(memo_dir, f)
            for f in sorted(os.listdir(memo_dir))
            if f.endswith(".parquet")
        ]
        if files:
            memo_df = pd.concat(
                [pq.read_table(f).to_pandas() for f in files], ignore_index=True
            ).drop_duplicates(["entity_id", "profile_hash"])

    if memo_df is not None and len(memo_df):
        memo_keys = set(zip(memo_df["entity_id"], memo_df["profile_hash"]))

        def drop_memoized(df: pd.DataFrame):
            keep = [
                (e, h) not in memo_keys
                for e, h in zip(df["entity_id"], df["profile_hash"])
            ]
            if any(keep):
                yield df[keep]

        fresh_profiles = profiles_ds.map_batches(
            drop_memoized, batch_format="pandas"
        )
        # replay memoized reports only for entities present in THIS run.
        # SCALE GUARD: the driver set below is one (entity_id, hash)
        # pair per CANONICAL ENTITY — vocabulary-scale by construction
        # (one profile per entity, stages/profiles.py). If profiles
        # ever become per-(entity, article), this collect turns
        # corpus-scale: fail loudly instead of OOMing the driver, and
        # move the split to a bucketed co-group (state/memo.py pattern).
        n_profiles = profiles_ds.count()
        if n_profiles > 5_000_000:
            raise RuntimeError(
                f"grounding memo replay would collect {n_profiles} keys "
                "on the driver; profiles are no longer vocabulary-scale "
                "— rework the replay as a bucketed co-group"
            )
        run_keys = set(
            zip(
                *(
                    profiles_ds.select_columns(
                        ["entity_id", "profile_hash"]
                    ).to_pandas()[c]
                    for c in ("entity_id", "profile_hash")
                )
            )
        )
        replay = memo_df[
            [
                (e, h) in run_keys
                for e, h in zip(memo_df["entity_id"], memo_df["profile_hash"])
            ]
        ][REPORT_COLS]
    else:
        fresh_profiles = profiles_ds
        replay = _report_empty()

    claims = fresh_profiles.map_batches(_explode_claims, batch_format="pandas")
    supports = verify_claims(claims, docs_ds)
    from .cogroup import bucketed_map_groups

    reports = bucketed_map_groups(
        supports,
        "entity_id",
        lambda g: _fold_reports(g, min_grounding_score),
    )

    # entities whose profile cites nothing still get a no_citations row;
    # batches without one yield nothing (Ray cannot size a zero-row
    # frame's object columns)
    def no_claim_rows(df: pd.DataFrame):
        rows = [
            (str(eid), str(ph))
            for eid, ph, text in zip(
                df["entity_id"], df["profile_hash"], df["profile_text"]
            )
            if not extract_cited_claims(str(text))
        ]
        if rows:
            yield pd.DataFrame(
                {
                    "entity_id": [r[0] for r in rows],
                    "profile_hash": [r[1] for r in rows],
                    "total_citations": np.int64(0),
                    "verified": np.int64(0),
                    "unverified": np.int64(0),
                    "missing_source": np.int64(0),
                    "grounding_score_e4": np.int64(-1),
                    "passed": True,
                    "flags": "no_citations",
                }
            )

    uncited = fresh_profiles.map_batches(no_claim_rows, batch_format="pandas")
    out = reports.union(uncited)
    if len(replay):
        out = out.union(rd.from_pandas(replay))

    if memo_dir:
        os.makedirs(memo_dir, exist_ok=True)
        fresh = out.to_pandas()  # vocabulary-scale report table
        new_rows = fresh
        if memo_df is not None and len(memo_df):
            have = set(zip(memo_df["entity_id"], memo_df["profile_hash"]))
            new_rows = fresh[
                [
                    (e, h) not in have
                    for e, h in zip(fresh["entity_id"], fresh["profile_hash"])
                ]
            ]
        if len(new_rows):
            import pyarrow.parquet as pq

            from ..functions.hashing import sha256_hex

            key = sha256_hex("|".join(sorted(new_rows["entity_id"])))[:12]
            tmp = os.path.join(memo_dir, f".part-{key}.tmp")
            pq.write_table(
                pa.Table.from_pandas(new_rows[REPORT_COLS], preserve_index=False),
                tmp,
            )
            os.replace(tmp, os.path.join(memo_dir, f"part-{key}.parquet"))
        return rd.from_pandas(fresh)

    return out


def grounding_from_sf(sf_dir: str, *, memo_dir: Optional[str] = None):
    """sf pages → profiles → grounding reports (the ``kg_grounding``
    query entry; rows-only — the verifier is the deterministic
    substring kernel)."""
    from ..pipelines.kg import build_kg_from_sf
    from .profiles import entity_profiles

    from ..sources.pages import pages_dataset
    from .extract import extract_and_filter

    res = build_kg_from_sf(sf_dir)
    profiles = entity_profiles(res.entities, res.mentions).materialize()
    docs = extract_and_filter(pages_dataset(sf_dir)).select_columns(["url", "text"])
    return ground_profiles(profiles, docs, memo_dir=memo_dir).sort("entity_id")
