"""Entity resolution, part 2: components → canonical entities → triples.

Per-component canonical election reproduces the reference's merge-time
canonical-key selection (src/engine/mergers.py:231-274,962-998) without
its order dependence: every member is scored with
``canonical_score_with_bonuses`` (base canonical score + containment and
acronym-derivation bonuses against the other members), and the winner is
the FIRST member in first-seen order (min url — the reference processes
articles in input order) whose score is within 0.3 of the maximum —
mirroring "the existing name keeps the key unless the incoming one is
better by more than 0.3".

Outputs:
- ``entities`` Dataset: one row per canonical entity (profile-shaped
  narrow columns + aliases + member node ids),
- ``node_map`` Dataset: (node_id → entity_id) used to rewrite mention
  rows into ``mentioned_in`` triples,
- triple emission kernels (SURVEY.md §7.0 triple view).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import DomainConfig
from ..functions.hashing import entity_id as make_entity_id
from ..functions.names import canonical_score_with_bonuses
from .resolve import join_aliases, split_aliases

_SWAP_MARGIN = 0.3


def _elect(g: pd.DataFrame) -> pd.DataFrame:
    """Per-component canonical election = replay of the reference's
    serial greedy merge (mergers.py:962-1017): walk members in
    first-seen order (article order, then within-article emission
    order), swapping the canonical name only when the incoming one
    scores above the incumbent by more than the margin — with the
    alias context known *at that point of the walk*, not globally.
    Deterministic: the walk order is content-derived, not task order.
    """
    g = g.sort_values(["first_url", "first_ord"], kind="mergesort")
    rows = list(g.itertuples(index=False))
    etype = str(rows[0].entity_type)

    canon_name = str(rows[0].name)
    attr_type = str(rows[0].attr_type)
    start_date = str(rows[0].start_date)
    end_date = str(rows[0].end_date)
    event_type = str(rows[0].event_type)
    description = str(rows[0].description)
    aliases: List[str] = []

    def absorb(v: str) -> None:
        # membership is checked against the aliases AND the canon name
        # *as of this step* (oracle _merge_into.absorb semantics): a
        # name that is the canon now can still be absorbed after a
        # later swap demotes it
        low = {a.lower() for a in aliases} | {canon_name.lower()}
        if v and v.lower() not in low:
            aliases.append(v)

    for a in split_aliases(rows[0].aliases):
        absorb(a)

    for m in rows[1:]:
        m_name = str(m.name)
        m_aliases = split_aliases(m.aliases)
        existing = canonical_score_with_bonuses(
            canon_name, [m_name, *m_aliases, *aliases]
        )
        incoming = canonical_score_with_bonuses(
            m_name, [canon_name, *aliases, *m_aliases]
        )
        if incoming > existing + _SWAP_MARGIN:
            demoted = canon_name
            canon_name = m_name
            attr_type = str(m.attr_type) or attr_type
            if str(m.start_date):
                start_date = str(m.start_date)
            absorb(demoted)
        else:
            absorb(m_name)
        for a in m_aliases:
            absorb(a)
        end_date = end_date or str(m.end_date)
        event_type = event_type or str(m.event_type)
        description = description or str(m.description)

    winner = rows[0]

    if etype == "people":
        key = canon_name
    elif etype in ("organizations", "locations"):
        key = f"{canon_name}\x1f{attr_type}"
    else:
        key = f"{canon_name}\x1f{start_date}"

    return pd.DataFrame(
        {
            "entity_id": [make_entity_id(etype, key)],
            "entity_type": [etype],
            "name": [canon_name],
            "attr_type": [attr_type],
            "start_date": [start_date],
            "end_date": [end_date],
            "event_type": [event_type],
            "description": [description],
            "aliases": [join_aliases(aliases)],
            "n_mentions": [int(g["n_mentions"].sum())],
            "first_url": [str(g["first_url"].min())],
            "first_ts": [g["first_ts"].min()],
            "profile_text": [str(winner.evidence)],
            "member_nodes": [g["node_id"].astype(np.int64).tolist()],
        }
    )


# one row per canonical entity, as ``_elect`` emits it; a graph with no
# mentions gets an empty table of this schema
ENTITIES_SCHEMA = pa.schema(
    [
        (c, pa.string())
        for c in (
            "entity_id", "entity_type", "name", "attr_type", "start_date",
            "end_date", "event_type", "description", "aliases",
        )
    ]
    + [
        ("n_mentions", pa.int64()),
        ("first_url", pa.string()),
        ("first_ts", pa.timestamp("ns")),
        ("profile_text", pa.string()),
        ("member_nodes", pa.list_(pa.int64())),
    ]
)


def canonical_entities(raw_entities_ds, components_ds):
    """raw entities ⟕ components → per-component election (SHUFFLE).

    Uses the sort-shuffle co-group (stages/cogroup.py) instead of
    ``Dataset.join``, for cost: the cogroup.py docstring gives the
    measured join latency. Singletons default to component = own
    node_id.
    """
    from .cogroup import attach_component, bucketed_map_groups

    joined = attach_component(raw_entities_ds, components_ds)
    # components are vocabulary-scale (most are singletons): bucketed
    # grouping, the per-component election re-grouped inside the bucket
    return bucketed_map_groups(joined, "component", _elect)


def node_map(entities_ds):
    """(node_id → entity_id) mapping dataset (vocabulary-scale)."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        members = df["member_nodes"].tolist()
        counts = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
        if counts.sum() == 0:
            return pd.DataFrame(
                {
                    "node_id": pd.Series([], dtype="int64"),
                    "entity_id": pd.Series([], dtype=object),
                }
            )
        node_ids = np.concatenate(
            [np.asarray(m, dtype=np.int64) for m in members if len(m)]
        )
        eids = np.repeat(df["entity_id"].to_numpy(), counts)
        return pd.DataFrame({"node_id": node_ids, "entity_id": eids})

    return entities_ds.map_batches(explode, batch_format="pandas")


# ──────────────────────────────────────────────
# Triple emission (SURVEY.md §7.0)
# ──────────────────────────────────────────────

TRIPLES_SCHEMA = pa.schema(
    [("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string())]
)


def _entity_triples_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized triple emission: one masked slice per predicate kind
    (the downstream range sort makes emission order irrelevant)."""
    eid = df["entity_id"].to_numpy()
    etype = df["entity_type"].to_numpy()
    parts: List[pd.DataFrame] = []

    def block(mask: np.ndarray, pred: str, col: str) -> None:
        vals = df[col].to_numpy()
        m = mask & pd.notna(vals) & (vals != "")
        if m.any():
            parts.append(
                pd.DataFrame({"subj": eid[m], "pred": pred, "obj": vals[m]})
            )

    every = np.ones(len(df), dtype=bool)
    block(every, "rdf:type", "entity_type")
    block(every, "name", "name")

    alias_lists = [split_aliases(a) for a in df["aliases"]]
    counts = np.fromiter(
        map(len, alias_lists), dtype=np.int64, count=len(alias_lists)
    )
    if counts.sum():
        parts.append(
            pd.DataFrame(
                {
                    "subj": np.repeat(eid, counts),
                    "pred": "alias",
                    "obj": np.concatenate(
                        [np.asarray(a, dtype=object) for a in alias_lists if a]
                    ),
                }
            )
        )

    block(np.isin(etype, ("organizations", "locations")), "type", "attr_type")
    is_ev = etype == "events"
    block(is_ev, "event_type", "event_type")
    block(is_ev, "start_date", "start_date")
    block(is_ev, "end_date", "end_date")

    if not parts:
        return pd.DataFrame(
            {
                "subj": pd.Series([], dtype=object),
                "pred": pd.Series([], dtype=object),
                "obj": pd.Series([], dtype=object),
            }
        )
    return pd.concat(parts, ignore_index=True)


def entity_triples(entities_ds):
    return entities_ds.map_batches(_entity_triples_batch, batch_format="pandas")


# node_map rows up to which mention_triples ships the map to every
# worker instead of attaching entity ids with a shuffle
BROADCAST_NODE_ROWS = 5_000_000


def mention_triples(mentions_ds, node_map_ds):
    """(entity_id, "mentioned_in", url) — one per linked article
    (reference: article link-once at mergers.py:1002-1017).

    Size-based plan: the node→entity map is vocabulary-scale. When it
    fits comfortably in memory (≤ ``BROADCAST_NODE_ROWS`` rows) it is
    shipped once per worker and every task maps node→entity locally.
    Past that, the salted co-group (stages/cogroup.py) attaches ids
    with a shuffle.

    Distinctness is local: each batch drops its own repeats (same-doc
    name variants resolving to one entity — the dominant duplicate
    source, since one doc's mentions share a batch). The triple layout
    after it finishes distinctness per block
    (``pipelines.kg.range_sorted_triples``: a subject's triples all land
    in one range block, sorted, so equal triples are adjacent) — one
    exchange over the triple stream instead of two.
    """
    from .cogroup import COALESCE_ROWS
    from .resolve import add_node_id

    if node_map_ds.count() <= BROADCAST_NODE_ROWS:
        nmap_df = node_map_ds.to_pandas()
        # closed-over dict, NOT a ray.put ObjectRef: Ray caches the
        # deserialized map fn per worker process, so the lookup is
        # unpickled once per worker — a per-batch ray.get of a plasma
        # dict would re-unpickle the whole map every batch (Ray does not
        # cache deserialized non-zero-copy objects)
        lookup = dict(
            zip(nmap_df["node_id"].astype(np.int64), nmap_df["entity_id"])
        )

        def project_map(df: pd.DataFrame) -> pd.DataFrame:
            df = add_node_id(df)
            df = df.drop_duplicates(["node_id", "url"])
            eids = df["node_id"].map(lookup)
            keep = eids.notna()
            out = pd.DataFrame(
                {
                    "entity_id": eids[keep].astype(str),
                    "url": df["url"][keep].astype(str),
                }
            )
            # local dedup: same-doc name variants → one entity
            return out.drop_duplicates(["entity_id", "url"])

        joined = mentions_ds.map_batches(
            project_map, batch_format="pandas", batch_size=COALESCE_ROWS
        )
    else:
        from .cogroup import attach_entity_id

        def project(df: pd.DataFrame) -> pd.DataFrame:
            df = add_node_id(df)
            return df[["node_id", "url"]]

        mention_nodes = mentions_ds.map_batches(project, batch_format="pandas")
        # local pre-dedup: same-doc repeats of one node collapse here
        mention_nodes = mention_nodes.map_batches(
            lambda df: df.drop_duplicates(["node_id", "url"]),
            batch_format="pandas",
        )
        joined = attach_entity_id(mention_nodes, node_map_ds)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "subj": df["entity_id"],
                "pred": "mentioned_in",
                "obj": df["url"],
            }
        )

    return joined.map_batches(emit, batch_format="pandas")
