"""Typed-mention extraction — the actor-pool "model" stage.

``MentionExtractor`` is the engine's deterministic stand-in for the
reference's four LLM entity extractors
(/root/reference/src/engine/extractors.py:19-145): a callable class for
``map_batches(MentionExtractor, concurrency=N, batch_size=B)`` whose
state (the compiled lexicon automaton, the domain config) is built ONCE
per actor in ``__init__`` and reused per batch — exactly where a real
model would load its weights. Swapping in a real LLM/NER model changes
only this class.

Per document it also runs the reference's within-article QC
(src/utils/quality_controls.py:218-306):

- exact dedup on the entity key (name / name+type / title+start_date)
- variant collapse for organizations/locations (acronym / containment /
  equivalence-group pairs absorb the weaker name as an alias, keeping
  the higher canonical score; :127-215)
- mention-validation is satisfied by construction (mentions come from
  the text scan) — the standalone filter lives in
  ``hinbox_ray.functions.qc`` for API parity.

Output: one row per (document × surviving entity), the narrow mention
schema the resolution stages shuffle.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

import pyarrow as pa

from ..config import GAZETTEER, DomainConfig
from ..functions.evidence import build_evidence_text
from ..functions.names import (
    names_likely_same,
    normalize_display,
    score_canonical_name,
)

_DATE_SUFFIX = r"(?:\s+on\s+(\d{4}-\d{2}-\d{2}))?"

MENTIONS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("entity_type", pa.string()),
        ("name", pa.string()),
        ("attr_type", pa.string()),
        ("start_date", pa.string()),
        ("end_date", pa.string()),
        ("event_type", pa.string()),
        ("description", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("n_mentions", pa.int32()),
        ("doc_ord", pa.int32()),
        ("evidence", pa.string()),
    ]
)


# QC flags that trigger a single extraction retry
# (reference: src/engine/article_processor.py:20-27)
RETRY_TRIGGER_FLAGS = {
    "zero_entities",
    "high_drop_rate",
    "many_duplicates",
    "many_low_quality_names",
}


def build_repair_hint(entity_type: str, flags) -> str:
    """Prompt suffix describing what went wrong on the first attempt
    (reference: article_processor.py:33-49). The deterministic extractor
    ignores it; an LLM extractor appends it to its system prompt."""
    active = sorted(set(flags) & RETRY_TRIGGER_FLAGS)
    hint = (
        f"IMPORTANT — Previous extraction of {entity_type} had quality issues "
        f"({', '.join(active)}). Ensure all required fields are populated, "
        f"avoid duplicate entries, and return every relevant entity."
    )
    if "many_low_quality_names" in active:
        hint += " Use proper nouns for entity names."
    return hint


class MentionExtractor:
    """Actor-pool stage: text → typed entity mentions + per-doc QC.

    ``qc_retry=True`` adds the reference's QC-triggered single-retry
    ladder (article_processor.py:153-251): after attempt 1, per-doc QC
    flags are computed; a severe flag triggers ONE retry via
    ``_run_extraction(text, repair_hint=...)`` and the better result is
    kept (higher output count, then fewer severe flags). The
    deterministic extractor's attempt 2 equals attempt 1, so the ladder
    is a no-op on the happy path — it exists as the seam a stochastic
    (LLM) extractor subclass overrides ``_run_extraction`` on.
    """

    def __init__(self, cfg: Optional[DomainConfig] = None, qc_retry: bool = True):
        self.cfg = cfg or DomainConfig()
        self.qc_retry = qc_retry
        # lexicon: longest-first alternation so full forms win over
        # contained shorter surfaces at the same position.
        self._by_surface: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for e in GAZETTEER:
            if e.surface not in self._by_surface:
                attrs = dict(e.attrs)
                if e.entity_type == "events":
                    # the date comes from the text, not the lexicon
                    attrs.pop("start_date", None)
                self._by_surface[e.surface] = (e.entity_type, attrs)
        surfaces = sorted(self._by_surface, key=len, reverse=True)
        alternation = "|".join(re.escape(s) for s in surfaces)
        self._rx = re.compile(rf"(?<!\w)({alternation})(?!\w){_DATE_SUFFIX}")
        self._eq_groups = {
            t: self.cfg.groups_for(t) for t in ("organizations", "locations")
        }

    # ── per-document extraction ──

    def _run_extraction(
        self, text: str, repair_hint: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """ONE extraction attempt — the model seam. An LLM/NER extractor
        subclass overrides only this (the hint goes into its prompt); the
        deterministic lexicon scan ignores the hint."""
        return self._extract_doc(text)

    def _extract_doc_with_qc(self, text: str) -> List[Dict[str, Any]]:
        """Attempt → QC flags → conditional single retry → pick-better
        (reference article_processor.extract_single_entity_type)."""
        from ..functions.qc import qc_flags

        ents = self._run_extraction(text)
        if not self.qc_retry:
            return ents  # hot path: no flag computation at all
        raw = getattr(self, "_last_raw_count", len(ents))
        flags = qc_flags(
            input_count=raw,
            dropped=0,
            deduped=max(0, raw - len(ents)),
            names=[e["name"] for e in ents],
        )
        if self.qc_retry and (set(flags) & RETRY_TRIGGER_FLAGS):
            hint = build_repair_hint("entities", flags)
            ents2 = self._run_extraction(text, repair_hint=hint)
            raw2 = getattr(self, "_last_raw_count", len(ents2))
            flags2 = qc_flags(
                input_count=raw2,
                dropped=0,
                deduped=max(0, raw2 - len(ents2)),
                names=[e["name"] for e in ents2],
            )
            severe1 = len(set(flags) & RETRY_TRIGGER_FLAGS)
            severe2 = len(set(flags2) & RETRY_TRIGGER_FLAGS)
            # pick the better result: higher output count wins; on tie,
            # fewer severe flags (article_processor.py:206-221)
            if len(ents2) > len(ents) or (
                len(ents2) == len(ents) and severe2 < severe1
            ):
                return ents2
        return ents

    def _extract_doc(self, text: str) -> List[Dict[str, Any]]:
        found: Dict[Tuple, Dict[str, Any]] = {}
        for m in self._rx.finditer(text):
            surface, date = m.group(1), m.group(2) or ""
            etype, attrs = self._by_surface[surface]
            name = normalize_display(surface)
            key = (
                etype,
                name,
                str(attrs.get("type", "")),
                date if etype == "events" else "",
            )
            if key in found:
                found[key]["n_mentions"] += 1  # within-doc exact dedup
            else:
                found[key] = {
                    "entity_type": etype,
                    "name": name,
                    "attr_type": str(attrs.get("type", "")),
                    "start_date": date if etype == "events" else "",
                    "end_date": str(attrs.get("end_date", "")),
                    "event_type": str(attrs.get("event_type", "")),
                    "description": str(attrs.get("description", "")),
                    "aliases": [],
                    "n_mentions": 1,
                }
        self._last_raw_count = len(found)  # pre-collapse, for QC flags
        return self._collapse_variants(list(found.values()))

    def _collapse_variants(self, ents: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Within-doc variant collapse for orgs/locs (first-wins pairwise,
        higher canonical score keeps the name, loser absorbed as alias)."""
        absorbed: set = set()
        for i in range(len(ents)):
            if i in absorbed or ents[i]["entity_type"] not in (
                "organizations",
                "locations",
            ):
                continue
            for j in range(i + 1, len(ents)):
                if j in absorbed or ents[j]["entity_type"] != ents[i]["entity_type"]:
                    continue
                ti, tj = ents[i]["attr_type"], ents[j]["attr_type"]
                if ti and tj and ti != tj:
                    continue
                etype = ents[i]["entity_type"]
                if names_likely_same(
                    ents[i]["name"],
                    ents[j]["name"],
                    entity_type=etype,
                    equivalence_groups=self._eq_groups[etype],
                ):
                    if score_canonical_name(ents[i]["name"]) >= score_canonical_name(
                        ents[j]["name"]
                    ):
                        keep, drop = ents[i], ents[j]
                        absorbed.add(j)
                    else:
                        keep, drop = ents[j], ents[i]
                        absorbed.add(i)
                    if drop["name"] not in keep["aliases"]:
                        keep["aliases"].append(drop["name"])
                    for a in drop["aliases"]:
                        if a not in keep["aliases"]:
                            keep["aliases"].append(a)
                    if i in absorbed:
                        break
        return [e for k, e in enumerate(ents) if k not in absorbed]

    # ── batch interface ──

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "html" in batch.column_names:
            # FUSED mode: raw pages in, html→text + filter run inside
            # this actor. html→text is ~2.5× the extraction kernel's
            # cost; as a separate task stage it competes with this actor
            # pool for CPUs and whichever side is under-allocated
            # starves the other (measured: 112 s → 86 s at 10M pages /
            # 32 cpus when fused). Lineage/memo paths still run the
            # stages separately (they checkpoint the text boundary).
            from ..functions.html_text import extract_text_batch
            from .extract import filter_processable

            batch = filter_processable(extract_text_batch(batch))
        urls = batch.column("url").to_pylist()
        tss = batch.column("warc_ts").to_pylist()
        texts = batch.column("text").to_pylist()

        rows: Dict[str, List[Any]] = {name: [] for name in MENTIONS_SCHEMA.names}
        ev = self.cfg.evidence
        # evidence text is vocabulary-scale data (one sample per entity
        # survives the reduce: the globally-first mention's); building it
        # for every mention row is corpus-scale work carrying ~1 KB/row
        # through the shuffle for nothing. Batches arrive in url order,
        # so the first occurrence of a key in THIS batch is also the
        # batch's candidate for globally-first — only it gets evidence.
        seen_keys: set = set()
        for url, ts, text in zip(urls, tss, texts):
            for ord_, ent in enumerate(self._extract_doc_with_qc(text or "")):
                rows["doc_ord"].append(ord_)
                rows["url"].append(url)
                rows["warc_ts"].append(ts)
                for f in (
                    "entity_type",
                    "name",
                    "attr_type",
                    "start_date",
                    "end_date",
                    "event_type",
                    "description",
                    "aliases",
                    "n_mentions",
                ):
                    rows[f].append(ent[f])
                key = (
                    ent["entity_type"],
                    ent["name"],
                    ent["attr_type"],
                    ent["start_date"],
                )
                if key in seen_keys:
                    rows["evidence"].append("")
                    continue
                seen_keys.add(key)
                rows["evidence"].append(
                    build_evidence_text(
                        ent["entity_type"],
                        ent["name"],
                        {
                            "type": ent["attr_type"],
                            "start_date": ent["start_date"],
                            "event_type": ent["event_type"],
                            "description": ent["description"],
                        },
                        text or "",
                        aliases=ent["aliases"],
                        max_chars=ev.max_chars,
                        window_chars=ev.window_chars,
                        max_windows=ev.max_windows,
                    )
                )
        return pa.Table.from_pydict(rows, schema=MENTIONS_SCHEMA)


def extract_mentions(
    docs_ds,
    cfg: Optional[DomainConfig] = None,
    *,
    concurrency=None,  # None → fixed pool sized to cluster CPUs
    batch_size: int = 256,
    extractor_cls=None,        # swap the model (A1): MentionExtractor or
    extractor_kwargs=None,     # a ClientExtractor subclass + its kwargs
):
    """docs(url, warc_ts, text, ...) → mentions Dataset via the actor pool."""
    if concurrency is None:
        import ray

        # a FIXED pool: autoscaling ramps from min and on a short phase
        # never reaches cluster width, flattening CPU scaling. Each
        # actor is a fresh worker process that imports ray and ray.data
        # (0.74-0.98 s measured on a 1-core VM) before its lexicon is
        # built; a fixed pool pays that once per actor, at its start,
        # which is why stateless stages run as tasks. Leave 2 CPUs for the
        # (column-pruned) read, or 1 on a 2-CPU cluster: a pool equal
        # to cluster width starves the read and the pipeline STALLS
        # outright (measured: conc=32/32 never finished where conc=30
        # took 45 s at 5M pages, and a 2-actor pool on 2 CPUs never
        # finished; 24 → 30 actors = 52 → 45 s).
        n = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
        concurrency = max(1, n - 2)
    return docs_ds.map_batches(
        extractor_cls or MentionExtractor,
        fn_constructor_kwargs={"cfg": cfg, **(extractor_kwargs or {})},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )
