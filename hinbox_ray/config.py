"""Domain configuration for the KG-construction engine.

Mirrors the reference's domain-package concept
(/root/reference/configs/<domain>/config.yaml + categories/, loaded by
src/config_loader.py): per-entity-type similarity thresholds, lexical
blocking settings, equivalence groups, evidence-window sizes. The config
is a plain picklable dataclass built on the driver and shipped into
actor constructors / task closures (broadcast once, not per batch).

The built-in "gtmo" domain also carries a deterministic GAZETTEER: the
surface-form lexicon the stub extractor recognizes (standing in for the
reference's LLM extractors, src/engine/extractors.py:19-145) and the
material the synthetic page generator plants. It is designed to exercise
every canonicalization stressor from FIXTURES.md §2: acronym↔full-form,
equivalence groups, containment, transliteration variants, same-surname
distinct people, low-quality generic names, hot-key skew, and events
with same title / different dates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

ENTITY_TYPES = ("people", "organizations", "locations", "events")

# Key shape per entity type (reference: src/engine/mergers.py:114-139)
KEY_FIELDS: Dict[str, Tuple[str, ...]] = {
    "people": ("name",),
    "organizations": ("name", "type"),
    "locations": ("name", "type"),
    "events": ("title", "start_date"),
}


@dataclass(frozen=True)
class BlockingConfig:
    """Lexical + LSH blocking (reference: configs/guantanamo/config.yaml:23-26)."""

    lexical_cutoff: float = 60.0       # 0-100 lexical_ratio gate
    max_candidates: int = 50           # per-entity candidate cap
    max_block_pairs: int = 2000        # per-block pairwise-comparison cap (skew guard)
    block_salt_threshold: int = 256    # blocks larger than this are salted
    name_minhash_perms: int = 32       # minhash perms over name char-shingles
    name_minhash_bands: int = 8        # → 4 rows/band; candidates agree on ≥1 band
    name_shingle_k: int = 3


@dataclass(frozen=True)
class EvidenceConfig:
    """Evidence-text windows (reference: configs/guantanamo/config.yaml:79-83)."""

    max_chars: int = 1500
    window_chars: int = 240
    max_windows: int = 3


@dataclass(frozen=True)
class DomainConfig:
    domain: str = "gtmo"
    # per-type cosine thresholds (reference: configs/guantanamo/config.yaml:17-22)
    similarity_thresholds: Dict[str, float] = field(
        default_factory=lambda: {
            "people": 0.82,
            "organizations": 0.78,
            "locations": 0.80,
            "events": 0.76,
            "default": 0.75,
        }
    )
    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    evidence: EvidenceConfig = field(default_factory=EvidenceConfig)
    # per-type equivalence groups (reference: configs/guantanamo/config.yaml:27-47)
    equivalence_groups: Dict[str, List[List[str]]] = field(
        default_factory=lambda: {
            "people": [],
            "organizations": [
                ["Department of Defense", "Pentagon", "DoD"],
                ["Central Intelligence Agency", "CIA"],
            ],
            "locations": [
                ["Guantanamo Bay", "GTMO", "Guantánamo"],
                ["United States", "U.S.", "USA", "America"],
            ],
            "events": [],
        }
    )
    embedding_dim: int = 64
    embedding_model: str = "ngram-hash-64"

    def threshold(self, entity_type: str) -> float:
        return self.similarity_thresholds.get(
            entity_type, self.similarity_thresholds["default"]
        )

    def groups_for(self, entity_type: str) -> List[List[str]]:
        return self.equivalence_groups.get(entity_type, [])

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "DomainConfig":
        """Build a domain config from a plain dict (the reference's
        configs/<domain>/config.yaml shape, src/config_loader.py):
        unknown keys are ignored, nested sections map onto the
        sub-dataclasses, everything else keeps its default."""
        kwargs: Dict[str, Any] = {}
        for key in ("domain", "similarity_thresholds", "equivalence_groups",
                    "embedding_dim", "embedding_model"):
            if key in d:
                kwargs[key] = d[key]
        if "blocking" in d:
            kwargs["blocking"] = BlockingConfig(
                **{
                    k: v
                    for k, v in d["blocking"].items()
                    if k in BlockingConfig.__dataclass_fields__
                }
            )
        if "evidence" in d:
            kwargs["evidence"] = EvidenceConfig(
                **{
                    k: v
                    for k, v in d["evidence"].items()
                    if k in EvidenceConfig.__dataclass_fields__
                }
            )
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, path: str) -> "DomainConfig":
        """Load a domain package config (the user-extension surface —
        reference: configs/<domain>/config.yaml + src/config_loader.py)."""
        import yaml

        with open(path) as f:
            return cls.from_dict(yaml.safe_load(f) or {})


# ──────────────────────────────────────────────
# Gazetteer (deterministic stub-extraction lexicon + generator material)
# ──────────────────────────────────────────────
#
# Each entry: surface form → (entity_type, attrs). `cluster` labels the
# ground-truth real-world entity (used only by generator tests and P/R
# analysis — never by the extractor or resolver). `weight` drives the
# Zipf-like planting frequency in the synthetic corpus (hot-key skew).

@dataclass(frozen=True)
class GazEntry:
    surface: str
    entity_type: str
    cluster: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    weight: float = 1.0


GAZETTEER: List[GazEntry] = [
    # people — transliteration variants must merge (cosine gate);
    # distinct people sharing a surname must NOT merge.
    GazEntry("Mohammed al-Qahtani", "people", "p_qahtani_m", {"type": "detainee"}, 3.0),
    GazEntry("Mohammed al-Kahtani", "people", "p_qahtani_m", {"type": "detainee"}, 1.5),
    GazEntry("Jamal al-Qahtani", "people", "p_qahtani_j", {"type": "detainee"}, 1.0),
    GazEntry("Carol Rosenberg", "people", "p_rosenberg", {"type": "journalist"}, 2.0),
    GazEntry("David Remes", "people", "p_remes", {"type": "lawyer"}, 1.0),
    GazEntry("Geoffrey Miller", "people", "p_miller_g", {"type": "military"}, 1.5),
    GazEntry("Harold Miller", "people", "p_miller_h", {"type": "government"}, 1.0),
    # organizations — acronym pairs, equivalence groups, low-quality generics.
    GazEntry(
        "Immigration and Customs Enforcement", "organizations", "o_ice",
        {"type": "government_agency"}, 1.5,
    ),
    GazEntry("ICE", "organizations", "o_ice", {"type": "government_agency"}, 1.5),
    GazEntry(
        "Federal Bureau of Investigation", "organizations", "o_fbi",
        {"type": "government_agency"}, 2.0,
    ),
    GazEntry("FBI", "organizations", "o_fbi", {"type": "government_agency"}, 2.5),
    GazEntry("Department of Defense", "organizations", "o_dod", {"type": "military"}, 2.0),
    GazEntry("Pentagon", "organizations", "o_dod", {"type": "military"}, 2.0),
    GazEntry("DoD", "organizations", "o_dod", {"type": "military"}, 1.0),
    GazEntry(
        "Central Intelligence Agency", "organizations", "o_cia",
        {"type": "intelligence"}, 1.0,
    ),
    GazEntry("CIA", "organizations", "o_cia", {"type": "intelligence"}, 2.0),
    GazEntry(
        "Department of Homeland Security", "organizations", "o_dhs",
        {"type": "government_agency"}, 1.5,
    ),
    GazEntry(
        "Homeland Security", "organizations", "o_dhs",
        {"type": "government_agency"}, 1.0,
    ),
    GazEntry(
        "International Committee of the Red Cross", "organizations", "o_icrc",
        {"type": "ngo"}, 1.0,
    ),
    # low-quality generic: must stay unmerged with anything
    GazEntry(
        "defense departments", "organizations", "o_generic_def",
        {"type": "government_agency"}, 0.7,
    ),
    # locations — hot key ("United States" group ≈ 10% of docs), metonymy
    # group, sub-locations that must stay distinct.
    GazEntry("United States", "locations", "l_usa", {"type": "country"}, 6.0),
    GazEntry("U.S.", "locations", "l_usa", {"type": "country"}, 5.0),
    GazEntry("USA", "locations", "l_usa", {"type": "country"}, 2.0),
    GazEntry("Guantanamo Bay", "locations", "l_gtmo", {"type": "base"}, 4.0),
    GazEntry("GTMO", "locations", "l_gtmo", {"type": "base"}, 2.0),
    GazEntry("Guantánamo", "locations", "l_gtmo", {"type": "base"}, 1.5),
    GazEntry("Camp Delta", "locations", "l_camp_delta", {"type": "camp"}, 1.5),
    GazEntry("Camp Echo", "locations", "l_camp_echo", {"type": "camp"}, 1.0),
    GazEntry("Havana", "locations", "l_havana", {"type": "city"}, 1.0),
    GazEntry("Miami", "locations", "l_miami", {"type": "city"}, 1.5),
    # events — same title different date = distinct; re-reported = merge.
    GazEntry(
        "Combatant Status Review Tribunal hearing", "events", "e_csrt_2004",
        {
            "event_type": "hearing", "start_date": "2004-07-30", "end_date": "",
            "description": "Review tribunal convened for detainee status.",
        },
        1.2,
    ),
    GazEntry(
        "Combatant Status Review Tribunal hearing", "events", "e_csrt_2005",
        {
            "event_type": "hearing", "start_date": "2005-03-15", "end_date": "",
            "description": "Second round of status review hearings.",
        },
        0.8,
    ),
    GazEntry(
        "Hunger strike at Camp Delta", "events", "e_strike",
        {
            "event_type": "protest", "start_date": "2005-08-08",
            "end_date": "2005-09-11",
            "description": "Mass hunger strike over detention conditions.",
        },
        1.0,
    ),
    GazEntry(
        "Periodic Review Board session", "events", "e_prb",
        {
            "event_type": "hearing", "start_date": "2014-01-28", "end_date": "",
            "description": "Parole-style review of continued detention.",
        },
        0.8,
    ),
]
