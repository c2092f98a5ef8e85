"""Versioned profiles (A6) + grounding verification stage (A7)."""

from __future__ import annotations

import json

import numpy as np
import pytest
import ray.data as rd

from hinbox_ray.stages.profiles import build_versions, profile_kernel

SF = "/root/testdata/sf0.001"


# ── pure version-ladder semantics (reference test_profile_versioning) ──


def test_version_numbers_monotone_and_current():
    vp = build_versions("Carol Rosenberg", "people", "journalist",
                        ["u1", "u2", "u3"])
    nums = [v["version_number"] for v in vp["versions"]]
    assert nums == [1, 2, 3]
    assert vp["current_version"] == 3


def test_snapshots_immutable_prefix():
    """Adding a new article never rewrites earlier snapshots (deep-copy
    semantics of VersionedProfile.add_version)."""
    three = build_versions("X", "people", "", ["a", "b", "c"])
    two = build_versions("X", "people", "", ["a", "b"])
    assert three["versions"][:2] == two["versions"]


def test_trigger_article_recorded():
    vp = build_versions("X", "organizations", "agency", ["a", "b"])
    assert [v["trigger_article_id"] for v in vp["versions"]] == ["a", "b"]
    # each snapshot's sources are exactly the articles seen so far
    assert vp["versions"][0]["profile"]["sources"] == ["a"]
    assert vp["versions"][1]["profile"]["sources"] == ["a", "b"]


def test_profile_confidence_monotone():
    confs = [
        profile_kernel("X", "people", "", ["u"] * k)["confidence"]
        for k in range(1, 12)
    ]
    assert confs == sorted(confs)
    assert confs[-1] <= 0.95


# ── pipeline stage ──


@pytest.fixture(scope="module")
def kg_small(ray_session):
    from hinbox_ray.pipelines.kg import build_kg
    from hinbox_ray.sources.pages import generate_pages_table

    res = build_kg(
        rd.from_arrow(generate_pages_table(150)), concurrency=2,
    )
    res.mentions = res.mentions.materialize()
    return res


def test_entity_profiles_stage(ray_session, kg_small):
    from hinbox_ray.stages.profiles import entity_profiles

    prof = entity_profiles(kg_small.entities, kg_small.mentions).to_pandas()
    assert len(prof) == kg_small.entities.count()
    assert (prof["current_version"] >= 1).all()
    assert (prof["current_version"] <= 8).all()  # max_versions cap
    # versions history parses and is internally consistent
    for _, row in prof.iterrows():
        vp = json.loads(row["versions_json"])
        assert vp["current_version"] == len(vp["versions"]) == row["current_version"]
        nums = [v["version_number"] for v in vp["versions"]]
        assert nums == list(range(1, len(nums) + 1))
        srcs = row["sources"].split("\x1f") if row["sources"] else []
        assert [v["trigger_article_id"] for v in vp["versions"]] == srcs
    # a hot entity (many articles) hits the cap; the profile text cites
    # every source
    hot = prof.sort_values("n_sources", ascending=False).iloc[0]
    assert hot["n_sources"] >= 2
    for u in hot["sources"].split("\x1f"):
        assert f"^[{u}]" in hot["profile_text"]


def test_reflection_counters_surfaced(ray_session, kg_small):
    """G3: deterministic kernel validates first try → exactly one
    reflection attempt per version; the fold matches the column."""
    from hinbox_ray.stages.profiles import entity_profiles, reflection_stats

    prof = entity_profiles(kg_small.entities, kg_small.mentions).materialize()
    df = prof.to_pandas()
    assert (df["reflection_attempts"] == df["current_version"]).all()
    stats = reflection_stats(prof)
    assert stats["total_reflection_attempts"] == int(
        df["reflection_attempts"].sum()
    )
    assert stats["n_profiles"] == len(df)
    assert stats["avg_reflections"] >= 1.0


def test_grounding_stage_all_supported_for_exact_names(ray_session, kg_small, tmp_path):
    """Profile claims are the entity's own name → claims verify against
    the cited articles; summary arithmetic matches the kernel."""
    from hinbox_ray.sources.pages import generate_pages_table
    from hinbox_ray.stages.extract import extract_and_filter
    from hinbox_ray.stages.grounding import ground_profiles
    from hinbox_ray.stages.profiles import entity_profiles

    profiles = entity_profiles(kg_small.entities, kg_small.mentions).materialize()
    docs = extract_and_filter(
        rd.from_arrow(generate_pages_table(150))
    ).select_columns(["url", "text"])

    rep = ground_profiles(profiles, docs).to_pandas()
    assert len(rep) == profiles.count()
    cited = rep[rep["total_citations"] > 0]
    assert len(cited) > 0
    # counts add up
    assert (
        cited["verified"] + cited["unverified"] + cited["missing_source"]
        == cited["total_citations"]
    ).all()
    # every cited article is a real doc → no missing sources
    assert (cited["missing_source"] == 0).all()
    # most claims are the surface form found in the text → high scores;
    # at least the exact-name entities are fully grounded
    assert (cited["grounding_score_e4"] == 10000).sum() > 0


def test_grounding_memo_skips_unchanged(ray_session, kg_small, tmp_path):
    """skip-unchanged-by-profile-hash (reference
    process_and_extract.py:409-477): a second run with the same profiles
    replays memoized reports instead of re-verifying."""
    from hinbox_ray.sources.pages import generate_pages_table
    from hinbox_ray.stages.extract import extract_and_filter
    from hinbox_ray.stages.grounding import ground_profiles
    from hinbox_ray.stages.profiles import entity_profiles

    profiles = entity_profiles(kg_small.entities, kg_small.mentions).materialize()
    docs = extract_and_filter(
        rd.from_arrow(generate_pages_table(150))
    ).select_columns(["url", "text"])
    memo = str(tmp_path / "grounding_memo")

    first = ground_profiles(profiles, docs, memo_dir=memo).to_pandas()
    import os

    assert any(f.endswith(".parquet") for f in os.listdir(memo))

    # second run: every profile hash is memoized → replay path. Feed
    # EMPTY docs — if it re-verified, every claim would flip to
    # missing_source; the memo replay keeps the original reports.
    import pyarrow as pa

    empty_docs = rd.from_arrow(
        pa.table({"url": pa.array([], type=pa.string()),
                  "text": pa.array([], type=pa.string())})
    )
    second = ground_profiles(profiles, empty_docs, memo_dir=memo).to_pandas()
    a = first.sort_values("entity_id").reset_index(drop=True)
    b = second.sort_values("entity_id").reset_index(drop=True)
    assert a.equals(b)
    assert (b[b["total_citations"] > 0]["missing_source"] == 0).all()
