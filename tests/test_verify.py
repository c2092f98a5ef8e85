"""Pair verifier + dispute routing (reference A4/A5/S9 analog)."""

import json

import ray.data as rd

from hinbox_ray.stages.verify import (
    DEFER,
    MATCH,
    SKIP,
    PairVerifier,
    candidate_pairs_with_meta,
    verify_pairs,
    write_review_queue,
)


def test_verifier_rules():
    v = PairVerifier()
    # exact-equivalence pair → MATCH
    assert (
        v._decide("organizations", "Department of Defense", "DoD", "", "")
        == MATCH
    )
    # low-quality name never auto-merges
    assert (
        v._decide("organizations", "defense departments", "DoD", "", "") == SKIP
    )
    # unrelated names → SKIP
    assert v._decide("people", "Alice Smith", "Bob Jones", "", "") == SKIP


def test_verifier_memo_hits():
    v = PairVerifier()
    v._decide("people", "Alice Smith", "Alicia Smith", "", "")
    v._decide("people", "Alice Smith", "Alicia Smith", "", "")
    assert v._decide.cache_info().hits >= 1


def test_verifier_pickles_before_first_use():
    """verify_pairs builds one verifier in the calling process and ships
    it to each task: a fresh instance round-trips through cloudpickle,
    decides as the original does and builds its memo on the far side."""
    from ray import cloudpickle

    v = PairVerifier()
    w = cloudpickle.loads(cloudpickle.dumps(v))
    for args in (
        ("organizations", "Department of Defense", "DoD", "", ""),
        ("organizations", "defense departments", "DoD", "", ""),
        ("people", "Alice Smith", "Bob Jones", "", ""),
    ):
        assert w._decide(*args) == v._decide(*args)
    w._decide("people", "Alice Smith", "Bob Jones", "", "")
    assert w._decide.cache_info().hits >= 1


def test_pipeline_and_review_queue(ray_session, tmp_path):
    from hinbox_ray.sources.pages import generate_pages_table
    from hinbox_ray.stages.extract import extract_and_filter
    from hinbox_ray.stages.mentions import extract_mentions
    from hinbox_ray.stages.resolve import raw_entities

    pages = rd.from_arrow(generate_pages_table(120))
    mentions = extract_mentions(
        extract_and_filter(pages), concurrency=2
    ).materialize()
    raw = raw_entities(mentions).materialize()
    pairs = candidate_pairs_with_meta(raw)
    verdicts = verify_pairs(pairs).materialize()
    vd = verdicts.to_pandas()
    assert set(vd["verdict"]).issubset({MATCH, SKIP, DEFER})
    # every accepted resolution edge shows up as MATCH here
    assert (vd["verdict"] == MATCH).sum() > 0
    q = tmp_path / "review.jsonl"
    n = write_review_queue(verdicts, str(q))
    if n:
        lines = [json.loads(x) for x in q.read_text().splitlines()]
        assert all(l["verdict"] == DEFER for l in lines)
        assert len(lines) == n


def _split_qahtani_cls():
    """Forced-verdict stub: refuses the al-Qahtani/al-Kahtani merge.
    Built inside a function so cloudpickle ships it BY VALUE — a
    test-module top-level class pickles by reference and Ray workers
    (which cannot import the tests module) would hang on actor start."""

    class _SplitQahtani(PairVerifier):
        def _decide_uncached(self, entity_type, name_a, name_b, sa, sb, aa="", ab=""):
            if {name_a, name_b} == {"Mohammed al-Qahtani", "Mohammed al-Kahtani"}:
                return SKIP
            return super()._decide_uncached(
                entity_type, name_a, name_b, sa, sb, aa, ab
            )

    return _SplitQahtani


def _merge_all_defers_cls():
    class _MergeAllDefers(PairVerifier):
        def _decide_uncached(self, entity_type, name_a, name_b, sa, sb, aa="", ab=""):
            v = super()._decide_uncached(
                entity_type, name_a, name_b, sa, sb, aa, ab
            )
            return DEFER if v == SKIP else v

    return _MergeAllDefers


def test_forced_skip_verdict_splits_merge(ray_session):
    """The verdict GATES the merge (reference dispute-override
    semantics): a SKIP verdict on a would-be match provably splits the
    entity cluster."""
    from hinbox_ray.pipelines.kg import build_kg
    from hinbox_ray.sources.pages import generate_pages_table

    pages_tbl = generate_pages_table(200)

    base = build_kg(rd.from_arrow(pages_tbl), concurrency=2)
    ents = base.entities.to_pandas()

    def eid_of(df, name):
        hit = df[df["name"] == name]
        if len(hit):
            return set(hit["entity_id"])
        # the name may have been absorbed as an alias of its cluster
        return set(
            df[df["aliases"].str.contains(name, regex=False)]["entity_id"]
        )

    # default verifier merges the transliteration pair into one entity
    assert eid_of(ents, "Mohammed al-Qahtani") == eid_of(
        ents, "Mohammed al-Kahtani"
    ) or not eid_of(ents, "Mohammed al-Kahtani")

    split = build_kg(
        rd.from_arrow(pages_tbl),
        concurrency=2,
        verifier_cls=_split_qahtani_cls(),
    )
    sents = split.entities.to_pandas()
    a = eid_of(sents, "Mohammed al-Qahtani")
    b = eid_of(sents, "Mohammed al-Kahtani")
    assert a and b and a != b, (a, b)
    assert len(sents) == len(ents) + 1  # exactly one extra entity
    # stats reflect the gate: fewer merged pairs, same proposal count
    assert split.merge_stats.merged < base.merge_stats.merged
    assert split.merge_stats.new == base.merge_stats.new + 1


def test_defer_policy_merge(ray_session):
    """defer_policy='merge' resolves every dispute as a merge → at most
    as many entities as the default run (reference MergeDisputeAction
    semantics)."""
    from hinbox_ray.pipelines.kg import build_kg
    from hinbox_ray.sources.pages import generate_pages_table

    pages_tbl = generate_pages_table(150)
    base = build_kg(rd.from_arrow(pages_tbl), concurrency=2)
    merged = build_kg(
        rd.from_arrow(pages_tbl),
        concurrency=2,
        verifier_cls=_merge_all_defers_cls(),
        defer_policy="merge",
    )
    assert merged.entities.count() <= base.entities.count()
    assert merged.merge_stats.disputed >= 0


def test_merge_stats_emitted(ray_session):
    from hinbox_ray.pipelines.kg import build_kg
    from hinbox_ray.sources.pages import generate_pages_table

    res = build_kg(
        rd.from_arrow(generate_pages_table(100)), concurrency=2
    )
    s = res.merge_stats
    assert s is not None and s.new == res.entities.count()
    vd = res.verdicts.to_pandas()
    assert s.merged == (vd["verdict"] == MATCH).sum()
    assert s.skipped == (vd["verdict"] == SKIP).sum()
    assert s.disputed == (vd["verdict"] == DEFER).sum()
    assert s.total == s.new + s.merged + s.skipped + s.disputed + s.errors


def test_raw_entities_small_and_bucketed_paths_match(ray_session):
    """The size-gated single-task reduce must equal the bucketed
    groupby path exactly (same gate pattern as CC/minhash)."""
    import ray.data as rd

    from hinbox_ray.sources.pages import generate_pages_table
    from hinbox_ray.stages.cogroup import bucketed_map_groups
    from hinbox_ray.stages.extract import extract_and_filter
    from hinbox_ray.stages.mentions import extract_mentions
    from hinbox_ray.stages.resolve import (
        _KEY_COLS,
        _combine_batch,
        _regroup,
        raw_entities,
    )

    mentions = extract_mentions(
        extract_and_filter(rd.from_arrow(generate_pages_table(200))),
        concurrency=2,
    ).materialize()
    small = raw_entities(mentions).to_pandas()
    combined = mentions.map_batches(
        _combine_batch, batch_format="pandas", batch_size=None
    )
    bucketed = bucketed_map_groups(combined, _KEY_COLS, _regroup).to_pandas()
    key = ["entity_type", "name", "attr_type", "start_date"]
    a = small.sort_values(key).reset_index(drop=True)
    b = bucketed.sort_values(key).reset_index(drop=True)
    assert a.equals(b)
    assert len(a) > 0
