"""End-to-end KG pipeline tests: resolution fidelity + the P/R gate."""

import os

import pyarrow as pa
import pytest

from hinbox_ray.sources.pages import generate_pages_table

N_DOCS = 400


@pytest.fixture(scope="module")
def kg(ray_session):
    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg

    pages = rd.from_arrow(generate_pages_table(N_DOCS))
    res = build_kg(pages, concurrency=2, batch_size=128)
    return {
        "triples": res.triples.to_pandas(),
        "entities": res.entities.to_pandas(),
    }


def test_triples_sorted_and_unique(kg):
    t = kg["triples"]
    rows = list(zip(t["subj"], t["pred"], t["obj"]))
    assert rows == sorted(rows)
    assert len(rows) == len(set(rows))


def test_acronym_and_equivalence_merges(kg):
    ents = kg["entities"]
    names = set(ents["name"])
    # ICE merged into its full form; FBI/CIA likewise
    assert "Immigration and Customs Enforcement" in names
    assert "ICE" not in names
    # Pentagon / DoD / Department of Defense are one entity
    dod = ents[ents["name"].isin(["Pentagon", "Department of Defense", "DoD"])]
    assert len(dod) == 1
    # GTMO group is one location
    gtmo = ents[ents["name"].isin(["Guantanamo Bay", "GTMO", "Guantánamo"])]
    assert len(gtmo) == 1


def test_must_not_merge_pairs(kg):
    ents = kg["entities"]
    names = list(ents["name"])
    # same-surname distinct people stay distinct
    assert sum(n.endswith("Miller") for n in names) == 2
    # sub-locations stay distinct
    assert "Camp Delta" in names and "Camp Echo" in names
    # low-quality generic stays separate from Department of Defense
    assert "defense departments" in names
    # same title, different date → two events
    csrt = ents[
        (ents["entity_type"] == "events")
        & (ents["name"] == "Combatant Status Review Tribunal hearing")
    ]
    assert set(csrt["start_date"]) == {"2004-07-30", "2005-03-15"}


def test_transliteration_people_merge(kg):
    ents = kg["entities"]
    q = ents[ents["name"].str.contains("al-Qahtani|al-Kahtani")]
    by_cluster = q[q["entity_type"] == "people"]
    # Mohammed variants merged; Jamal separate
    assert len(by_cluster) == 2


def test_mentioned_in_triples_reference_real_urls(kg):
    t = kg["triples"]
    m = t[t["pred"] == "mentioned_in"]
    assert len(m) > 0
    assert m["obj"].str.startswith("https://example.org/crawl/").all()
    # one link per (entity, url)
    assert not m.duplicated(["subj", "obj"]).any()


def test_precision_recall_vs_reference_oracle(kg):
    from hinbox_ray.pipelines.oracle import precision_recall, reference_triples

    pages_t = generate_pages_table(N_DOCS)
    oracle = reference_triples(pages_t)
    engine = pa.Table.from_pandas(kg["triples"])
    pr = precision_recall(engine, oracle)
    assert pr["precision"] >= 0.95, pr
    assert pr["recall"] >= 0.95, pr


def test_deterministic_across_runs(ray_session, kg):
    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg

    pages = rd.from_arrow(generate_pages_table(N_DOCS))
    res2 = build_kg(pages, concurrency=2, batch_size=64)
    t2 = res2.triples.to_pandas()
    t1 = kg["triples"]
    assert list(zip(t1["subj"], t1["pred"], t1["obj"])) == list(
        zip(t2["subj"], t2["pred"], t2["obj"])
    )


def test_write_kg_partitioned_roundtrip(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg, write_kg
    from hinbox_ray.sources.pages import generate_pages_table

    from hinbox_ray.stages.canonical import ENTITIES_SCHEMA, TRIPLES_SCHEMA

    res = build_kg(rd.from_arrow(generate_pages_table(60)))
    out = write_kg(res, str(tmp_path))
    tri = pq.read_table(out["triples_dir"])
    assert tri.schema.remove_metadata() == TRIPLES_SCHEMA
    assert tri.num_rows == out["n_triples"] == res.triples.count()
    ents = pq.read_table(out["entities_dir"])
    assert ents.schema.remove_metadata() == ENTITIES_SCHEMA.remove(
        ENTITIES_SCHEMA.get_field_index("member_nodes")
    )
    assert ents.num_rows == res.entities.count()
    assert sorted(os.listdir(tmp_path)) == ["entities", "merge_stats.json", "triples"]


def _pages(html: bytes, n: int = 1) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([f"https://one.example/{i:05d}" for i in range(n)]),
            "warc_ts": pa.array(
                [1_600_000_000_000_000 + i for i in range(n)],
                type=pa.timestamp("us"),
            ),
            "html": pa.array([html] * n, type=pa.binary()),
            "text": pa.array([""] * n),
            "lang": pa.array(["en"] * n),
        }
    )


def test_one_subject_graph(ray_session, tmp_path, audit_triples):
    """A graph with one subject leaves the range sort's second output
    range empty; every triple block still has the triple schema, so the
    blocks concatenate, and write_kg writes one sorted, distinct file."""
    import ray
    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg, write_kg
    from hinbox_ray.stages.canonical import TRIPLES_SCHEMA

    html = b"<html><body><article><p>The FBI said nothing.</p></article></body></html>"
    res = build_kg(rd.from_arrow(_pages(html, 3)), concurrency=1)
    assert res.entities.count() == 1
    blocks = ray.get(res.triples.to_arrow_refs())
    assert all(b.schema == TRIPLES_SCHEMA for b in blocks)
    rows = pa.concat_tables(blocks).to_pylist()
    assert len({r["subj"] for r in rows}) == 1
    out = write_kg(res, str(tmp_path))
    rep = audit_triples(out["triples_dir"])
    assert rep["ok"], rep["errors"]
    assert rep["files"] == 1 and rep["rows"] == out["n_triples"] == len(rows)


def test_write_kg_zero_mentions(ray_session, tmp_path):
    """Pages with no entity names: build_kg → write_kg leaves triples
    and entities directories that read back as zero typed rows."""
    import json

    import pyarrow.parquet as pq
    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg, write_kg
    from hinbox_ray.stages.canonical import ENTITIES_SCHEMA, TRIPLES_SCHEMA

    html = b"<html><body><article><p>nothing to see here.</p></article></body></html>"
    out = write_kg(build_kg(rd.from_arrow(_pages(html, 4))), str(tmp_path))
    tri = pq.read_table(out["triples_dir"])
    assert tri.num_rows == out["n_triples"] == 0
    assert tri.schema.remove_metadata() == TRIPLES_SCHEMA
    ents = pq.read_table(out["entities_dir"])
    assert ents.num_rows == 0
    assert ents.schema.remove_metadata() == ENTITIES_SCHEMA.remove(
        ENTITIES_SCHEMA.get_field_index("member_nodes")
    )
    with open(tmp_path / "merge_stats.json") as f:
        assert json.load(f)["total"] == 0


def test_sorted_triples_are_globally_distinct(ray_session, monkeypatch):
    """Dedup-after-sort correctness: with the salted dedup shuffle
    removed, the post-sort adjacent-distinct pass must leave no
    duplicate (subj, pred, obj) anywhere — including across block
    boundaries. The corpus plants the same entity via BOTH name
    variants in every doc, the worst case for mentioned_in dups."""
    import pyarrow as pa
    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg

    n = 400
    html = (
        "<html><body><article><p>Mohammed al-Qahtani and Mohammed "
        "al-Kahtani and the FBI and the Federal Bureau of Investigation "
        "met at Guantanamo Bay near GTMO.</p></article></body></html>"
    ).encode()
    pages = pa.table(
        {
            "url": pa.array([f"https://dup.example/{i:05d}" for i in range(n)]),
            "warc_ts": pa.array([1_600_000_000_000_000 + i for i in range(n)],
                                type=pa.timestamp("us")),
            "html": pa.array([html] * n, type=pa.binary()),
            "text": pa.array([""] * n),
            "lang": pa.array(["en"] * n),
        }
    )
    res = build_kg(rd.from_arrow(pages), concurrency=2)
    df = res.triples.to_pandas()
    assert len(df) == len(df.drop_duplicates(["subj", "pred", "obj"]))
    # every doc linked exactly once per canonical entity
    m = df[df["pred"] == "mentioned_in"]
    per_pair = m.groupby(["subj", "obj"]).size()
    assert (per_pair == 1).all()
    # the variant pairs truly merged (worst case exercised)
    n_people = len(res.entities.to_pandas().query("entity_type == 'people'"))
    assert n_people == 1
    # the salted co-group branch (taken above BROADCAST_NODE_ROWS)
    # links exactly the (entity, url) pairs of the broadcast lookup;
    # both finish distinctness per block downstream, so compare sets
    from hinbox_ray.stages import canonical

    nmap = canonical.node_map(res.entities).materialize()
    by_path = []
    for t in (5_000_000, 0):
        monkeypatch.setattr(canonical, "BROADCAST_NODE_ROWS", t)
        by_path.append(
            set(
                canonical.mention_triples(res.mentions, nmap)
                .to_pandas()[["subj", "pred", "obj"]]
                .itertuples(index=False, name=None)
            )
        )
    assert by_path[0] == by_path[1]
    assert by_path[0] == set(
        m[["subj", "pred", "obj"]].itertuples(index=False, name=None)
    )


def test_raw_entities_empty_corpus(ray_session):
    """ADVICE r3: a zero-mention corpus must reduce to a typed empty
    raw-entities frame, not crash on pd.concat([])."""
    import ray.data as rd

    from hinbox_ray.stages.mentions import MENTIONS_SCHEMA
    from hinbox_ray.stages.resolve import raw_entities

    empty = rd.from_arrow(MENTIONS_SCHEMA.empty_table())
    out = raw_entities(empty)
    assert out.count() == 0
    # the DATASET schema stays typed (to_pandas drops columns on 0 rows)
    names = out.schema().names
    assert "node_id" in names and "n_mentions" in names


def test_checkpoint_mentions_boundary_equivalent(ray_session, tmp_path):
    """The parquet mention checkpoint (round-5 scale fix for the 20M
    object-store spill) must produce the identical graph to the plasma
    materialize, and leave the checkpoint on disk for resume."""
    import os

    from hinbox_ray.pipelines.kg import build_kg
    from hinbox_ray.sources.planted import planted_pages_dataset

    sf = "/root/testdata/sf0.001"
    base = build_kg(planted_pages_dataset(sf)).triples.take_all()
    ckpt = build_kg(
        planted_pages_dataset(sf),
        checkpoint_mentions=True,
        checkpoint_dir=str(tmp_path),
    ).triples.take_all()
    assert base == ckpt
    files = os.listdir(tmp_path / "mentions")
    assert any(f.endswith(".parquet") for f in files)


_TWO_CPU_RUN = """
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from hinbox_ray.pipelines.kg import build_kg
from hinbox_ray.sources.pages import pages_dataset

rows = build_kg(pages_dataset(sys.argv[1])).triples.take_all()
pq.write_table(pa.Table.from_pylist(rows), sys.argv[2])
ray.shutdown()
"""


def test_build_kg_finishes_at_two_cpus(ray_session, tmp_path):
    """At 2 CPUs the default extractor pool must leave a CPU for the
    read (a 2-actor pool never finished). The run gets its own Ray in
    its own process group, which is stopped whatever happens."""
    import os
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from __ray_entry__ import SF0001
    from hinbox_ray.pipelines.kg import build_kg
    from hinbox_ray.sources.pages import pages_dataset

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = str(tmp_path / "two_cpus.parquet")
    proc = subprocess.Popen(
        [sys.executable, "-c", _TWO_CPU_RUN, SF0001, out],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=root, RAY_USAGE_STATS_ENABLED="0"),
        start_new_session=True,
    )
    try:
        assert proc.wait(timeout=180) == 0
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    two = pq.read_table(out).to_pylist()
    four = build_kg(pages_dataset(SF0001)).triples.take_all()
    assert two == four


def _write_planted_triples(out_dir, audit, n_blocks=None):
    """Write the sf0.001 planted KG and check it with the range-layout
    audit; return its triple files' bytes in file-name order and all
    their rows in that order."""
    import glob

    import pyarrow.parquet as pq

    from __ray_entry__ import SF0001
    from hinbox_ray.pipelines.kg import build_kg, write_kg
    from hinbox_ray.sources.planted import planted_pages_dataset

    pages = planted_pages_dataset(SF0001)
    if n_blocks:
        pages = pages.repartition(n_blocks)
    tri_dir = write_kg(build_kg(pages), str(out_dir))["triples_dir"]
    files = sorted(glob.glob(os.path.join(tri_dir, "*.parquet")))
    rep = audit(tri_dir)
    assert rep["ok"], rep["errors"]
    blobs = [open(f, "rb").read() for f in files]
    rows = [
        r
        for t in (pq.read_table(f) for f in files)
        for r in zip(*(t.column(c).to_pylist() for c in ("subj", "pred", "obj")))
    ]
    return blobs, rows


def test_triple_files_identical_across_block_counts(
    ray_session, tmp_path, audit_triples
):
    """The written triple files are a function of the triple set:
    byte-identical in file-name order whatever the input block count."""
    default, _ = _write_planted_triples(tmp_path / "default", audit_triples)
    split, _ = _write_planted_triples(
        tmp_path / "split", audit_triples, n_blocks=7
    )
    assert default == split


def test_many_subject_ranges_exact_and_identical(
    ray_session, tmp_path, monkeypatch, audit_triples
):
    """With a range target small enough for several ranges: files stay
    byte-identical across input block counts, pass the range-layout
    audit (rows increase strictly across files in file-name order, no
    subject is in two files, no file is empty), and the rows equal the
    DuckDB triples oracle."""
    import duckdb
    import pyarrow.parquet as pq

    from __ray_entry__ import SF0001
    from hinbox_ray.pipelines import kg
    from hinbox_ray.sources.planted import triples_oracle_sql

    monkeypatch.setattr(kg, "COALESCE_ROWS", 300)
    default, rows = _write_planted_triples(tmp_path / "default", audit_triples)
    split, _ = _write_planted_triples(
        tmp_path / "split", audit_triples, n_blocks=7
    )
    assert len(default) >= 3
    assert default == split
    con = duckdb.connect()
    con.register(
        "documents",
        pq.read_table(f"{SF0001}/documents.parquet", columns=["doc_id"]),
    )
    oracle = con.execute(triples_oracle_sql()).fetchall()
    assert rows == sorted(set(oracle))
