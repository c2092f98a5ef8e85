"""Every oracle-backed query matches DuckDB on the same parquet at
sf0.001 — the in-repo mirror of the driver's correctness gate."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as E

SF = "/root/testdata/sf0.001"
TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", sorted(E.oracle_sql()))
def test_query_matches_oracle(ray_session, con, name):
    res = E.queries()[name](SF)
    mine = canon(res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res))
    theirs = canon(con.execute(E.oracle_sql()[name]).df())
    assert list(mine.columns) == list(theirs.columns)
    # dtype KIND must match too: the driver hashes values exactly, so an
    # int64 engine column vs a HUGEINT→float64 oracle column is a red
    # row even when the values are equal (round-1 events_sessionize)
    assert [d.kind for d in mine.dtypes] == [d.kind for d in theirs.dtypes], (
        f"dtype drift: {list(zip(mine.dtypes, theirs.dtypes))}"
    )
    pd.testing.assert_frame_equal(
        mine, theirs, check_dtype=False, check_exact=False, rtol=0, atol=1e-9
    )


def test_rows_only_queries_run(ray_session):
    qs = E.queries()
    oracles = E.oracle_sql()
    for name in qs:
        if name in oracles or name.startswith("kg_"):
            continue  # kg covered by test_kg_pipeline
        res = qs[name](SF)
        n = res.count() if hasattr(res, "count") else len(res)
        assert n >= 0


def test_pack_sequences_with_many_buckets_per_block(ray_session, tmp_path):
    """``doc_pack_sequences`` buckets docs by ``doc_id // bucket_rows``.
    The sf0.001 ids 0–499 make one bucket; spread 1000 apart they make
    ~120. Small blocks (~40 rows) split them over many shuffle blocks,
    each holding buckets in hash order, so a kernel that read one
    bucket's offset per call would misplace the other buckets' packs."""
    import pyarrow.parquet as pq
    from ray.data import DataContext

    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    docs["doc_id"] = docs["doc_id"] * 1000
    pq.write_table(
        pa.Table.from_pandas(docs, preserve_index=False),
        tmp_path / "documents.parquet",
    )
    ctx = DataContext.get_current()
    max_block = ctx.target_max_block_size
    ctx.target_max_block_size = 1024
    try:
        res = E.queries()["doc_pack_sequences"](str(tmp_path)).materialize()
    finally:
        ctx.target_max_block_size = max_block
    assert res.num_blocks() > 1
    mine = canon(res.to_pandas())
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    theirs = canon(c.execute(E.oracle_sql()["doc_pack_sequences"]).df())
    assert mine["pack_id"].nunique() > 1
    pd.testing.assert_frame_equal(mine, theirs, check_dtype=False)
