"""Source-level checks over the non-test modules."""

from __future__ import annotations

import pathlib
import re
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _modules():
    return sorted(
        [
            *ROOT.glob("hinbox_ray/**/*.py"),
            ROOT / "__ray_entry__.py",
            ROOT / "bench.py",
            *ROOT.glob("scripts/*.py"),
        ]
    )


def test_modules_compile_without_warnings():
    """An invalid escape such as ``'\\s'`` in a plain literal warns at
    compile time today and becomes an error in a later Python."""
    for path in _modules():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def _hits(pattern: str, exempt=()):
    rx = re.compile(pattern)
    return [
        f"{path.relative_to(ROOT)}:{i}"
        for path in _modules()
        if path not in {ROOT / e for e in exempt}
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if rx.search(line)
    ]


def test_only_cogroup_tags_and_buckets_sides():
    """Two-sided exchanges go through ``stages.cogroup.cogroup``: no
    other module adds the bucket column or a ``_src`` side marker."""
    marker = r"_gbucket|[\"']_src[\"']"
    assert _hits(marker, exempt=["hinbox_ray/stages/cogroup.py"]) == []


def test_no_per_group_map_groups():
    """Keyed groupings go through ``stages.cogroup.bucket_exchange``
    (one kernel call per shuffle block), never Ray's
    ``groupby(...).map_groups``."""
    assert _hits(r"\.map_groups\(") == []


def test_only_cogroup_computes_shuffle_buckets():
    """The bucket hash of an exchange is decided in one place: callers
    pass key columns, not bucket columns."""
    assert _hits(r"\bkey_buckets\(", exempt=["hinbox_ray/stages/cogroup.py"]) == []


def test_one_resolution_tail():
    """``build_kg`` and the resume path share one resolution tail,
    ``pipelines.kg.resolve_mentions``: no other module calls its
    stages (definitions excepted)."""
    stages = (
        r"(?<!def )\b(canonical_entities|candidate_edges_with_verdicts"
        r"|range_sorted_triples)\("
    )
    assert _hits(stages, exempt=["hinbox_ray/pipelines/kg.py"]) == []


def test_one_graph_writer():
    """``pipelines.kg.write_kg`` is the only writer of a graph's
    ``triples/``: no other module names that path."""
    assert _hits(r"[\"']triples[\"']", exempt=["hinbox_ray/pipelines/kg.py"]) == []
