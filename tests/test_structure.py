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


def test_only_cogroup_tags_and_buckets_sides():
    """Two-sided exchanges go through ``stages.cogroup.cogroup``: no
    other module adds the bucket column or a ``_src`` side marker."""
    marker = re.compile(r"_gbucket|[\"']_src[\"']")
    hits = [
        f"{path.relative_to(ROOT)}:{i}"
        for path in _modules()
        if path != ROOT / "hinbox_ray/stages/cogroup.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if marker.search(line)
    ]
    assert hits == []
