#!/usr/bin/env python
"""Audit a written ``triples/`` directory (``pipelines.kg.write_kg``,
from ``build_kg``, ``resolve_from_checkpoint`` or
``python -m hinbox_ray``): the range layout an operator checks after a
resumed run before trusting the output.

    python scripts/validate_shards.py <out>/triples

Checks, over the ``*.parquet`` files in file-name order:

1. **sorted and distinct**: rows strictly increase by (subj, pred, obj)
   within each file;
2. **subject ranges**: each file's first subject is greater than the
   previous file's last subject, so rows strictly increase across files
   and no subject is in two files: every file is an independently
   consumable range;
3. **no empty file**, unless the graph is empty (then one empty file).

Prints one JSON line and exits non-zero on any violation. Pure pyarrow,
no Ray session required.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

import pyarrow.parquet as pq


def validate_triples_dir(triples_dir: str) -> dict:
    """Audit every file under ``triples_dir``. Returns ``{"ok": bool,
    "files": int, "rows": int, "errors": [...]}``."""
    errors: List[str] = []
    files = sorted(f for f in os.listdir(triples_dir) if f.endswith(".parquet"))
    if not files:
        errors.append(f"no parquet files under {triples_dir}")
    rows = 0
    last = None  # (file, last row) of the previous non-empty file
    for f in files:
        t = pq.read_table(os.path.join(triples_dir, f), columns=["subj", "pred", "obj"])
        key = list(zip(*(t.column(c).to_pylist() for c in ("subj", "pred", "obj"))))
        rows += len(key)
        if not key:
            if len(files) > 1:
                errors.append(f"{f}: empty file beside other range files")
            continue
        bad = next((i for i in range(1, len(key)) if not key[i - 1] < key[i]), None)
        if bad is not None:
            errors.append(f"{f}: rows not sorted and distinct at row {bad}")
        if last is not None and not last[1][0] < key[0][0]:
            errors.append(
                f"{f}: starts at subject {key[0][0]!r}, not after "
                f"{last[0]}'s last subject {last[1][0]!r}"
            )
        last = (f, key[-1])
    return {"ok": not errors, "files": len(files), "rows": rows, "errors": errors}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("triples_dir", help="path to a written triples/ dir")
    report = validate_triples_dir(ap.parse_args().triples_dir)
    print(json.dumps(report, sort_keys=True))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
