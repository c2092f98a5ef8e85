#!/usr/bin/env bash
# Cluster entry point (north rule: "run via ray job submit on a
# fixed-size multi-node Ray cluster").
#
#   RAY_ADDRESS=http://<head>:8265 ./scripts/submit_job.sh \
#       s3://bucket/pages/ s3://bucket/kg-out/
#
# The driver joins the cluster it was submitted to (the CLI calls
# ray.init() with no address). --resume makes re-submission after a
# failure skip finished input shards via the lineage manifests; the
# triples are written in the range layout (one sorted file per subject
# range). The same command runs single-node with RAY_ADDRESS=local.
set -euo pipefail
PAGES="${1:?usage: submit_job.sh <pages-parquet-dir> <out-dir>}"
OUT="${2:?usage: submit_job.sh <pages-parquet-dir> <out-dir>}"
exec ray job submit --working-dir "$(dirname "$0")/.." -- \
    python -m hinbox_ray --pages "$PAGES" --out "$OUT" \
    --resume
