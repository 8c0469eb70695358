#!/usr/bin/env bash
# Cluster submission entry point (north_rule: "run via ray job submit on a
# fixed-size multi-node Ray cluster at two cluster sizes").
#
# In this sandbox Ray runs local-only, so this script documents and smoke-runs
# the exact submission the production path uses; on a real cluster only
# RAY_ADDRESS changes (e.g. http://head:8265).
#
#   ./scripts/submit_job.sh [SF_DIR] [OUT_DIR]
#
# The job = the flagship pipeline via the CLI (owns its Ray session); output
# is resumable keyed partitions with lineage manifests, so re-submitting the
# same job after a failure skips completed partitions.
set -euo pipefail
SF_DIR="${1:-/root/testdata/sf0.001}"
OUT_DIR="${2:-/tmp/graft_job_out}"

if command -v ray >/dev/null && [ -n "${RAY_JOB_SUBMIT:-}" ]; then
    # real cluster path (requires a running head node / dashboard)
    exec ray job submit --working-dir "$(cd "$(dirname "$0")/.." && pwd)" -- \
        python -m shapefile_rs_ray.cli flagship --sf "$SF_DIR" --out "$OUT_DIR"
fi
# sandbox path: same entry point, local session
exec python -m shapefile_rs_ray.cli flagship --sf "$SF_DIR" --out "$OUT_DIR"
