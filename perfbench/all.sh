#!/bin/sh
# Every workload for one seed, each in its own process:
#   sh perfbench/all.sh SEED [SECONDS] [TRACE]
# Exits non-zero if any workload fails its checks.
set -u
seed=${1:?usage: all.sh SEED [SECONDS] [TRACE]}
seconds=${2:-20}
trace=${3:-0}
status=0
for workload in lasso_desk classification sweep_regimes; do
    echo "## $workload"
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
done
exit $status
