#!/usr/bin/env bash
# clang-format gate (the format-check CI job).
#
# Checks the files in the allowlist below against the repo .clang-format
# with `clang-format --dry-run -Werror`.  The list is an explicit
# ratchet: legacy files join it as they are cleaned up, so the gate can
# land without a repo-wide reformat churning every open change.  New
# files should be added here in the PR that creates them.
#
# Usage: scripts/check_format.sh [clang-format-binary]
set -euo pipefail

cd "$(dirname "$0")/.."

CLANG_FORMAT="${1:-${CLANG_FORMAT:-clang-format}}"

# Files known to be clang-format clean under .clang-format.
ALLOWLIST=(
  src/core/metrics.h
  src/core/metrics.cpp
  src/energy/operand_power.h
  src/energy/operand_power.cpp
  tests/test_metrics.cpp
  tests/test_metrics_oracle.cpp
)

if ! command -v "$CLANG_FORMAT" >/dev/null 2>&1; then
  echo "check_format: '$CLANG_FORMAT' not found; skipping (install" \
       "clang-format to run the gate locally)" >&2
  exit 0
fi

echo "check_format: $($CLANG_FORMAT --version)"
status=0
for file in "${ALLOWLIST[@]}"; do
  if ! "$CLANG_FORMAT" --dry-run -Werror --style=file "$file"; then
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "check_format: formatting violations above; fix with:" >&2
  echo "  $CLANG_FORMAT -i --style=file <file>" >&2
fi
exit "$status"
