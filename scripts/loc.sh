#!/usr/bin/env bash
# Prints the code-size numbers ROADMAP.md tracks: non-test Go lines
# outside the benchmark/ module, and the share of them under internal/.
# Counts physical lines (comments and blanks included) of tracked and untracked, non-ignored files.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files() { git ls-files --cached --others --exclude-standard -- '*.go' | grep -v '_test\.go$' | grep -v '^benchmark/' || true; }

total=$(files | xargs -r cat | wc -l)
internal=$(files | grep '^internal/' | xargs -r cat | wc -l)
echo "non-test Go lines outside benchmark/: $total"
echo "non-test Go lines under internal/:    $internal"
