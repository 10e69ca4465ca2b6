#!/usr/bin/env bash
# Compares the rows of one trackers-experiment cell with the canonical
# rows in EXPERIMENTS.md's trackers section, and fails on any difference.
# Column padding is normalised (tabwriter pads to the widest cell of the
# rows rendered, which differs between one cell and the full grid); every
# value must match exactly.
#
#   go run ./cmd/hemem-bench -exp trackers -tracker T -policy P > out.txt
#   scripts/trackers-canonical.sh T P out.txt
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 TRACKER POLICY OUTPUT" >&2
	exit 2
fi
tracker=$1 policy=$2 output=$3
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

rows() {
	awk -v t="$tracker" -v p="$policy" \
		'($1 == "GUPS" || $1 == "FlexKVS") && $2 == t && $3 == p { $1 = $1; print }'
}

want=$(awk '/^### Extension — tracker × policy/ { on = 1; next } /^###/ { on = 0 } on' \
	"$root/EXPERIMENTS.md" | rows)
got=$(rows < "$output")

if [ -z "$want" ]; then
	echo "no canonical rows for $tracker+$policy in EXPERIMENTS.md" >&2
	exit 1
fi
if [ "$got" != "$want" ]; then
	echo "$tracker+$policy differs from its canonical rows in EXPERIMENTS.md" >&2
	diff <(echo "$want") <(echo "$got") >&2 || true
	exit 1
fi
echo "$tracker+$policy matches its canonical rows:"
echo "$got"
