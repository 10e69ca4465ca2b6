#!/usr/bin/env bash
# Prints the size numbers ROADMAP.md tracks: non-test Go lines outside
# the benchmark/ module, the share of them under internal/, the count of
# non-test init functions there (0: every table is a literal), and the
# count of settable knobs: exported fields of the three config structs,
# of machine.TierDesc, whose fields every tier table row sets, and of
# the five workload drivers' configs, plus the hemem-bench flags; then
# the same count with the fault injector's two config structs added.
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
inits=$(files | xargs -r cat | grep -c '^func init()' || true)
echo "non-test init functions:              $inits"

# fields FILE TYPE counts the exported field names declared at the top
# level of struct TYPE in FILE ("A, B float64" counts two).
fields() {
	awk -v t="$2" '
		$0 ~ "^type " t " struct \\{" { in_struct = 1; next }
		in_struct && /^}/ { in_struct = 0 }
		in_struct && match($0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)* /) {
			names = substr($0, RSTART, RLENGTH)
			n += gsub(/,/, ",", names) + 1
		}
		END { print n + 0 }
	' "$1"
}

machine=$(fields internal/machine/machine.go Config)
tierdesc=$(fields internal/machine/machine.go TierDesc)
core=$(fields internal/core/hemem.go Config)
opts=$(fields internal/bench/bench.go Opts)
flags=$(grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/hemem-bench/main.go)
gupscfg=$(fields internal/gups/gups.go Config)
kvscfg=$(fields internal/kvs/driver.go DriverConfig)
tpcccfg=$(fields internal/tpcc/driver.go DriverConfig)
gapcfg=$(fields internal/gap/driver.go DriverConfig)
diurnalcfg=$(fields internal/diurnal/diurnal.go Config)
workloads=$((gupscfg + kvscfg + tpcccfg + gapcfg + diurnalcfg))
echo "settable knobs:                       $((machine + tierdesc + core + opts + flags + workloads))" \
	"(machine.Config $machine, machine.TierDesc $tierdesc, core.Config $core," \
	"bench.Opts $opts, hemem-bench flags $flags, workload configs $workloads:" \
	"gups $gupscfg, kvs $kvscfg, tpcc $tpcccfg, gap $gapcfg, diurnal $diurnalcfg)"
faultcfg=$(fields internal/fault/fault.go Config)
chaoscfg=$(fields internal/fault/chaos.go ChaosConfig)
echo "settable knobs with fault:            $((machine + tierdesc + core + opts + flags + workloads + faultcfg + chaoscfg))" \
	"(fault.Config $faultcfg, fault.ChaosConfig $chaoscfg)"
