#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, or every one:
#
#   bash perfbench/run.sh --workload fedavg-cohort --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the binary
# and, for traced runs, the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ] && command -v git >/dev/null 2>&1; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
	export PERFBENCH_COMMIT
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

args=("$@") workload="" seed=0 trace=0
for ((i = 0; i < ${#args[@]} - 1; i++)); do
	case "${args[i]}" in
	--workload | -workload) workload=${args[i + 1]} ;;
	--seed | -seed) seed=${args[i + 1]} ;;
	--trace | -trace) trace=${args[i + 1]} ;;
	esac
done

# run_one runs one workload; a traced run writes its spans to a file named
# after the workload and seed.
run_one() {
	local extra=()
	if [ "$trace" = 1 ]; then
		extra=(-spans "$out/spans/$1-seed$seed.tsv")
	fi
	"$out/perfbench" "${args[@]}" -workload "$1" ${extra[@]+"${extra[@]}"}
}

if [ "$workload" != all ]; then
	run_one "$workload"
	exit
fi
status=0
for w in $("$out/perfbench" -list); do
	run_one "$w" || status=1
done
exit $status
