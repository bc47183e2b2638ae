#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of standard output is the JSON summary
#   bash benchmark/run.sh <seed>
#       every workload for 20 s untraced and then traced, printing all
#       lines; each traced run follows the untraced run of its workload and
#       also prints trace_overhead_pct against it
#
# Everything the build and the runs write goes under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, the untraced runs'
# output and the traced runs' spans.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The benchmark module resolves vbrsim to the checkout root (replace ../ in
# go.mod); without the repository's sources around it the build fails here.
(cd "$here" && go build -o "$out/vbrbench" .) >&2

cd "$root"
if [[ $# -eq 1 && $1 =~ ^[0-9]+$ ]]; then
	for w in stream-long stream-short step-fleet session-churn; do
		"$out/vbrbench" -workload "$w" -seed "$1" -seconds 20 -trace 0 | tee "$out/untraced-$w-$1.jsonl"
		"$out/vbrbench" -workload "$w" -seed "$1" -seconds 20 -trace 1 -baseline "$out/untraced-$w-$1.jsonl"
	done
else
	exec "$out/vbrbench" "$@"
fi
