#!/usr/bin/env bash
# check-run-pattern.sh [-bench] '<pattern>' <packages...>
#
# `go test -run` and `-bench` exit 0 when their pattern matches nothing,
# so a focused CI job goes quiet — and stays green — the day its tests or
# benchmarks are renamed or deleted. This fails unless EVERY top-level
# alternation branch of the pattern selects at least one test, fuzz
# target or example in the given packages — or, with -bench, at least
# one benchmark.
set -euo pipefail
kinds='^(Test|Fuzz|Example)'
what=test
if [ "$1" = -bench ]; then
	kinds='^Benchmark'
	what=benchmark
	shift
fi
pattern=$1
shift
names=$(go test -list "$pattern" "$@" | grep -E "$kinds" || true)
status=0
IFS='|' read -ra branches <<<"$pattern"
for branch in "${branches[@]}"; do
	if ! grep -Eq -- "$branch" <<<"$names"; then
		echo "pattern branch '$branch' selects no $what in: $*" >&2
		status=1
	fi
done
exit $status
