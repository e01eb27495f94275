#!/usr/bin/env bash
# check-run-pattern.sh '<-run pattern>' <packages...>
#
# `go test -run` exits 0 when its pattern matches nothing, so a focused
# CI job goes quiet — and stays green — the day its tests are renamed or
# deleted. This fails unless EVERY top-level alternation branch of the
# pattern selects at least one test, fuzz target or example in the given
# packages (benchmarks do not count: -run does not run them).
set -euo pipefail
pattern=$1
shift
names=$(go test -list "$pattern" "$@" | grep -E '^(Test|Fuzz|Example)' || true)
status=0
IFS='|' read -ra branches <<<"$pattern"
for branch in "${branches[@]}"; do
	if ! grep -Eq -- "$branch" <<<"$names"; then
		echo "-run branch '$branch' selects no test in: $*" >&2
		status=1
	fi
done
exit $status
