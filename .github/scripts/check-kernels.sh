#!/usr/bin/env bash
# check-kernels.sh — run from the root of the module.
#
# Keeps two properties of the hot path that no test sees, because
# neither changes a result, only what each record costs:
#
#  (a) The sampling kernels index hoisted column slices, so the compiler
#      leaves no bounds check inside a loop that runs once per record.
#      Such loops carry a `// per record` comment on their `for` line,
#      and each function below must have one. A check the compiler
#      reports (-d=ssa/check_bce/debug=1) on a line inside a marked
#      loop fails, except one check on a line ending in `// slot store`:
#      the reservoir's store of a drawn item into its slot, or into the
#      spare slot past capacity when the draw rejects it.
#  (b) The merge path keeps its scratch buffers on the stack: nothing in
#      internal/query or internal/estimate is "moved to heap" (-m).
#  (c) The frame walkers every produced, replicated and fetched chunk
#      passes through parse into a storage.Frame of their own that stays
#      on the stack, and the serving tier files a shard's pane and
#      publishes a merged window without copying either to the heap:
#      nothing inside the functions below is "moved to heap" (-m). A
#      Frame that points into itself, one handed to an iterator's yield,
#      or a pointer kept to a by-value parameter would cost an allocation
#      per call.
set -euo pipefail

# file:function — the loops every sampled record passes through: the
# segment scan, and OASRS's one loop (stratum lookup, fill or keyed
# draw); beside them Reservoir's loop, the same step for one reservoir.
kernels=(
	internal/pane/sampler.go:Push
	internal/sampling/oasrs.go:AddBatch
	internal/sampling/reservoir.go:AddBatch
)

# file:function — the functions of (c): the frame walkers, and the
# merger filing a pane and the job publishing a window.
onstack=(
	internal/broker/storage/frames.go:ValidateFrames
	internal/broker/storage/frames.go:frameSpans
	internal/broker/codec.go:framesToBatch
	internal/server/merge.go:add
	internal/server/job.go:emitLocked
)

# funcLines prints the line numbers of function fn in file, from its
# func line to its closing brace.
funcLines() {
	awk -v fn="$2" '
		!infn && $0 ~ "^func (\\([^)]*\\) )?" fn "\\(" { infn = 1 }
		infn { print NR; if ($0 ~ /^}/) { infn = 0; found = 1 } }
		END { if (!found) exit 1 }
	' "$1"
}

# perRecordLines prints the line numbers inside the marked loops of
# function fn in file: from each marked `for` line to its closing brace,
# counting braces outside // comments.
perRecordLines() {
	awk -v fn="$2" '
		function depth(s) { sub(/\/\/.*/, "", s); return gsub(/{/, "{", s) - gsub(/}/, "}", s) }
		!infn && $0 ~ "^func (\\([^)]*\\) )?" fn "\\(" { infn = 1; fdepth = 0 }
		infn {
			if (!inloop && $0 ~ /^[ \t]*for .*\/\/ per record$/) { inloop = 1; ldepth = 0; marked++ }
			if (inloop) { print NR; ldepth += depth($0); if (ldepth == 0) inloop = 0 }
			fdepth += depth($0)
			if (fdepth == 0 && $0 ~ /^}/) { infn = 0 }
		}
		END { if (!marked) exit 1 }
	' "$1"
}

# build prints what the compiler reports building the given packages and
# fails when they do not build: a report that is empty because nothing
# was compiled proves nothing.
build() {
	local out
	if ! out=$(go build "$@" 2>&1); then
		echo "$out" >&2
		exit 1
	fi
	echo "$out"
}

status=0
report=$(build -gcflags=-d=ssa/check_bce/debug=1 ./internal/pane ./internal/sampling)
report=$(grep 'Found Is' <<<"$report" || true)
for k in "${kernels[@]}"; do
	file=${k%%:*} fn=${k##*:}
	if ! lines=$(perRecordLines "$file" "$fn"); then
		echo "$file: $fn has no loop marked // per record" >&2
		status=1
		continue
	fi
	for n in $lines; do
		checks=$(grep -c "^$file:$n:" <<<"$report" || true)
		[ "$checks" -eq 0 ] && continue
		if [ "$checks" -eq 1 ] && sed -n "${n}p" "$file" | grep -q '// slot store$'; then
			continue
		fi
		grep "^$file:$n:" <<<"$report" | sed 's/$/ (per-record loop of '"$fn"')/' >&2
		status=1
	done
done

heap=$(build -gcflags=-m ./internal/query ./internal/estimate)
heap=$(grep 'moved to heap' <<<"$heap" || true)
if [ -n "$heap" ]; then
	echo "$heap" >&2
	status=1
fi

heap=$(build -gcflags=-m ./internal/broker/storage ./internal/broker ./internal/server)
heap=$(grep 'moved to heap' <<<"$heap" || true)
for w in "${onstack[@]}"; do
	file=${w%%:*} fn=${w##*:}
	if ! lines=$(funcLines "$file" "$fn"); then
		echo "$file: no function $fn" >&2
		status=1
		continue
	fi
	for n in $lines; do
		if grep "^$file:$n:" <<<"$heap" | sed 's/$/ (in '"$fn"')/' >&2; then
			status=1
		fi
	done
done
exit $status
