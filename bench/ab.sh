#!/usr/bin/env bash
# A/B-compares two revisions with this checkout's benchmark code:
#
#   bench/ab.sh <base-rev> <head-rev> [pairs=10] [seed=1]
#
# Each revision is checked out in a git worktree under $TMPDIR, gets this
# checkout's bench/ in place of its own (both sides must run identical
# benchmark code), and is built once. The pairs then alternate which side
# runs first; every run measures all workloads. The records go to
# base.jsonl and head.jsonl, which feed `bench -compare`. Its verdicts print
# to stderr; the exit status is 1 when a metric got worse.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <base-rev> <head-rev> [pairs=10] [seed=1]" >&2
	exit 2
fi
base=$1 head=$2 pairs=${3:-10} seed=${4:-1}
here=$(cd "$(dirname "$0")" && pwd)
repo=$(git -C "$here" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/numacs-ab.XXXXXX")
cleanup() {
	git -C "$repo" worktree remove --force "$work/base" 2>/dev/null || true
	git -C "$repo" worktree remove --force "$work/head" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

for side in base head; do
	rev=${!side}
	git -C "$repo" worktree add --detach --quiet "$work/$side" "$rev"
	rm -rf "$work/$side/bench"
	cp -R "$here" "$work/$side/bench"
	(cd "$work/$side/bench" && go build -o "$work/$side.bin" .)
done

for i in $(seq 1 "$pairs"); do
	order="base head"
	if [ $((i % 2)) -eq 0 ]; then
		order="head base"
	fi
	for side in $order; do
		echo "pair $i: $side" >&2
		"$work/$side.bin" -seed "$seed" >>"$work/$side.jsonl"
	done
done

"$work/head.bin" -compare "$work/base.jsonl" "$work/head.jsonl"
