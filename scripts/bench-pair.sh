#!/usr/bin/env bash
# bench-pair.sh — paired benchmark runs of two revisions.
#
#   scripts/bench-pair.sh <rev-a> <rev-b> <workload> [pairs=10]
#
# Exports each revision with `git archive` into a temporary directory and
# runs `bash mpperf/run.sh --workload W --seed S --seconds 15 --trace 0` in
# the two copies in turn. Pair i uses seed i; odd pairs run rev-a first and
# even pairs rev-b first, so a drift in the host's speed falls on both
# sides. It prints every run, then for each end-to-end metric of
# BENCHMARK.json each side's median and quartiles and how many pairs rev-b
# won, "won" meaning better in the direction BENCHMARK.json gives (values
# print to five significant digits; "equal" counts bit-equal pairs). Each
# copy builds into its own .bench_build/; both copies are removed on exit
# (set TMPDIR to put them elsewhere). Needs git, tar and jq.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <rev-a> <rev-b> <workload> [pairs=10]" >&2
	exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=${4:-10}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

git -C "$root" rev-parse --verify --quiet "$rev_a^{commit}" >/dev/null || { echo "bench-pair: unknown revision $rev_a" >&2; exit 2; }
git -C "$root" rev-parse --verify --quiet "$rev_b^{commit}" >/dev/null || { echo "bench-pair: unknown revision $rev_b" >&2; exit 2; }
mkdir "$work/a" "$work/b"
git -C "$root" archive "$rev_a" | tar -x -C "$work/a"
git -C "$root" archive "$rev_b" | tar -x -C "$work/b"

runs="$work/runs.jsonl"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
	for side in $order; do
		line=$(cd "$work/$side" && bash mpperf/run.sh --workload "$workload" --seed "$i" --seconds 15 --trace 0 | tail -n 1)
		echo "$line" | jq -c --arg side "$side" --argjson pair "$i" \
			'{pair: $pair, side: $side, correct, attempted, failed, m: (.metrics | map_values(.value))}' >>"$runs"
		echo "bench-pair: $workload pair $i/$pairs side $side done" >&2
	done
done

echo "$workload: rev-a $(git -C "$root" rev-parse --short "$rev_a"), rev-b $(git -C "$root" rev-parse --short "$rev_b"), $pairs pairs, seed = pair"
jq -rs '
	group_by(.pair)[] | (map(select(.side == "a"))[0]) as $a | (map(select(.side == "b"))[0]) as $b |
	"pair \($a.pair): rev-a correct=\($a.correct) failed=\($a.failed)/\($a.attempted), rev-b correct=\($b.correct) failed=\($b.failed)/\($b.attempted)"
' "$runs"
jq -rs --slurpfile bench "$work/b/BENCHMARK.json" '
	def q($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $l |
		$s[$l] + ($h - $l) * ($s[[$l + 1, $n - 1] | min] - $s[$l]);
	def r: if . == 0 then 0 else (4 - (fabs | log10 | floor)) as $f |
		if $f >= 0 then (. * pow(10; $f) | round) / pow(10; $f) else (. / pow(10; -$f) | round) * pow(10; -$f) end end;
	. as $runs |
	$bench[0].end_to_end[] | .name as $k | .better as $better |
	($runs | group_by(.pair) | map({a: (map(select(.side == "a"))[0].m[$k]), b: (map(select(.side == "b"))[0].m[$k])})
		| map(select(.a != null and .b != null))) as $p |
	select($p | length > 0) |
	($p | map(.a)) as $av | ($p | map(.b)) as $bv |
	($p | map(select(if $better == "higher" then .b > .a else .b < .a end)) | length) as $wins |
	($p | map(select(.b == .a)) | length) as $ties |
	($av | q(0.5)) as $am | ($bv | q(0.5)) as $bm |
	"\($k) (\($better) is better)",
	"  runs a/b: \($p | map("\(.a | r)/\(.b | r)") | join(" "))",
	"  rev-a median \($am | r) [q1 \($av | q(0.25) | r), q3 \($av | q(0.75) | r), IQR \(($av | q(0.75)) - ($av | q(0.25)) | r)]",
	"  rev-b median \($bm | r) [q1 \($bv | q(0.25) | r), q3 \($bv | q(0.75) | r), IQR \(($bv | q(0.75)) - ($bv | q(0.25)) | r)]",
	"  median change \(if $am == 0 then "n/a" else "\((($bm - $am) / $am * 100) | . * 100 | round / 100) %" end), rev-b wins \($wins) of \($p | length) (\($ties) equal)"
' "$runs"
