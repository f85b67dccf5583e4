#!/usr/bin/env bash
# Fails if a change makes the host benchmark wrong, failing or slower.
#
# Exports BASE and HEAD with `git archive` and runs the benchmark command of
# each on every workload, PAIRS times per commit, alternating which commit
# runs first. The workloads, the end-to-end metrics with their `better`
# direction and `bound`, and the command all come from BENCHMARK.json at
# HEAD. The last stdout line of each run is the benchmark's result JSON.
#
# Exit 1 when, on some workload:
#   * a HEAD run is not `correct` or fails an op (a run that prints no
#     result line counts as not correct), so HEAD never passes with more
#     failed ops than BASE;
#   * a metric's HEAD median is worse than its BASE median by more than its
#     bound.
# A metric whose BASE runs spread wider than its bound ((Q3 - Q1) / median)
# cannot be judged on this host; it is printed as `unresolved`, not failed.
#
# Usage: scripts/hostbench_gate.sh [BASE [HEAD]]
#   BASE defaults to the merge-base of HEAD and origin/main (else main).
set -euo pipefail

# CI time budget: 3 workloads x 5 pairs x 2 commits = 30 runs of about
# 3-6 s each (set-up, reference and warm-up come on top of the 2 s loop),
# so about 3 minutes of runs after two release builds.
PAIRS=5
RUN_SECONDS=2

head_ref=${2:-HEAD}
base_ref=${1:-$(git merge-base "$head_ref" origin/main 2>/dev/null ||
    git merge-base "$head_ref" main)}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

git show "$head_ref:BENCHMARK.json" >"$work/BENCHMARK.json"
mapfile -d '' command < <(python3 -c '
import json, sys
for arg in json.load(open(sys.argv[1]))["command"]:
    sys.stdout.write(arg + "\0")' "$work/BENCHMARK.json")
mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$work/BENCHMARK.json")

mkdir -p "$work/base/src" "$work/head/src"
git archive "$base_ref" | tar -x -C "$work/base/src"
git archive "$head_ref" | tar -x -C "$work/head/src"

# run_one NAME WORKLOAD: one benchmark run of commit NAME. Appends the result
# line (or `null` when the run printed none) to $work/NAME/WORKLOAD.jsonl.
run_one() {
    local name=$1 wl=$2
    local src=$work/$name/src out=$work/$name/$wl.out
    echo "== $name: $wl"
    if (cd "$src" && env -u CARGO_MANIFEST_DIR CARGO_TARGET_DIR="$src/target" \
        "${command[@]}" --workload "$wl" --seconds "$RUN_SECONDS" \
        >"$out" 2>"$work/$name/$wl.err"); then
        tail -n 1 "$out" >>"$work/$name/$wl.jsonl"
    else
        tail -n 20 "$work/$name/$wl.err" >&2
        echo null >>"$work/$name/$wl.jsonl"
    fi
}

for wl in "${workloads[@]}"; do
    for ((i = 0; i < PAIRS; i++)); do
        if ((i % 2 == 0)); then
            run_one base "$wl"
            run_one head "$wl"
        else
            run_one head "$wl"
            run_one base "$wl"
        fi
    done
done

python3 - "$work" "$base_ref" "$head_ref" <<'EOF'
import json, statistics, sys

work, base_ref, head_ref = sys.argv[1:]
bench = json.load(open(f"{work}/BENCHMARK.json"))


def runs(name, wl):
    out = []
    for line in open(f"{work}/{name}/{wl}.jsonl"):
        try:
            out.append(json.loads(line))
        except ValueError:
            out.append(None)
    return out


def failed_ops(rs):
    return sum(1 if r is None else r["failed"] for r in rs)


def attempted_ops(rs):
    return sum(0 if r is None else r["attempted"] for r in rs)


print(f"hostbench gate: {base_ref} (base) vs {head_ref} (head)")
print(f"{'workload':<12} {'metric':<12} {'base':>12} {'head':>12} {'change':>8}  verdict")
bad = False
for wl in (w["name"] for w in bench["workloads"]):
    base, head = runs("base", wl), runs("head", wl)
    correct = all(r is not None and r["correct"] is True and r["failed"] == 0 for r in head)
    bad |= not correct
    print(
        f"{wl:<12} {'correct':<12} {f'{failed_ops(base)}/{attempted_ops(base)} failed':>12} "
        f"{f'{failed_ops(head)}/{attempted_ops(head)} failed':>12} {'':>8}  "
        f"{'ok' if correct else 'REGRESSED'}"
    )
    for m in bench["end_to_end"]:
        b = [r["metrics"][m["name"]]["value"] for r in base if r is not None]
        h = [r["metrics"][m["name"]]["value"] for r in head if r is not None]
        if len(b) < 2 or not h:
            print(f"{wl:<12} {m['name']:<12} {'-':>12} {'-':>12} {'':>8}  unresolved")
            continue
        bmed, hmed = statistics.median(b), statistics.median(h)
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive")
        change = (hmed - bmed) / bmed if bmed else 0.0
        worse = change if m["better"] == "lower" else -change
        if bmed == 0 or (q3 - q1) / bmed > m["bound"]:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "REGRESSED"
            bad = True
        else:
            verdict = "ok"
        print(f"{wl:<12} {m['name']:<12} {bmed:>12.6g} {hmed:>12.6g} {change:>+7.1%}  {verdict}")
sys.exit(1 if bad else 0)
EOF
