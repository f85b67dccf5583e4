#!/usr/bin/env bash
# Fails if a change moves any figure CSV.
#
# Exports BASE and HEAD with `git archive`, builds the figure harnesses of
# each, runs fig05, fig07, fig09, fig11, fig12 and fig13 at TSGEMM_SCALE=10
# TSGEMM_P=16 (each commit in its own empty working directory, since the
# harnesses write results/ relative to the cwd) and diffs the CSVs byte for
# byte. fig07 is the one that covers `dist_spmm`.
#
# Usage: scripts/figures_identity.sh [BASE [HEAD]]
#   BASE defaults to the merge-base of HEAD and origin/main (else main).
set -euo pipefail

FIGS=(fig05_tile_width fig07_spgemm_vs_spmm fig09_strong_scaling fig11_comm_scaling fig12_msbfs fig13_embedding)
head_ref=${2:-HEAD}
base_ref=${1:-$(git merge-base "$head_ref" origin/main 2>/dev/null ||
    git merge-base "$head_ref" main)}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run_commit REF NAME: build REF under $work/NAME/src, run every figure in
# $work/NAME/run.
run_commit() {
    local ref=$1 name=$2
    local src=$work/$name/src run=$work/$name/run
    mkdir -p "$src" "$run"
    git archive "$ref" | tar -x -C "$src"
    local bins=()
    for fig in "${FIGS[@]}"; do bins+=(--bin "$fig"); done
    (cd "$src" && cargo build --release --offline -q -p tsgemm-bench "${bins[@]}")
    local target=${CARGO_TARGET_DIR:-$src/target}
    for fig in "${FIGS[@]}"; do
        echo "== $name ($ref): $fig"
        if ! (cd "$run" && env -u CARGO_MANIFEST_DIR TSGEMM_SCALE=10 TSGEMM_P=16 \
            "$target/release/$fig" >"$fig.log" 2>&1); then
            tail -n 20 "$run/$fig.log"
            echo "$fig failed at $ref" >&2
            exit 1
        fi
    done
}

run_commit "$base_ref" base
run_commit "$head_ref" head

base_csvs=$(cd "$work/base/run/results" && ls ./*.csv)
if [ -z "$base_csvs" ]; then
    echo "no CSVs written" >&2
    exit 1
fi
if diff -r "$work/base/run/results" "$work/head/run/results"; then
    echo "figure CSVs identical: $(echo "$base_csvs" | wc -l) files, $base_ref vs $head_ref"
else
    echo "figure CSVs differ between $base_ref and $head_ref" >&2
    exit 1
fi
