#!/usr/bin/env bash
# Measure the baseline: every end-to-end and per-layer metric of every
# workload, for seed 42 and for a seed that was not used while the harness
# was written, into benchmark/BASELINE.json. Run from anywhere; takes about
# five minutes. The summary of each run (sizes, workers, pass quartiles,
# fingerprint) is kept beside its result.
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=(42 20260930)
workloads=(campaign_bydoc campaign_bypage route_only sim_closed_loop serve_soak)
out=benchmark/BASELINE.json

run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds 8 --trace "$3"
}

# One run as a JSON member: "<key>": {"result": {...}, "summary": {...}}.
member() {
    local stdout
    stdout=$(run "$1" "$2" "$3")
    printf '        "%s": {\n          "result": %s,\n          "summary": %s\n        }' \
        "$4" "$(tail -n 1 <<<"$stdout")" "$(grep '^summary ' <<<"$stdout" | cut -c9-)"
}

{
    printf '{\n  "note": "first measured baseline of the repository benchmark; see benchmark/README.md",\n'
    printf '  "seeds": {\n'
    for s in "${!seeds[@]}"; do
        printf '    "%s": {\n' "${seeds[$s]}"
        for w in "${!workloads[@]}"; do
            printf '      "%s": {\n' "${workloads[$w]}"
            member "${workloads[$w]}" "${seeds[$s]}" 0 end_to_end
            printf ',\n'
            member "${workloads[$w]}" "${seeds[$s]}" 1 per_layer
            printf '\n      }'
            [[ $w -lt $((${#workloads[@]} - 1)) ]] && printf ','
            printf '\n'
        done
        printf '    }'
        [[ $s -lt $((${#seeds[@]} - 1)) ]] && printf ','
        printf '\n'
    done
    printf '  },\n  "claim": null\n}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out"
