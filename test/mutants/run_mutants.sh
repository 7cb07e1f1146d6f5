#!/bin/sh
# Runs seeded cluster-file mutants through madbench config-pingpong and
# fails if any exits 125 (an uncaught exception); other exit codes are
# the typed outcomes (0 ran, 2 input error, 124 usage error). Prints
# the exit-code histogram. Run from the repository root after
# `dune build`:
#   test/mutants/run_mutants.sh [SEED] [COUNT]
set -e
seed=${1:-1}
count=${2:-300}
bin=./_build/default/bin/madbench.exe
gen=./_build/default/test/mutants/gen_mutants.exe
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$gen" "$seed" "$count" "$dir" examples/clusters/two_cluster.cfg \
  examples/clusters/three_cluster.cfg > "$dir/manifest"
fail=0
while read -r cfg vc from to; do
  code=0
  "$bin" config-pingpong --config "$cfg" --channel "$vc" --from "$from" \
    --to "$to" --iters 1 > /dev/null 2> "$dir/err" || code=$?
  echo "$code" >> "$dir/codes"
  if [ "$code" = 125 ]; then
    echo "exit 125: $cfg (--channel $vc --from $from --to $to)"
    cat "$cfg" "$dir/err"
    fail=1
  fi
done < "$dir/manifest"
echo "exit-code histogram (count, code) over $count mutants, seed $seed:"
sort -n "$dir/codes" | uniq -c
exit "$fail"
