#!/usr/bin/env bash
# Non-test OCaml line count: the .ml/.mli lines under lib, bin, bench and
# perfbench, per directory and in total.  Run from anywhere:
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in lib bin bench perfbench; do
  n=$(find "$dir" -type f \( -name '*.ml' -o -name '*.mli' \) -print0 \
        | xargs -0 cat | wc -l)
  printf '%-10s %6d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
