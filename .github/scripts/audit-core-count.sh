#!/usr/bin/env bash
# The privacy audit's report must depend only on (seed, samples, modes), never
# on the core count: audit a replacement-adjacent pair on one core and on all
# cores, at an even and an odd sample count, and compare the reports byte for byte.
set -eu
d=$(mktemp -d)
python -m fdpriv simulate --n 25 --seed 0 --output "$d/D.csv"
# D' is D with its last curve negated: a replacement-adjacent pair
python -c 'import sys; from fdpriv.io import read_curves_csv, write_curves_csv; g, x = read_curves_csv(sys.argv[1]); x[-1] = -x[-1]; write_curves_csv(sys.argv[2], g, x)' "$d/D.csv" "$d/Dp.csv"
python -m fdpriv smooth --input "$d/D.csv" --output "$d/s.csv"
python -m fdpriv smooth --input "$d/Dp.csv" --output "$d/sp.csv"
audit="python -m fdpriv audit --theta-d $d/s.csv --theta-dp $d/sp.csv"
# At the odd count the last noise draw is scored without its mirror.
for n in 200000 200001; do
  taskset -c 0 $audit --samples $n --output "$d/audit-$n-one-core.txt"
  $audit --samples $n --output "$d/audit-$n-all-cores.txt"
  cmp "$d/audit-$n-one-core.txt" "$d/audit-$n-all-cores.txt"
done
