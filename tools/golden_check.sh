#!/usr/bin/env bash
# Golden-report check: `frapp mine` output is a DETERMINISTIC function of
# (dataset, generator seed, mechanism spec, perturb seed, supmin) — same
# bytes on every machine, every run, every thread count. Each mechanism's
# report over the 16384-row seeded census table is byte-diffed against its
# checked-in fixture in tests/golden/; any drift in the perturbation, the
# mining order, or the report formatting fails loudly here.
#
# Usage: tools/golden_check.sh [build-dir] [mechanism|all] [mode]
#   build-dir  default: <repo-root>/build
#   mechanism  det-gd|ran-gd|mask|cp|ind-gd; default (or "all"): every
#              mechanism the mode supports
#   mode       pipeline (default): `frapp mine --run-pipeline` over the
#                generated table.
#              perturb: the file round trip `frapp generate` -> `frapp
#                perturb` -> `frapp mine --in perturbed.csv`, which must print
#                the same report as the pipeline (categorical mechanisms
#                only: det-gd, ran-gd, ind-gd).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

mode="${3:-pipeline}"
case "$mode" in
  pipeline) mechanisms=(det-gd ran-gd mask cp ind-gd) ;;
  perturb) mechanisms=(det-gd ran-gd ind-gd) ;;
  *) echo "FATAL: unknown mode '$mode' (pipeline|perturb)" >&2; exit 2 ;;
esac
if [[ $# -ge 2 && "$2" != "all" ]]; then
  mechanisms=("$2")
fi

# Fixture parameters — changing ANY of these requires regenerating every
# fixture (the header of each file names the mechanism and supmin).
rows=16384        # 2 whole chunks: chunk-aligned on purpose
gen_seed=5
perturb_seed=7
minsup=0.02
top=20

work_dir=""
if [[ "$mode" == perturb ]]; then
  work_dir="$(mktemp -d)"
  trap 'rm -rf "$work_dir"' EXIT
  "$frapp" generate --dataset census --rows "$rows" --seed "$gen_seed" \
      --out "$work_dir/census.csv" >/dev/null
fi

# Prints the mode's `frapp mine` report for one mechanism on stdout.
mine_report() {
  local mech="$1"
  if [[ "$mode" == perturb ]]; then
    "$frapp" perturb --dataset census --mechanism "$mech" --seed "$perturb_seed" \
        --in "$work_dir/census.csv" --out "$work_dir/perturbed_$mech.csv" \
        >/dev/null
    "$frapp" mine --dataset census --mechanism "$mech" \
        --in "$work_dir/perturbed_$mech.csv" --minsup "$minsup" --top "$top"
  else
    "$frapp" mine --dataset census --mechanism "$mech" --run-pipeline \
        --rows "$rows" --gen-seed "$gen_seed" --seed "$perturb_seed" \
        --minsup "$minsup" --top "$top"
  fi
}

failures=0
for mech in "${mechanisms[@]}"; do
  golden="$repo_root/tests/golden/mine_${mech}_census16k.txt"
  if [[ ! -f "$golden" ]]; then
    echo "FATAL: missing fixture $golden" >&2
    exit 1
  fi
  if ! mine_report "$mech" 2>/dev/null | diff -u "$golden" -; then
    echo "FAIL: $mech $mode report drifted from $golden" >&2
    failures=$((failures + 1))
  else
    echo "OK: $mech $mode matches $(basename "$golden")"
  fi
done

if [[ "$failures" -ne 0 ]]; then
  echo "golden check: $failures mechanism(s) drifted" >&2
  exit 1
fi
echo "golden check: all reports byte-identical to fixtures"
