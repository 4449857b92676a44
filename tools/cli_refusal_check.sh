#!/usr/bin/env bash
# Refusal check for `frapp perturb` and the reconstruct mode of `frapp mine`
# (`mine --in PERTURBED.csv`). Both take the mechanism from the spec flags
# alone, so a flag that would ask for another mechanism must stop the run
# with InvalidArgument, exit non-zero and write no output, never be ignored:
#   --rho1/--rho2                       (get a gamma from `frapp audit`)
#   --alpha/--alpha-frac without ran-gd (the spread is RAN-GD's alone)
#   --mechanism mask|cp on perturb      (one-hot bits do not fit a CSV)
# A control run per command checks that the accepted form still succeeds.
#
# Usage: tools/cli_refusal_check.sh [build-dir]   (default <repo-root>/build)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT
"$frapp" generate --dataset census --rows 2000 --seed 5 \
    --out "$work_dir/census.csv" >/dev/null
"$frapp" perturb --dataset census --in "$work_dir/census.csv" \
    --out "$work_dir/perturbed.csv" >/dev/null

failures=0

# expect_refusal NAME OUTPUT-FILE ARGS...: the command must exit non-zero,
# print an InvalidArgument error and leave OUTPUT-FILE absent.
expect_refusal() {
  local name="$1" out="$2"
  shift 2
  local status=0
  "$frapp" "$@" >/dev/null 2>"$work_dir/stderr" || status=$?
  if [[ "$status" -eq 0 ]]; then
    echo "FAIL: $name exited 0" >&2
    failures=$((failures + 1))
  elif ! grep -q "InvalidArgument" "$work_dir/stderr"; then
    echo "FAIL: $name exited $status without InvalidArgument:" >&2
    cat "$work_dir/stderr" >&2
    failures=$((failures + 1))
  elif [[ -n "$out" && -e "$out" ]]; then
    echo "FAIL: $name wrote $out" >&2
    failures=$((failures + 1))
  else
    echo "OK: $name refused ($(head -n 1 "$work_dir/stderr"))"
  fi
}

expect_success() {
  local name="$1"
  shift
  if "$frapp" "$@" >/dev/null 2>"$work_dir/stderr"; then
    echo "OK: $name accepted"
  else
    echo "FAIL: $name was refused:" >&2
    cat "$work_dir/stderr" >&2
    failures=$((failures + 1))
  fi
}

perturb=(perturb --dataset census --in "$work_dir/census.csv")
mine=(mine --dataset census --in "$work_dir/perturbed.csv")
out="$work_dir/refused.csv"

expect_refusal "perturb --rho2" "$out" "${perturb[@]}" --out "$out" --rho2 0.3
expect_refusal "perturb --rho1" "$out" "${perturb[@]}" --out "$out" --rho1 0.05
expect_refusal "perturb --mechanism mask" "$out" \
    "${perturb[@]}" --out "$out" --mechanism mask
expect_refusal "perturb --mechanism cp" "$out" \
    "${perturb[@]}" --out "$out" --mechanism cp
expect_refusal "perturb --alpha-frac (det-gd)" "$out" \
    "${perturb[@]}" --out "$out" --alpha-frac 0.5
expect_refusal "perturb --alpha (ind-gd)" "$out" \
    "${perturb[@]}" --out "$out" --mechanism ind-gd --alpha 0.001
expect_refusal "mine --in --rho2" "" "${mine[@]}" --rho2 0.3
expect_refusal "mine --in --alpha-frac (det-gd)" "" "${mine[@]}" --alpha-frac 0.5
expect_success "perturb --mechanism ran-gd --alpha-frac" \
    "${perturb[@]}" --out "$work_dir/ran.csv" --mechanism ran-gd --alpha-frac 0.5
expect_success "mine --in --mechanism ran-gd --alpha-frac" \
    mine --dataset census --in "$work_dir/ran.csv" --mechanism ran-gd \
    --alpha-frac 0.5

if [[ "$failures" -ne 0 ]]; then
  echo "cli refusal check: $failures case(s) failed" >&2
  exit 1
fi
echo "cli refusal check: every case behaved"
