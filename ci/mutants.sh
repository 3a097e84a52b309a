#!/bin/sh
# The committed mutant set: each ci/mutants/NAME.patch is a plain
# `git apply` patch whose first line says what it breaks. For each one
# this script checks out a throwaway `git worktree` of HEAD (outside the
# checkout, under $TMPDIR), applies the patch, runs
# `dune build && dune runtest` there under a per-mutant deadline and
# prints one line:
#
#   killed          NAME: the failing tests, goldens or build rules
#   survived        NAME: the tree's checks all pass with the mutant in
#   hung            NAME: the checks ran past the deadline
#   does not apply  NAME
#
# It exits non-zero unless every mutant is killed. Run it from anywhere
# in a checkout with dune on the PATH: `sh ci/mutants.sh` runs the whole
# set, `sh ci/mutants.sh ci/mutants/NAME.patch ...` the named patches.
# Commit first: the mutants run against HEAD, not the working tree.
set -u
cd "$(dirname "$0")/.."
repo=$(pwd)
deadline=900 # seconds per mutant; tier-1 takes about a minute on a 2-core host

[ $# -gt 0 ] || set -- "$repo"/ci/mutants/*.patch
work=$(mktemp -d "${TMPDIR:-/tmp}/sempe-mutants.XXXXXX")
wt="$work/tree"
cleanup() {
  git -C "$repo" worktree remove --force "$wt" >/dev/null 2>&1
  rm -rf "$wt"
  git -C "$repo" worktree prune
}
trap 'cleanup; rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

# What failed, from a run's output: alcotest's [FAIL] lines (group,
# index and name), the golden files whose diff failed, a test runner
# that died without a verdict (named by the last test it passed), the
# dune rules that failed otherwise, and build errors.
culprits() {
  {
    sed -n 's/^[> ] \[FAIL\] *\([^ ]*\) *\([0-9]*\) *\(.*\)$/\1 \2 (\3)/p' "$1"
    sed -n 's/^File "\(test\/golden\/[^"]*\)".*/golden \1/p' "$1"
    if grep -q '^File "test/dune"' "$1" && ! grep -q '^[> ] \[FAIL\]' "$1"; then
      last=$(sed -n 's/^  \[OK\] *\([^ ]*\) *\([0-9]*\) .*/\1 \2/p' "$1" | tail -n 1)
      echo "the test runner died in the test after $last"
    fi
    sed -n 's/^File "\(dune\)", line \([0-9]*\).*/rule \1:\2/p' "$1"
    grep -m 3 '^Error' "$1" | sed 's/^/build: /'
  } | awk '!seen[$0]++' | paste -sd ';' - | sed 's/;/; /g'
}

total=0
killed=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  total=$((total + 1))
  cleanup
  git -C "$repo" worktree add --detach --quiet "$wt" HEAD || exit 2
  log="$work/$name.log"
  if ! git -C "$wt" apply "$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")" \
    >"$log" 2>&1; then
    echo "does not apply  $name"
    continue
  fi
  timeout --kill-after=30 "$deadline" \
    sh -c 'dune build --root "$1" 2>&1 && dune runtest --root "$1" 2>&1' sh "$wt" \
    >"$log" 2>&1
  status=$?
  case $status in
    0) echo "survived        $name" ;;
    124 | 137) echo "hung            $name (no result after ${deadline}s)" ;;
    *)
      killed=$((killed + 1))
      echo "killed          $name: $(culprits "$log")"
      ;;
  esac
done
echo "$killed of $total mutants killed"
[ "$killed" -eq "$total" ]
