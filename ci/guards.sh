#!/bin/sh
# Build guards on the simulator's object code and build flags: the lint
# kept under the release profile, the compare-free simulator core and
# the inlined per-µop path. ./ci.sh and both entries of the GitHub
# workflow's OCaml matrix run this one script, so the checks cannot
# drift apart. Run it from anywhere in a checkout with dune and objdump
# on the PATH: `sh ci/guards.sh` (it builds the libraries it inspects).
set -eu
cd "$(dirname "$0")/.."

echo "== lint: the release build keeps dev's warning set"
# dune-workspace selects the release profile, whose own flags are only
# -w -40; the root dune file's (env) stanza restores dev's lint. Fail if
# it ever stops applying.
flags=$(dune printenv .)
echo "$flags" | grep -q -- '-strict-sequence'
echo "$flags" | grep -qF -- '@1..3@5..28@30..39@43@46..47@49..57@61..62-40'

dune build lib/core lib/pipeline lib/mem lib/bpred

echo "== compare-free simulator core: no polymorphic compare in the hot libraries"
# Without flambda, a compare at a type not known to be int where it is
# written (Stdlib.max/min/compare, structural = or <>) stays a call into
# the C runtime even after inlining: several ns per µop that no test or
# allocation assert can see. No object of the interpreter, timing model,
# caches or predictors may reference one. OCaml 5.0 mangles Stdlib.max
# as camlStdlib__max_N, 5.1 as camlStdlib.max_N; both are matched.
poly='caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)([^A-Za-z0-9_]|$)'
poly="$poly|camlStdlib(\.|__)(max|min|compare)_[0-9]+"
objs=$(find _build/default/lib/core _build/default/lib/pipeline \
  _build/default/lib/mem _build/default/lib/bpred -path '*/native/*.o')
test -n "$objs"
bad=0
for o in $objs; do
  if objdump -dr "$o" | grep -Eq "$poly"; then
    echo "polymorphic compare in $o:"
    objdump -dr "$o" | grep -E "$poly" | sed 's/^/    /'
    bad=1
  fi
done
test "$bad" = 0

echo "== inlined per-µop path: no generic application in the timing model"
# The release build inlines across modules, so the timing model's
# per-µop functions call their callees directly. A caml_applyN or
# caml_curryN relocation inside feed_uop_core, fetch or handle_control
# means a call there went back through a closure: the -opaque dev build
# had 6, 2 and 5 of them. All three functions must be present, so a
# rename cannot pass the guard vacuously. OCaml 5.0 separates the module
# path in symbol names with __, 5.1 with .; both are matched.
timing=$(find _build/default/lib/pipeline -path '*/native/*Timing.o')
test -n "$timing"
objdump -dr "$timing" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = ""
    if (match($2, /Timing(\.|__)(feed_uop_core|fetch|handle_control)_[0-9]+>/)) {
      fn = $2; seen[fn] = 1
    }
  }
  fn != "" && /R_[A-Z0-9_]+[ \t]+caml_(apply|curry)/ {
    print "generic application in " fn " " $NF; bad = 1
  }
  END { n = 0; for (f in seen) n++; if (n != 3) { print "found " n " of 3 per-uop functions"; bad = 1 }; exit bad }'
