#!/bin/sh
# Mutant check of the strictly-below rule and the rungs that apply it:
# the engine skips a document only when its bound ranks strictly below
# the k-th kept entry, and every place that rule is written must be
# held by a test. Each mutant below breaks one of them in a copy of the
# working tree (the tree itself is never edited), and `go test -short`
# of the root package, internal/engine, internal/index and internal/join
# must then fail. A mutant the suite survives, or one that no longer applies or
# builds, fails this script.
#
#   M1  floorEntry.bar gives a tie to the larger document id
#   M2  floorEntry.bar takes every tie as lost
#   M3  the pivot screen prunes a bound equal to the bar
#   M4  the conjunctive cap prunes a bound equal to the bar
#   M5  the cache rung (rungCut) cuts at a width one wider
#   M6  the window screen's CutWidth answers one wider than the
#       narrowest cutting width, admitting a document its bar cuts
#   M7  advanceUnion's range jump lands one document past the first
#       unmatched cursor's
#   M8  a concept table's per-document maximum takes the first stem
#       present instead of the largest, so a bound can sit below the
#       score it caps
#   M9  the WIN/MED kernels' anchor trim keeps the matches within w*−2
#       of the anchor instead of w*−1, dropping a matchset of window
#       w*−1 that reaches the floor
#
# Usage: scripts/mutants.sh   (about 20 s a mutant on a 2-core host)
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
tar -cf - --exclude=./.git --exclude=./bench/.build --exclude=./bench/out . | tar -xf - -C "$tmp"

# mutant NAME FILE SED: applies SED to FILE in the copy, checks that it
# changed the file and that the result builds, runs the tests, and
# restores the file.
mutant() {
    name="$1" file="$tmp/$2" expr="$3"
    cp "$file" "$file.orig"
    sed "$expr" "$file.orig" >"$file"
    if cmp -s "$file" "$file.orig"; then
        echo "mutants: $name no longer applies to $2" >&2
        exit 1
    fi
    if ! (cd "$tmp" && go build ./internal/engine/); then
        echo "mutants: $name does not build" >&2
        exit 1
    fi
    if (cd "$tmp" && go test -short -count=1 -failfast . ./internal/engine/ ./internal/index/ ./internal/join/ >/dev/null 2>&1); then
        echo "mutants: $name survived: no test failed" >&2
        exit 1
    fi
    echo "mutants: $name killed"
    mv "$file.orig" "$file"
}

mutant M1 internal/engine/topk.go 's/if d > f\.doc {/if d < f.doc {/'
mutant M2 internal/engine/topk.go 's/if d > f\.doc {/if true {/'
mutant M3 internal/engine/union.go 's/case bound < bar:/case bound <= bar:/'
mutant M4 internal/engine/union.go 's/boundSigs(w\.atSigs, len(w\.atSigs)) < bar:/boundSigs(w.atSigs, len(w.atSigs)) <= bar:/'
mutant M5 internal/engine/kernel.go 's/join\.Apart(sigs, w), false/join.Apart(sigs, w+1), false/'
mutant M6 internal/join/events.go 's/^\treturn hi, true$/\treturn hi + 1, true/'
mutant M7 internal/engine/union.go 's/target = min(target, cu\.doc)$/target = min(target, cu.doc+1)/'
mutant M8 internal/index/concepts.go 's/if first || s\.Score > e\.max {/if first {/'
mutant M9 internal/join/events.go 's/s\.trim(lists, w-1)/s.trim(lists, w-2)/'
echo "mutants: all killed"
