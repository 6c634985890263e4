#!/bin/sh
# Byte-identity gate against an earlier commit: run tools/golden.sh of <rev>
# in a temporary git worktree, then tools/golden.sh of the working tree, and
# compare every artifact but timings.csv (wall times always differ).
#
#     tools/golden_diff.sh HEAD~1
#
# Prints the differences and exits non-zero if there are any; prints nothing
# otherwise.  <rev> must contain tools/golden.sh.  The worktree and all
# outputs are removed on exit.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/tree" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git -C "$root" worktree add -q --detach "$tmp/tree" "$1"
sh "$tmp/tree/tools/golden.sh" "$tmp/rev"
sh "$root/tools/golden.sh" "$tmp/work"
diff -r -x timings.csv "$tmp/rev" "$tmp/work"
