#!/bin/sh
# Byte-identity gate against an earlier commit: run the working tree's
# tools/gate.py on the code of <rev>, exported to a temporary directory, then
# on the working tree, and compare every artifact but timings.csv (wall times
# always differ).  Both sides run the same command set, so a gate that grows
# compares the new commands on both.
#
#     tools/golden_diff.sh HEAD~1
#
# Prints the differences and exits non-zero if there are any; prints nothing
# otherwise.  The exported tree and all outputs are removed on exit.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir -p "$tmp/tree/tools"
git -C "$root" archive "$1" | tar -x -C "$tmp/tree"
cp "$root/tools/gate.py" "$tmp/tree/tools/gate.py"
python3 "$tmp/tree/tools/gate.py" "$tmp/rev"
python3 "$root/tools/gate.py" "$tmp/work"
diff -r -x timings.csv "$tmp/rev" "$tmp/work"
