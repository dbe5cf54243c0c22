#!/bin/sh
# Run every demo against src/ from the repository root. Each demo works in
# a temp dir of its own and must remove it: the demos share one fresh
# TMPDIR, and anything left in it fails the run. A RuntimeWarning (an
# overflow or invalid value in numpy, say) is an error, as in Tier-1.
# Usage: sh tools/run_demos.sh
cd "$(dirname "$0")/.." || exit 1
TMPDIR="$(mktemp -d)" || exit 1
export TMPDIR
export PYTHONWARNINGS=error::RuntimeWarning
for demo in demos/*.py; do
  echo "== $demo"
  PYTHONPATH=src python "$demo" || exit 1
done
if [ -n "$(ls -A "$TMPDIR")" ]; then
  echo "demos left files behind in $TMPDIR:"
  ls -A "$TMPDIR"
  exit 1
fi
rmdir "$TMPDIR"
