#!/bin/sh
# Usage: expect_error.sh PATTERN COMMAND [ARGS...]
# Runs COMMAND and passes only when it exits nonzero and its stderr
# contains PATTERN (a fixed string).
pattern=$1
shift
if err=$("$@" 2>&1 >/dev/null); then
  echo "expected a nonzero exit from: $*" >&2
  exit 1
fi
case $err in
  *"$pattern"*) exit 0 ;;
esac
echo "stderr of '$*' lacks '$pattern':" >&2
echo "$err" >&2
exit 1
