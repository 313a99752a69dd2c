#!/usr/bin/env bash
# Start a command, SIGKILL it once a progress test passes, and fail unless
# the kill is what ended it.
#
#   kill_on_progress.sh [--stdout FILE] [--stderr FILE] --until TEST -- CMD...
#
# CMD runs in the background as this script's own child, so the pid that
# is killed is the command's, not a subshell's. TEST is shell code,
# evaluated every 50 ms while CMD runs; it may call the probes below.
# The script exits 0 only when `wait` returns 137 (SIGKILL). A command
# that exits first, successfully or not, fails the script: a kill-resume
# check whose kill never landed mid-run tests nothing.

set -u

# newest_snapshot PREFIX: the newest PREFIX-*.lnck file, or nothing.
newest_snapshot() {
  ls "$1"-*.lnck 2>/dev/null | sort | tail -n 1
}

# log_bytes SNAPSHOT: size of the snapshot's record log (0 when absent).
log_bytes() {
  stat -c %s "${1%.lnck}.lnlog" 2>/dev/null || echo 0
}

# logged_snapshot_after PREFIX BEFORE: the newest PREFIX snapshot is not
# BEFORE and its log holds a record (records are ~200 bytes and more).
logged_snapshot_after() {
  local newest
  newest=$(newest_snapshot "$1")
  [ -n "$newest" ] && [ "$newest" != "$2" ] \
    && [ "$(log_bytes "$newest")" -gt 200 ]
}

# past_first_snapshot PREFIX: a PREFIX snapshot newer than the first one
# this script saw exists.
first_seen=""
past_first_snapshot() {
  local newest
  newest=$(newest_snapshot "$1")
  [ -z "$first_seen" ] && first_seen=$newest
  [ -n "$first_seen" ] && [ "$newest" != "$first_seen" ]
}

out="" err="" until=""
while [ $# -gt 0 ]; do
  case $1 in
    --stdout) out=$2; shift 2 ;;
    --stderr) err=$2; shift 2 ;;
    --until) until=$2; shift 2 ;;
    --) shift; break ;;
    *) echo "kill_on_progress: bad argument '$1'" >&2; exit 2 ;;
  esac
done
if [ -z "$until" ] || [ $# -eq 0 ]; then
  echo "usage: kill_on_progress.sh [--stdout F] [--stderr F]" \
    "--until TEST -- CMD..." >&2
  exit 2
fi

if [ -n "$out" ]; then exec 3> "$out"; else exec 3>&1; fi
if [ -n "$err" ]; then exec 4> "$err"; else exec 4>&2; fi
"$@" >&3 2>&4 3>&- 4>&- &
pid=$!
exec 3>&- 4>&-

while kill -0 "$pid" 2>/dev/null; do
  if eval "$until"; then
    break
  fi
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null
status=0
wait "$pid" || status=$?
if [ "$status" -ne 137 ]; then
  echo "kill_on_progress: '$*' exited with status $status before the kill" >&2
  [ -n "$err" ] && cat "$err" >&2
  exit 1
fi
echo "kill_on_progress: killed '$1' mid-run (wait status 137)" >&2
