#!/bin/sh
# CLI checks of the shared observatory driver (bench/ObservatoryBench).
#
#   observatory_cli_test.sh unwritable <trace_tool> <table7> <bench_sim>
#       Every --audit-out, --drift-out and --heatmap-out in every driver
#       fails the same way on an unwritable path: exit status 1 with
#       "error: cannot write --<flag>=<path>" on stderr.
#   observatory_cli_test.sh agree <trace_tool> <table7> <bench_sim>
#       trace_tool audit/drift, table7_arena_fractions and
#       bench_sim_throughput write byte-identical audit texts and drift
#       JSONs for the same workload.
Mode=$1 TraceTool=$2 Table7=$3 BenchSim=$4
Dir=$(mktemp -d) || exit 1
trap 'rm -rf "$Dir"' EXIT
Status=0

# expect_unwritable <flag> <command...>: runs the command, whose --<flag>
# names a file in a missing directory.
expect_unwritable() {
  Flag=$1
  shift
  Err=$("$@" 2>&1 >/dev/null)
  Code=$?
  case $Code:$Err in
  1:*"error: cannot write --$Flag=$Dir/missing/out"*) ;;
  *)
    echo "FAIL (exit $Code): $*"
    echo "$Err"
    Status=1
    ;;
  esac
}

same() {
  cmp "$1" "$2" || Status=1
}

Bad=$Dir/missing/out
Small="--program=CFRAC --scale=0.01 --jobs=1"
case $Mode in
unwritable)
  expect_unwritable audit-out "$TraceTool" audit CFRAC $Small --audit-out=$Bad
  expect_unwritable drift-out "$TraceTool" drift CFRAC $Small --drift-out=$Bad
  expect_unwritable heatmap-out "$TraceTool" heatmap CFRAC --scale=0.01 \
    --heatmap-out=$Bad
  expect_unwritable audit-out "$Table7" $Small --audit-out=$Bad
  expect_unwritable drift-out "$Table7" $Small --drift-out=$Bad
  expect_unwritable audit-out "$BenchSim" $Small --repeat=1 --audit-out=$Bad
  expect_unwritable drift-out "$BenchSim" $Small --repeat=1 --drift-out=$Bad
  expect_unwritable heatmap-out "$BenchSim" $Small --repeat=1 --observe \
    --heatmap-out=$Bad
  ;;
agree)
  Run="--program=CFRAC --scale=0.02"
  "$TraceTool" audit CFRAC $Run --audit-out="$Dir/tt.txt" >/dev/null &&
    "$TraceTool" drift CFRAC $Run --drift-out="$Dir/tt.json" >/dev/null &&
    "$Table7" $Run --audit-out="$Dir/t7.txt" --drift-out="$Dir/t7.json" \
      >/dev/null &&
    "$BenchSim" $Run --repeat=1 --audit-out="$Dir/bs.txt" \
      --drift-out="$Dir/bs.json" >/dev/null || exit 1
  test -s "$Dir/tt.txt" && test -s "$Dir/tt.json" || exit 1
  same "$Dir/tt.txt" "$Dir/t7.txt"
  same "$Dir/tt.txt" "$Dir/bs.txt"
  same "$Dir/tt.json" "$Dir/t7.json"
  same "$Dir/tt.json" "$Dir/bs.json"
  ;;
*)
  echo "usage: $0 unwritable|agree <trace_tool> <table7> <bench_sim>"
  exit 2
  ;;
esac
exit $Status
