#!/usr/bin/env bash
# Seeded runs of the simulation subcommands, each at its defaults and
# once off-default. Their stdout is compared with sim_runs.expected, so
# a change to the simulator's schedule, its random draws or a
# protocol's handlers shows up as a diff. Re-record (`dune promote`)
# only for a change that is meant to alter these runs, and say why.
set -eu
HPL="$1"

run() {
  echo "== hpl $*"
  "$HPL" "$@"
}

run termination
run termination --budget 40 -n 5 --fanout 2 --seed 3
run heartbeat
run heartbeat --timeout 6 --crash-at=-1
run gossip
run gossip --mode pull -n 12 --seed 4
run snapshot
run snapshot -n 6 --at 20
run deadlock
run deadlock --shape partial
run mutex
run mutex -n 6 --rounds 2
run election
run election -n 12 --seed 5
run paxos
run paxos --proposers 3 --seed 9
run commit
run commit --no 1,2
run commit --crash-at 5
