#!/usr/bin/env bash
# Exit-code discipline of the hpl CLI:
#   0 = ok, 1 = property violated, 2 = bad arguments, 3 = budget-truncated.
# Bad -s/--depth/--faults/budget arguments must produce ONE line on
# stderr and exit 2 — not a backtrace, not cmdliner's generic error.
set -u
HPL="$1"
LONG_TRACE="$2" # a recorded run of more than 16 events
fails=0

expect() { # expect <code> <what> -- <args...>
  local want="$1" what="$2"; shift 3
  local err
  err=$("$HPL" "$@" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: expected exit $want, got $got" >&2
    fails=$((fails + 1))
  fi
  case "$want" in
  2)
    if [ "$(printf '%s\n' "$err" | grep -c .)" -ne 1 ]; then
      echo "FAIL: $what: expected one-line stderr, got:" >&2
      printf '%s\n' "$err" >&2
      fails=$((fails + 1))
    fi
    if printf '%s' "$err" | grep -qi backtrace; then
      echo "FAIL: $what: stderr contains a backtrace" >&2
      fails=$((fails + 1))
    fi
    ;;
  esac
}

# ok paths
expect 0 "plain enumerate" -- enumerate -s ping-pong
expect 0 "faulty enumerate" -- enumerate -s ping-pong --faults 'drop:p0->p1'
expect 0 "valid check" -- check -s token-ring 'AG (holds0 -> ~holds1)'

# bad arguments: one line, exit 2
expect 2 "unknown protocol" -- enumerate -s no-such-protocol
expect 2 "bad protocol params" -- enumerate -s token-ring:1
expect 2 "non-integer depth" -- enumerate -s ping-pong --depth=x
expect 2 "negative depth" -- enumerate -s ping-pong --depth=-3
expect 2 "unknown fault item" -- knows -s ping-pong --faults 'explode:p0'
expect 2 "malformed crash item" -- knows -s ping-pong --faults 'crash:p1'
expect 2 "fault pid out of range" -- knows -s ping-pong --faults 'crash:p7@1'
expect 2 "bad max-states" -- enumerate -s ping-pong --max-states 0
expect 2 "bad max-seconds" -- enumerate -s ping-pong --max-seconds nope
expect 2 "formula parse error" -- check -s ping-pong 'AG (('
# a formula pid is decimal digits whose value is an int
expect 2 "oversized formula pid" -- check -s ring -d 2 'K p99999999999999999999 p0_sent'
expect 2 "hex formula pid" -- check -s ring -d 2 'K 0x1 p0_sent'
expect 2 "lint oversized formula pid" -- lint -s ring --formula 'K p99999999999999999999 p0_sent'
expect 2 "mc oversized formula pid" -- mc -s ring -d 3 --formula 'K p99999999999999999999 p0_sent'
# printing a formula is linear in its size: `check` echoes a
# 100000-deep one and answers in well under the limit
deep="$(head -c 100000 /dev/zero | tr '\0' '~')true"
timeout 10 "$HPL" check -s ring -d 2 "$deep" >/dev/null 2>&1
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: 100000-deep formula: expected exit 0 within 10 s, got $got" >&2
  fails=$((fails + 1))
fi
expect 2 "unknown drop channel" -- enumerate -s token-ring --faults 'drop:p0->p2'
expect 2 "unknown dup channel" -- knows -s token-ring --faults 'dup:p2->p1'
expect 2 "lint unknown protocol" -- lint -s no-such-protocol
expect 2 "lint formula parse error" -- lint -s ping-pong --formula 'AG (('
expect 2 "lint --all with formula" -- lint --all --formula 'true'

# cmdliner's own parse errors are bad arguments too: exit 2 with the
# offending option named on the first stderr line (cmdliner's usage
# lines may follow it)
expect_cli_error() { # expect_cli_error <what> <option> -- <args...>
  local what="$1" opt="$2"; shift 3
  local err
  err=$("$HPL" "$@" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -ne 2 ]; then
    echo "FAIL: $what: expected exit 2, got $got" >&2
    fails=$((fails + 1))
  fi
  if ! printf '%s\n' "$err" | head -n 1 | grep -qF -- "$opt"; then
    echo "FAIL: $what: first stderr line does not name $opt:" >&2
    printf '%s\n' "$err" >&2
    fails=$((fails + 1))
  fi
}
expect_cli_error "removed --domains flag" "'--domains'" -- enumerate -s ping-pong --domains 2
expect_cli_error "unknown mode" "'-m'" -- enumerate -s ping-pong -m weird
# only enumerate and diagram take --reduce: knowledge answers quantify
# over the unreduced universe
expect_cli_error "knows has no --reduce" "'--reduce'" -- knows -s ring --reduce sym
expect_cli_error "check has no --reduce" "'--reduce'" -- check -s ring --reduce full 'true'
expect_cli_error "extent has no --reduce" "'--reduce'" -- extent -s ring --reduce sym all_sent
# --reduce takes none|sym: a removed reduction is refused in one line
# that names the flag and the values it takes
expect_reduce_refused() { # expect_reduce_refused <what> -- <args...>
  local what="$1"; shift 2
  expect 2 "$what" -- "$@"
  local err
  err=$("$HPL" "$@" 2>&1 >/dev/null)
  if ! printf '%s' "$err" | grep -qF -- '--reduce' ||
    ! printf '%s' "$err" | grep -qF 'none|sym'; then
    echo "FAIL: $what: stderr does not name --reduce and none|sym:" >&2
    printf '%s\n' "$err" >&2
    fails=$((fails + 1))
  fi
}
expect_reduce_refused "enumerate --reduce por" -- enumerate -s quorum -d 9 --reduce por
expect_reduce_refused "enumerate --reduce full" -- enumerate -s ring --reduce full
expect_reduce_refused "diagram --reduce por" -- diagram -s ring --reduce por
expect 2 "diagram negative limit" -- diagram -s ring --limit=-1
expect 2 "diagram zero limit" -- diagram -s ring --limit 0

# --help documents hpl's own exit codes, not cmdliner's 123/124
help_exits=$("$HPL" enumerate --help=plain | sed -n '/^EXIT STATUS/,/^[A-Z]/p')
if ! printf '%s\n' "$help_exits" | grep -Eq '^ +3 +'; then
  echo "FAIL: enumerate --help: EXIT STATUS does not list 3" >&2
  fails=$((fails + 1))
fi
if printf '%s\n' "$help_exits" | grep -q '124'; then
  echo "FAIL: enumerate --help: EXIT STATUS lists cmdliner's 124" >&2
  fails=$((fails + 1))
fi

# -- simulations: integer flags are checked like --max-states ----------
expect 2 "termination zero processes" -- termination -n 0
expect 2 "gossip zero processes" -- gossip -n 0
expect 2 "deadlock zero processes" -- deadlock -n 0
expect 2 "mutex zero processes" -- mutex -n 0
expect 2 "election zero processes" -- election -n 0
expect 2 "snapshot zero processes" -- snapshot -n 0
expect 2 "termination negative budget" -- termination --budget=-5
expect 2 "termination negative fanout" -- termination --fanout=-1
expect 2 "mutex negative rounds" -- mutex --rounds=-1
expect 2 "paxos negative proposers" -- paxos --proposers=-1
expect 2 "paxos zero proposers" -- paxos --proposers 0
expect 2 "deadlock partial needs 3 processes" -- deadlock -n 2 --shape partial
expect_cli_error "unknown gossip mode" "'--mode'" -- gossip --mode bogus
expect_cli_error "unknown deadlock shape" "'--shape'" -- deadlock --shape bogus

# time flags are finite numbers; a negative crash time still means never
expect 2 "heartbeat negative timeout" -- heartbeat --timeout=-1
expect 2 "heartbeat zero timeout" -- heartbeat --timeout 0
expect 2 "heartbeat nan timeout" -- heartbeat --timeout nan
expect 2 "heartbeat infinite crash time" -- heartbeat --crash-at inf
expect 0 "heartbeat negative crash time" -- heartbeat --crash-at=-1
expect 2 "commit nan crash time" -- commit --crash-at nan
expect 2 "snapshot negative time" -- snapshot --at=-5
expect 2 "snapshot infinite time" -- snapshot --at inf
# commit --no names participants 1..n-1
expect 2 "commit no-voter out of range" -- commit --no 7
expect 2 "commit negative no-voter" -- commit --no=-1
expect 2 "commit coordinator as no-voter" -- commit --no 0

# -- recorded traces (knew, analyze) -----------------------------------
# -n must cover the trace's processes; --who and the --fact pid must
# name one of them; unreadable traces and unknown facts are bad
# arguments, not violated properties
tracedir=$(mktemp -d /tmp/hpl-traces.XXXXXX)
printf '%s\n' 'S 0 0 1 0 "m"' 'R 1 0 0 0 "m"' 'S 1 1 2 0 "m"' 'R 2 0 1 0 "m"' \
  > "$tracedir/relay.trace"
printf 'garbage\n' > "$tracedir/bad.trace"
expect 0 "knew on a 3-process trace" -- knew "$tracedir/relay.trace"
expect 0 "analyze on a 3-process trace" -- analyze "$tracedir/relay.trace" -n 3
expect 2 "knew observer out of range" -- knew "$tracedir/relay.trace" --who 9
expect 2 "knew negative observer" -- knew "$tracedir/relay.trace" --who=-1
expect 2 "knew non-integer fact pid" -- knew "$tracedir/relay.trace" --fact sent:x
expect 2 "knew negative fact pid" -- knew "$tracedir/relay.trace" --fact acted:-1
expect 2 "knew unknown fact kind" -- knew "$tracedir/relay.trace" --fact said:1
expect 2 "knew zero processes" -- knew "$tracedir/relay.trace" -n 0
expect 2 "knew malformed trace" -- knew "$tracedir/bad.trace"
expect 2 "knew missing trace" -- knew "$tracedir/missing.trace"
expect 2 "knew trace too long to replay" -- knew "$LONG_TRACE"
expect 2 "analyze zero processes" -- analyze "$tracedir/relay.trace" -n 0
expect 2 "analyze one process" -- analyze "$tracedir/relay.trace" -n 1
expect 2 "analyze two processes" -- analyze "$tracedir/relay.trace" -n 2
expect 2 "analyze malformed trace" -- analyze "$tracedir/bad.trace"
rm -rf "$tracedir"

# lint: clean spec exits 0, unlearnable assertion exits 1 with the rule named
expect 0 "lint clean" -- lint -s token-ring
expect 1 "lint unlearnable formula" -- lint -s underlying:3 --formula 'K p0 chaindone'
expect 1 "lint lossy gain chain" -- lint -s two-generals --faults 'drop:*' --formula 'K p1 attack'

# property violated: exit 1
expect 1 "failing formula" -- check -s token-ring 'AG holds0'

# -- .hpl spec files (-f) ----------------------------------------------
# Malformed specs die with ONE file:line:col line on stderr and exit 2;
# well-formed specs flow through the same subcommands as -s names.

hpldir=$(mktemp -d /tmp/hpl-specs.XXXXXX)

cat > "$hpldir/good.hpl" <<'EOF'
protocol good {
  param n = 3 min 2
  processes n
  depth 4
  process * {
    when sends < 1 => send "m" to (me + 1) % n
    when recvs < 1 => recv
  }
  atom moved at 0 = sends > 0
  symmetry rotation
}
EOF

cat > "$hpldir/bad_bounds.hpl" <<'EOF'
protocol badbounds {
  param n = 1 min 2 max 4
  processes n
}
EOF

cat > "$hpldir/bad_process.hpl" <<'EOF'
protocol badprocess {
  processes 2
  process 5 {
    when len < 1 => recv
  }
}
EOF

cat > "$hpldir/dup_atom.hpl" <<'EOF'
protocol dupatom {
  processes 2
  process * { when len < 1 => recv }
  atom seen at 0 = recvs > 0
  atom seen at 1 = recvs > 0
}
EOF

cat > "$hpldir/bad_symmetry.hpl" <<'EOF'
protocol badsymmetry {
  processes 3
  process * { when len < 1 => recv }
  symmetry spin
}
EOF

# well-formed spec: the universe subcommands accept it like a -s name
expect 0 "hpl file enumerate" -- enumerate -f "$hpldir/good.hpl"
expect 0 "hpl file with params" -- enumerate -f "$hpldir/good.hpl:4"
expect 0 "hpl file knows" -- knows -f "$hpldir/good.hpl"
expect 0 "hpl file lint" -- lint -f "$hpldir/good.hpl"
expect 0 "hpl file check" -- check -f "$hpldir/good.hpl" 'AG (moved -> K p0 moved)'
expect 0 "hpl file reduce" -- enumerate -f "$hpldir/good.hpl" --reduce sym
expect 0 "hpl file list" -- list -v -f "$hpldir/good.hpl"

# malformed specs: one-line file:line:col diagnostic, exit 2
expect 2 "hpl bad param bounds" -- enumerate -f "$hpldir/bad_bounds.hpl"
expect 2 "hpl undeclared process" -- enumerate -f "$hpldir/bad_process.hpl"
expect 2 "hpl duplicate atom" -- knows -f "$hpldir/dup_atom.hpl"
expect 2 "hpl bad symmetry" -- lint -f "$hpldir/bad_symmetry.hpl"
expect 2 "hpl missing spec file" -- enumerate -f "$hpldir/nowhere.hpl"
expect 2 "hpl -f param out of range" -- enumerate -f "$hpldir/good.hpl:1"
expect 2 "hpl -f non-integer param" -- enumerate -f "$hpldir/good.hpl:x"
expect 2 "hpl -f with -s" -- enumerate -s ring -f "$hpldir/good.hpl"
expect 2 "hpl lint --all with -f" -- lint --all -f "$hpldir/good.hpl"

# the diagnostic carries a source position
pos_err=$("$HPL" enumerate -f "$hpldir/bad_bounds.hpl" 2>&1 >/dev/null)
case "$pos_err" in
*bad_bounds.hpl:2:*) ;;
*)
  echo "FAIL: bad-bounds diagnostic lacks file:line:col: $pos_err" >&2
  fails=$((fails + 1))
  ;;
esac

# seeded fuzz: generated specs load, lint clean, and satisfy the laws
expect 0 "hpl fuzz" -- fuzz --seed 7 --count 5
expect 2 "hpl fuzz bad count" -- fuzz --count 0

# -- flow (abstract interpretation) ------------------------------------
# Same discipline: 0 = clean (or every finding expected), 1 = an
# unexpected warning-level finding, 2 = bad arguments.

cat > "$hpldir/dead_rule.hpl" <<'EOF'
protocol deadrule {
  processes 2
  process 0 {
    when sends == 0 => send "m" to 1
    when recvs("nope") >= 1 => send "m" to 1
  }
  process 1 {
    when len < 2 => recv
  }
}
EOF

expect 0 "flow clean spec" -- flow -f "$hpldir/good.hpl"
expect 0 "flow registry protocol" -- flow -s quorum
expect 0 "flow registry gate" -- flow --all
expect 1 "flow dead rule" -- flow -f "$hpldir/dead_rule.hpl"
expect 2 "flow -f with -s" -- flow -f "$hpldir/good.hpl" -s quorum
expect 2 "flow unknown protocol" -- flow -s no-such-protocol
expect 2 "flow protocol without a port" -- flow -s token-bus
expect 2 "flow --all with -s" -- flow --all -s quorum
expect 2 "flow --all with -f" -- flow --all -f "$hpldir/good.hpl"
expect 2 "flow missing spec file" -- flow -f "$hpldir/nowhere.hpl"

# the dead-rule finding pins the whole guard with a span (line:col-ecol)
flow_out=$("$HPL" flow -f "$hpldir/dead_rule.hpl" 2>/dev/null)
case "$flow_out" in
*dead_rule.hpl:5:*-*) ;;
*)
  echo "FAIL: flow dead-rule finding lacks a guard span: $flow_out" >&2
  fails=$((fails + 1))
  ;;
esac

rm -rf "$hpldir"

# budget truncation: exit 3
expect 3 "state budget" -- enumerate -s chatter:3 -d 8 --max-states 50

# -- mc (Monte Carlo estimation) ---------------------------------------
# Same discipline: 0 = estimate computed, 1 = estimated-violated at the
# CI level (or a confident degraded/destroyed --robust verdict), 2 = bad
# arguments, 3 = wall-clock budget cut sampling short.

expect 0 "mc trivial estimate" -- mc -s ping-pong --formula 'true' --runs 200
expect 0 "mc knowledge estimate" -- mc -s ping-pong --formula 'K p0 sent' --runs 100
expect 0 "mc faulty estimate" -- mc -s ping-pong --faults 'drop:p1->p0' --formula 'true' --runs 100
expect 1 "mc violated estimate" -- mc -s ping-pong --formula 'false' --runs 100
expect 1 "mc partitioned knowledge" -- mc -s two-generals --faults 'partition:p0@0-99' --formula 'K p1 attack' --depth 12 --runs 100
expect 1 "mc robust degraded" -- mc -s two-generals --faults 'drop:*' --formula 'CK attack' --depth 15 --runs 100 --robust
expect 2 "mc missing formula" -- mc -s ping-pong
expect 2 "mc formula parse error" -- mc -s ping-pong --formula 'K (('
expect 2 "mc temporal rejected" -- mc -s ping-pong --formula 'AG true'
expect 2 "mc unknown atom" -- mc -s ping-pong --formula 'K p0 nonsense'
expect 2 "mc pid out of range" -- mc -s ping-pong --formula 'K p9 sent'
expect 2 "mc bad runs" -- mc -s ping-pong --formula 'true' --runs 0
expect 2 "mc bad seed" -- mc -s ping-pong --formula 'true' --seed x
expect 2 "mc bad ci" -- mc -s ping-pong --formula 'true' --ci 1.5
expect 2 "mc robust without faults" -- mc -s ping-pong --formula 'true' --robust
expect 2 "mc malformed partition" -- mc -s ping-pong --formula 'true' --faults 'partition:p0@5'
expect 2 "mc empty partition group" -- mc -s ping-pong --formula 'true' --faults 'partition:@1-2'
expect 2 "mc partition pid range" -- mc -s ping-pong --formula 'true' --faults 'partition:p0|p9@1-2'
expect 2 "mc whole-system partition" -- mc -s ping-pong --formula 'true' --faults 'partition:p0|p1@1-2'
expect 2 "mc bad recover count" -- mc -s ping-pong --formula 'true' --faults 'crash:p0@1,recover:p0@0'
expect 2 "mc recover without crash" -- mc -s ping-pong --formula 'true' --faults 'recover:p0@1'
expect 2 "mc unknown drop channel" -- mc -s ring:3 --faults 'drop:p0->p2' --formula 'true'
mc_err=$("$HPL" mc -s ring:3 --faults 'drop:p0->p2' --formula 'true' 2>&1 >/dev/null)
knows_err=$("$HPL" knows -s ring:3 --faults 'drop:p0->p2' 2>&1 >/dev/null)
if [ "$mc_err" != "$knows_err" ]; then
  echo "FAIL: mc unknown drop channel: stderr differs from knows: $mc_err" >&2
  fails=$((fails + 1))
fi
expect 3 "mc time budget" -- mc -s two-generals --formula 'CK attack' --depth 15 --runs 10000000 --max-seconds 0.1

# -- observability golden shapes ---------------------------------------

# --stats: the aggregate table with the three section headers and a row
# for the enumerate span
stats_out=$("$HPL" enumerate -s two-generals --depth 6 --stats 2>/dev/null)
for pat in '^span  *count  *total  *max$' '^counter  *value$' \
  '^gauge  *last  *max$' '^  enumerate  ' '^  enumerate\.frontier  ' \
  '^  enumerate\.states  *7$'; do
  if ! printf '%s\n' "$stats_out" | grep -Eq "$pat"; then
    echo "FAIL: --stats table: no line matching '$pat'" >&2
    fails=$((fails + 1))
  fi
done

# --stats-json: the last stdout line is one JSON object with the three
# documented schema keys
json_line=$("$HPL" enumerate -s two-generals --depth 6 --stats-json 2>/dev/null | tail -n 1)
case "$json_line" in
{*}) ;;
*)
  echo "FAIL: --stats-json: last line is not a JSON object: $json_line" >&2
  fails=$((fails + 1))
  ;;
esac
for key in '"spans":' '"counters":' '"gauges":' '"total_us":'; do
  if ! printf '%s' "$json_line" | grep -qF "$key"; then
    echo "FAIL: --stats-json: missing $key" >&2
    fails=$((fails + 1))
  fi
done

# --profile: unwritable path is a usage error (one line, exit 2)
expect 2 "unwritable profile path" -- enumerate -s ping-pong --profile /no-such-dir/t.json

# --profile: a Chrome trace-event array lands on disk
profile=$(mktemp /tmp/hpl-profile.XXXXXX.json)
if "$HPL" enumerate -s two-generals --depth 6 --profile "$profile" >/dev/null 2>&1; then
  case "$(head -c 1 "$profile")" in
  '[') ;;
  *)
    echo "FAIL: --profile: file does not start with '['" >&2
    fails=$((fails + 1))
    ;;
  esac
  for key in '"ph"' '"tid"' '"ts"' '"name"'; do
    if ! grep -qF "$key" "$profile"; then
      echo "FAIL: --profile: no $key field in trace" >&2
      fails=$((fails + 1))
    fi
  done
else
  echo "FAIL: --profile: enumerate exited nonzero" >&2
  fails=$((fails + 1))
fi
rm -f "$profile"

# the flags ride along on the other instrumented subcommands too
expect 0 "knows --stats" -- knows -s ping-pong --stats
expect 0 "check --stats-json" -- check -s token-ring 'AG (holds0 -> ~holds1)' --stats-json
expect 0 "lint --stats" -- lint -s token-ring --stats

# -- extent (the CLI face of the server's extent op) -------------------

expect 0 "extent ok" -- extent -s ping-pong sent -d 6
expect 2 "extent unknown atom" -- extent -s ping-pong bogus
expect 2 "extent unknown protocol" -- extent -s no-such-protocol sent

# -- serve: argument discipline ----------------------------------------

expect 2 "serve without transport" -- serve
expect 2 "serve both transports" -- serve --pipe --socket /tmp/hpl-ce.sock
expect 2 "serve bad cache budget" -- serve --pipe --max-cached-states 0
expect 2 "serve unbindable socket" -- serve --socket /no-such-dir/hpl.sock
expect 2 "serve cache dir is a file" -- serve --pipe --cache-dir "$0"

# a socket path occupied by a regular file is refused, not clobbered
notsock=$(mktemp /tmp/hpl-notsock.XXXXXX)
expect 2 "serve socket path is a file" -- serve --socket "$notsock"
if [ ! -f "$notsock" ]; then
  echo "FAIL: serve clobbered a non-socket file at its --socket path" >&2
  fails=$((fails + 1))
fi
rm -f "$notsock"

# -- serve: one --pipe session end to end ------------------------------
# Frame discipline: a malformed frame and an unknown protocol get
# exit-2-style JSON error replies mid-stream (the daemon keeps going),
# a good request answers with the CLI's exact extent line, and EOF
# after shutdown is a clean exit 0.

serve_out=$(printf '%s\n' \
  '{"op":"extent","protocol":"ping-pong","depth":6,"atom":"sent","id":1}' \
  'this is not json' \
  '{"op":"knows","protocol":"no-such-protocol","id":2}' \
  '{"op":"extent","protocol":"ping-pong","depth":6,"atom":"sent","id":3}' \
  '{"op":"shutdown","id":4}' |
  "$HPL" serve --pipe 2>/dev/null)
serve_code=$?
if [ "$serve_code" -ne 0 ]; then
  echo "FAIL: serve --pipe session: expected exit 0, got $serve_code" >&2
  fails=$((fails + 1))
fi
if [ "$(printf '%s\n' "$serve_out" | grep -c .)" -ne 5 ]; then
  echo "FAIL: serve --pipe: expected 5 reply frames, got:" >&2
  printf '%s\n' "$serve_out" >&2
  fails=$((fails + 1))
fi
check_frame() { # check_frame <line-no> <what> <pattern...>
  local n="$1" what="$2"; shift 2
  local frame
  frame=$(printf '%s\n' "$serve_out" | sed -n "${n}p")
  for pat in "$@"; do
    if ! printf '%s' "$frame" | grep -qF "$pat"; then
      echo "FAIL: serve --pipe $what: no '$pat' in: $frame" >&2
      fails=$((fails + 1))
    fi
  done
}
cli_extent=$("$HPL" extent -s ping-pong sent -d 6 | tail -n 1)
check_frame 1 "good extent" '"id":1' '"ok":true' '"exit":0' "$cli_extent"
check_frame 1 "cold cache" '"cache":"miss"'
check_frame 2 "malformed frame" '"ok":false' '"exit":2' 'hpl: malformed frame'
check_frame 3 "unknown protocol" '"id":2' '"ok":false' '"exit":2' 'hpl: '
check_frame 4 "warm repeat" '"id":3' '"cache":"hit"' "$cli_extent"
check_frame 5 "shutdown" '"id":4' '"op":"shutdown"' '"exit":0'

# EOF without shutdown is also a clean stop
if ! printf '%s\n' '{"op":"server-stats"}' | "$HPL" serve --pipe >/dev/null 2>&1; then
  echo "FAIL: serve --pipe: EOF should exit 0" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "cli_errors: $fails failure(s)" >&2
  exit 1
fi
echo "cli_errors: all checks passed"
