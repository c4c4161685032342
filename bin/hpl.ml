(* hpl — explore "How Processes Learn" systems from the command line.

   Universe-driven subcommands take the protocol either from the
   registry (-s name[:v1...]) or from a .hpl spec file
   (-f path[:v1...]); both produce the same Protocol.instance, so
   --depth/--faults/--reduce/--stats behave identically. *)
open Cmdliner
open Hpl_core
open Hpl_faults
open Hpl_protocols
open Hpl_analysis
module Mc = Hpl_mc.Mc

(* Exit codes: 0 ok; 1 property violated; 2 bad arguments; 3 the
   enumeration budget truncated the universe. *)
let exit_violated = 1
let exit_usage = 2
let exit_truncated = 3

(* Bad [-s]/[--depth]/[--faults]/budget arguments die with one line on
   stderr and exit 2 — which is why those flags are parsed here as
   strings rather than through [Arg.conv] (whose failures exit with
   cmdliner's generic CLI error code). *)
let die_usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("hpl: " ^ m);
      exit exit_usage)
    fmt

(* -- protocol selection ------------------------------------------------ *)

(* Every protocol comes from the registry: one generic [name[:v1[:v2]]]
   parser replaces the old hardcoded system variant. *)
let () = Builtins.init ()

let proto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "system" ] ~docv:"PROTOCOL"
        ~doc:
          "Registered protocol, as $(b,name[:v1[:v2...]]) with positional \
           integer parameters, e.g. $(b,token-bus:7). Run $(b,hpl list) for \
           the full registry. Default: $(b,ping-pong).")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:
          "Load the protocol from a $(b,.hpl) spec file instead of the \
           registry, as $(b,path[:v1[:v2...]]) with positional integer \
           parameters, e.g. $(b,corpus/specs/ring.hpl:4). Mutually \
           exclusive with $(b,-s).")

(* Request resolution and answer rendering are shared with the [serve]
   daemon: [Hpl_serve.Query] owns them (conformance by construction —
   see DESIGN.md §14), and this layer only turns [Error] results into
   exit-2 diagnostics. *)
module Query = Hpl_serve.Query

let die = function Ok v -> v | Error m -> die_usage "%s" m

(* an optional raw argument through one of [Query]'s validators *)
let opt_arg parse = Option.map (fun s -> die (parse s))

(* An option read as a string and checked by [parse] (one of [Query]'s
   validators), so a bad value dies with one line and exit 2 like
   [--max-states], not with cmdliner's generic error. *)
let checked_arg parse ~docv ~show name ~default ~doc =
  let flag = (if String.length name = 1 then "-" else "--") ^ name in
  let raw = Arg.(value & opt string (show default) & info [ name ] ~docv ~doc) in
  Term.(const (fun s -> die (parse flag s)) $ raw)

let int_arg parse = checked_arg parse ~docv:"N" ~show:string_of_int
let pos_int_arg = int_arg Query.parse_pos_int

(* a simulated time; [sign] as in [Query.parse_finite_float] *)
let time_arg sign =
  checked_arg
    (fun flag -> Query.parse_finite_float flag sign)
    ~docv:"T" ~show:(Printf.sprintf "%g")

(* One EXIT STATUS section for every subcommand's --help. *)
let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success.";
      info exit_violated
        ~doc:"when a property is violated or a check reports findings.";
      info exit_usage ~doc:"on bad arguments.";
      info exit_truncated ~doc:"when a budget truncated the run.";
      info internal_error ~doc:"on an internal error (an uncaught exception).";
    ]

(* [-s] and [-f] are two sources for the same thing: a loaded spec flows
   through enumeration, knowledge, checking, linting and reduction as an
   ordinary instance. The returned [loaded] AST (for [-f] specs) is what
   the flow analyzer reads; OCaml rule closures are opaque, so for a
   registry protocol it reads the embedded spec that defines it, if
   any. *)
let resolve_proto proto_str file_str =
  die (Query.resolve_proto ?proto:proto_str ?file:file_str ())

let depth_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "depth" ] ~docv:"DEPTH"
        ~doc:"Enumeration depth bound (default: the protocol's suggested depth).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SCENARIO"
        ~doc:
          "Fault scenario applied to the system before enumeration, e.g. \
           $(b,crash:p1@2,drop:p0->p1) or $(b,drop:*). Items: \
           $(b,crash:pN@K), $(b,crash-any:K), $(b,drop:pA->pB), \
           $(b,dup:pA->pB).")

let max_states_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:
          "Stop enumerating after N stored computations (graceful \
           truncation, exit code 3).")

let max_seconds_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "max-seconds" ] ~docv:"S"
        ~doc:"Stop enumerating after S seconds of CPU time (exit code 3).")

(* Everything a universe-driven subcommand needs, resolved from the raw
   string arguments (with exit-2 diagnostics on bad input) — the same
   [Query.setup] the server resolves per request. *)
let resolve proto file depth faults max_states max_seconds =
  die (Query.resolve ?proto ?file ?depth ?faults ?max_states ?max_seconds ())

(* -- observability flags ----------------------------------------------- *)

(* Shared by every instrumented subcommand: [--stats] appends the
   aggregate table, [--stats-json] appends one line of JSON,
   [--profile FILE] writes the Chrome trace-event timeline. Any of the
   three enables recording; otherwise every probe stays a single
   disabled-flag branch. *)
type obs_opts = { stats : bool; stats_json : bool; profile : string option }

let obs_term =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print an observability summary (spans, counters, gauges).")
  in
  let stats_json =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:"Print the observability summary as one line of JSON.")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event profile (load it in \
             about://tracing or ui.perfetto.dev).")
  in
  Term.(
    const (fun stats stats_json profile -> { stats; stats_json; profile })
    $ stats $ stats_json $ profile)

let obs_setup o =
  if o.stats || o.stats_json || o.profile <> None then Hpl_obs.enable ()

(* Emit before any exit path so --stats/--profile survive exit 1/3. *)
let obs_emit o =
  if o.stats then print_string (Hpl_obs.stats_table ());
  if o.stats_json then print_endline (Hpl_obs.stats_json ());
  match o.profile with
  | None -> ()
  | Some path -> (
      match Hpl_obs.write_profile path with
      | Ok () -> ()
      | Error e -> die_usage "--profile: %s" e)

(* Report a truncated universe on stderr and exit 3 — after the
   subcommand has printed what it could (graceful degradation). *)
let exit_on_truncation u =
  match Universe.status u with
  | Universe.Complete -> ()
  | Universe.Truncated r ->
      Printf.eprintf "hpl: enumeration truncated: %s\n"
        (Universe.reason_to_string r);
      exit exit_truncated

let mode_arg =
  let mode_of_string = function
    | "full" -> Ok `Full
    | "canonical" -> Ok `Canonical
    | _ -> Error (`Msg "mode is 'full' or 'canonical'")
  in
  let mode_conv =
    Arg.conv
      ( mode_of_string,
        fun fmt m ->
          Format.pp_print_string fmt
            (match m with `Full -> "full" | `Canonical -> "canonical") )
  in
  Arg.(
    value
    & opt mode_conv `Canonical
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Enumeration mode: 'full' (all interleavings) or 'canonical'.")

let reduce_arg =
  Arg.(
    value & opt string "none"
    & info [ "reduce" ] ~docv:"R"
        ~doc:
          "What $(b,enumerate) and $(b,diagram) store (DESIGN.md §10): \
           'none', every computation, or 'sym', one computation per orbit \
           of the protocol's declared symmetry group (see $(b,hpl list \
           -v)). $(b,knows), $(b,check) and $(b,extent) take no reduction: \
           their answers quantify over every computation.")

let resolve_reduce st ~mode reduce_str =
  die (Query.resolve_reduce st ~mode reduce_str)

(* Print a [Query.outcome] the way the CLI always has: stdout bytes,
   observability output, stderr bytes, exit code. Usage errors (exit 2)
   skip the observability report, matching the historical die_usage
   paths. *)
let emit_outcome obs (o : Query.outcome) =
  print_string o.Query.out;
  if o.Query.code <> exit_usage then obs_emit obs;
  if o.Query.err <> "" then prerr_string o.Query.err;
  if o.Query.code <> 0 then exit o.Query.code

(* -- enumerate ---------------------------------------------------------- *)

let enumerate proto file depth faults max_states max_seconds mode reduce
    verbose obs =
  obs_setup obs;
  let st = resolve proto file depth faults max_states max_seconds in
  let reduce = resolve_reduce st ~mode reduce in
  let u = Query.enumerate ~mode st ~reduce in
  let o = Query.run_stats u in
  print_string o.Query.out;
  if verbose then
    Universe.iter (fun i z -> Format.printf "%4d: %a@." i Trace.pp z) u;
  obs_emit obs;
  if o.Query.err <> "" then prerr_string o.Query.err;
  if o.Query.code <> 0 then exit o.Query.code

let enumerate_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every computation.")
  in
  Cmd.v
    (Cmd.info ~exits "enumerate" ~doc:"Enumerate a protocol's bounded computation universe")
    Term.(
      const enumerate $ proto_arg $ file_arg $ depth_arg $ faults_arg
      $ max_states_arg $ max_seconds_arg $ mode_arg $ reduce_arg
      $ verbose $ obs_term)

(* -- diagram ------------------------------------------------------------- *)

let diagram proto file depth faults max_states max_seconds mode reduce limit =
  let st = resolve proto file depth faults max_states max_seconds in
  let reduce = resolve_reduce st ~mode reduce in
  let u = Query.enumerate ~mode st ~reduce in
  let size = min limit (Universe.size u) in
  let named =
    Universe.fold
      (fun i z acc -> if i < size then (string_of_int i, z) :: acc else acc)
      u []
    |> List.rev
  in
  let dg =
    Iso_diagram.of_computations ~all:(Spec.all (Universe.spec u)) named
  in
  print_string (Iso_diagram.to_dot dg);
  exit_on_truncation u

let diagram_cmd =
  let limit = pos_int_arg "limit" ~default:16 ~doc:"Cap on diagram vertices." in
  Cmd.v
    (Cmd.info ~exits "diagram" ~doc:"Emit the isomorphism diagram as Graphviz DOT")
    Term.(
      const diagram $ proto_arg $ file_arg $ depth_arg $ faults_arg
      $ max_states_arg $ max_seconds_arg $ mode_arg $ reduce_arg $ limit)

(* -- knows ---------------------------------------------------------------- *)

let knows proto file depth faults max_states max_seconds obs =
  obs_setup obs;
  let st = resolve proto file depth faults max_states max_seconds in
  let u = Query.enumerate st ~reduce:None in
  emit_outcome obs (Query.run_knows st u)

let knows_cmd =
  Cmd.v
    (Cmd.info ~exits "knows" ~doc:"Summarize who knows what across a universe")
    Term.(
      const knows $ proto_arg $ file_arg $ depth_arg $ faults_arg
      $ max_states_arg $ max_seconds_arg $ obs_term)

(* -- extent --------------------------------------------------------------- *)

(* The smallest knowledge query: in how many stored computations does
   one named atom hold? Exists chiefly so the serve conformance battery
   can exercise the server's extent op against a CLI twin. *)
let extent proto file depth faults max_states max_seconds atom obs =
  obs_setup obs;
  let st = resolve proto file depth faults max_states max_seconds in
  let u = Query.enumerate st ~reduce:None in
  emit_outcome obs (Query.run_extent st u ~atom)

let extent_cmd =
  let atom =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ATOM"
          ~doc:"Registered atom name (run $(b,hpl list -v) for the atoms).")
  in
  Cmd.v
    (Cmd.info ~exits "extent"
       ~doc:"Count the computations of a universe where one named atom holds")
    Term.(
      const extent $ proto_arg $ file_arg $ depth_arg $ faults_arg
      $ max_states_arg $ max_seconds_arg $ atom $ obs_term)

(* -- termination ------------------------------------------------------------ *)

let termination budget n fanout seed dump obs =
  obs_setup obs;
  let params =
    { Underlying.default with n; budget; fanout; seed = Int64.of_int seed }
  in
  let config = { Hpl_sim.Engine.default with seed = Int64.of_int seed } in
  Printf.printf "%s\n" Termination.row_header;
  List.iter
    (fun r -> Printf.printf "%s\n" (Termination.report_row r))
    [
      Dijkstra_scholten.run ~config params;
      Credit.run ~config params;
      Safra.run ~config ~round_delay:2.0 params;
      Snapshot_term.run ~config ~attempt_delay:3.0 params;
      Probe.run ~config ~wave_delay:2.0 ~mode:`Four_counter params;
      Probe.run ~config ~wave_delay:2.0 ~mode:`Naive params;
    ];
  (match dump with
  | None -> ()
  | Some path ->
      let _, z = Dijkstra_scholten.run_raw ~config params in
      Trace_io.save path z;
      Printf.printf "DS run saved to %s\n" path);
  obs_emit obs

let termination_cmd =
  let budget =
    pos_int_arg "budget" ~default:100 ~doc:"Underlying message budget."
  in
  let n = pos_int_arg "n" ~default:6 ~doc:"Number of processes." in
  let fanout =
    int_arg Query.parse_nonneg_int "fanout" ~default:3
      ~doc:"Max spawns per delivery."
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  let dump =
    Arg.(
      value & opt (some string) None
      & info [ "dump" ] ~docv:"FILE" ~doc:"Save the DS run's trace for 'hpl analyze'.")
  in
  Cmd.v
    (Cmd.info ~exits "termination"
       ~doc:"Compare termination detectors on a diffusing workload (§5)")
    Term.(const termination $ budget $ n $ fanout $ seed $ dump $ obs_term)

(* -- heartbeat ---------------------------------------------------------------- *)

let heartbeat timeout crash =
  let params =
    {
      Failure_detector.default with
      timeout;
      crash_time = (if crash < 0.0 then None else Some crash);
    }
  in
  let o = Failure_detector.run params in
  Printf.printf "false suspicions: %d\nmissed crashes:  %d\ndetection time:  %s\n"
    o.Failure_detector.false_suspicions o.Failure_detector.missed
    (match o.Failure_detector.detection_time with
    | Some t -> Printf.sprintf "%.1f" t
    | None -> "-")

let heartbeat_cmd =
  let timeout =
    time_arg `Positive "timeout" ~default:20.0 ~doc:"Suspicion timeout."
  in
  let crash =
    time_arg `Any "crash-at" ~default:100.0
      ~doc:"Crash injection time (negative: no crash)."
  in
  Cmd.v
    (Cmd.info ~exits "heartbeat" ~doc:"Run the timeout-based failure detector (§5)")
    Term.(const heartbeat $ timeout $ crash)

(* -- gossip -------------------------------------------------------------------- *)

let gossip n seed mode obs =
  obs_setup obs;
  let o = Gossip.run { Gossip.default with n; mode; seed = Int64.of_int seed } in
  Printf.printf "all informed: %b  messages: %d\n" o.Gossip.all_informed
    o.Gossip.messages;
  Array.iteri
    (fun i t ->
      Printf.printf "  p%-3d informed at %s\n" i
        (match t with Some t -> Printf.sprintf "%.1f" t | None -> "never"))
    o.Gossip.informed_time;
  Printf.printf "everyone-knows-everyone-knows at: %s\n"
    (match o.Gossip.depth2_complete_time with
    | Some t -> Printf.sprintf "%.1f" t
    | None -> "-");
  obs_emit obs

let gossip_cmd =
  let n = pos_int_arg "n" ~default:8 ~doc:"Number of processes." in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Random seed.") in
  let modes =
    [ ("push", Gossip.Push); ("pull", Gossip.Pull); ("push-pull", Gossip.Push_pull) ]
  in
  let mode =
    Arg.(
      value & opt (enum modes) Gossip.Push
      & info [ "mode" ] ~docv:"MODE" ~doc:"$(b,push), $(b,pull), or $(b,push-pull).")
  in
  Cmd.v
    (Cmd.info ~exits "gossip" ~doc:"Run the rumor-spreading simulation")
    Term.(const gossip $ n $ seed $ mode $ obs_term)

(* -- analyze --------------------------------------------------------------------- *)

(* A recorded trace for [analyze] and [knew], with its process count:
   [-n] when given, which must cover every pid in the trace, else one
   past the largest pid. *)
let load_trace path nprocs =
  let z = match Trace_io.load path with Ok z -> z | Error e -> die_usage "%s" e in
  let seen =
    1 + List.fold_left (fun m e -> max m (Pid.to_int e.Event.pid)) 0 (Trace.to_list z)
  in
  match nprocs with
  | Some n when n < seen ->
      die_usage "-n %d: the trace needs at least %d processes" n seen
  | Some n -> (z, n)
  | None -> (z, seen)

let analyze path nprocs =
  let z, n = load_trace path nprocs in
  Printf.printf "processes:     %d\n" n;
  Format.printf "%a@." Trace_stats.pp (Trace_stats.compute ~n z);
  Printf.printf "fifo channels: %b\n" (Hpl_clocks.Causal_order.fifo_per_channel z);
  Printf.printf "causal order:  %b\n"
    (Hpl_clocks.Causal_order.delivers_causally ~n z);
  if Trace.length z <= 14 then
    Printf.printf "consistent cuts: %d\n" (Cut.count_consistent ~n z)
  else Printf.printf "consistent cuts: (trace too long to enumerate)\n"

let analyze_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let nprocs =
    Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Process count (inferred if omitted).")
  in
  Cmd.v
    (Cmd.info ~exits "analyze" ~doc:"Analyze a saved trace: causality, channels, cuts")
    Term.(const analyze $ path $ nprocs)

(* -- deadlock -------------------------------------------------------------------- *)

let deadlock_cmd =
  let shape =
    Arg.(
      value
      & opt (enum [ ("ring", `Ring); ("chain", `Chain); ("partial", `Partial) ]) `Ring
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:"Wait-for graph: $(b,ring), $(b,chain), or $(b,partial).")
  in
  let n = pos_int_arg "n" ~default:5 ~doc:"Number of processes." in
  let run shape n =
    let params =
      match shape with
      | `Chain -> Deadlock.chain_no_deadlock ~n
      | `Partial ->
          (* its wait-for edges name p0, p1 and p2 *)
          if n < 3 then die_usage "--shape partial needs -n 3 or more";
          Deadlock.of_edges ~n [ (0, 1); (1, 2); (2, 1) ]
      | `Ring -> Deadlock.ring_deadlock ~n
    in
    let o = Deadlock.run params in
    Array.iteri
      (fun i d -> Printf.printf "p%d: %s\n" i (if d then "deadlocked" else "ok"))
      o.Deadlock.declared;
    Printf.printf "matches wait-for-graph ground truth: %b (%d probes)\n"
      o.Deadlock.correct o.Deadlock.probes
  in
  Cmd.v
    (Cmd.info ~exits "deadlock" ~doc:"Run Chandy-Misra-Haas deadlock detection")
    Term.(const run $ shape $ n)

(* -- mutex ----------------------------------------------------------------------- *)

let mutex_cmd =
  let n = pos_int_arg "n" ~default:4 ~doc:"Number of processes." in
  let rounds = pos_int_arg "rounds" ~default:3 ~doc:"CS entries per process." in
  let run n rounds =
    let o = Lamport_mutex.run { Lamport_mutex.default with n; rounds } in
    Printf.printf
      "mutual exclusion: %b\nall rounds served: %b\ntimestamp order: %b\nmessages/entry: %.1f (theory %d)\n"
      o.Lamport_mutex.mutual_exclusion o.Lamport_mutex.all_rounds_served
      o.Lamport_mutex.timestamp_order_respected o.Lamport_mutex.messages_per_entry
      (3 * (n - 1))
  in
  Cmd.v
    (Cmd.info ~exits "mutex" ~doc:"Run Lamport's timestamp mutual exclusion")
    Term.(const run $ n $ rounds)

(* -- election --------------------------------------------------------------------- *)

let election_cmd =
  let n = pos_int_arg "n" ~default:8 ~doc:"Ring size." in
  let seed = Arg.(value & opt int 19 & info [ "seed" ] ~doc:"Id shuffle seed.") in
  let run n seed =
    let o = Chang_roberts.run { Chang_roberts.default with n; seed = Int64.of_int seed } in
    Printf.printf "leader: %s\nagreed: %b\nelection messages: %d (best %d, worst %d)\n"
      (match o.Chang_roberts.leader with Some l -> "p" ^ string_of_int l | None -> "-")
      o.Chang_roberts.agreed o.Chang_roberts.election_messages
      ((2 * n) - 1)
      (n * (n + 1) / 2)
  in
  Cmd.v
    (Cmd.info ~exits "election" ~doc:"Run Chang-Roberts leader election")
    Term.(const run $ n $ seed)

(* -- knew (post-mortem knowledge on a trace file) ----------------------------------- *)

let knew path nprocs who atom =
  let z, n = load_trace path nprocs in
  let pid flag i =
    if i < 0 || i >= n then
      die_usage "%s: %d is not a process of the trace (0..%d)" flag i (n - 1);
    Pid.of_int i
  in
  let fact_pid p =
    match int_of_string_opt p with
    | Some i -> pid "--fact" i
    | None -> die_usage "--fact %s: %S is not a process number" atom p
  in
  let observer = pid "--who" who in
  let holds =
    match String.split_on_char ':' atom with
    | [ "acted"; p ] ->
        let p = fact_pid p in
        fun c -> Trace.local_length c p > 0
    | [ "sent"; p ] ->
        let p = fact_pid p in
        fun c -> Trace.send_count c p > 0
    | [ "received"; p ] ->
        let p = fact_pid p in
        fun c -> List.exists Event.is_receive (Trace.proj c p)
    | _ -> die_usage "unknown --fact %S (use acted:N, sent:N, received:N)" atom
  in
  if Trace.length z > 16 then
    die_usage
      "trace has %d events; replay universes are exponential — use a run of \
       ≤ 16 events"
      (Trace.length z);
  match Replay.knew_at ~n z (Pset.singleton observer) (Prop.make atom holds) with
  | Some k when k < 0 -> Printf.printf "p%d knew %S before any event\n" who atom
  | Some k ->
      Format.printf "p%d first knew %S after event %d: %a@." who atom k
        Event.pp (Trace.nth z k)
  | None -> Printf.printf "p%d never knew %S during this run\n" who atom

let knew_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let nprocs =
    Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Process count (inferred if omitted).")
  in
  let who =
    Arg.(value & opt int 1 & info [ "who" ] ~doc:"Observer process index.")
  in
  let atom =
    Arg.(
      value & opt string "sent:0"
      & info [ "fact" ] ~doc:"Fact: acted:N, sent:N, or received:N.")
  in
  Cmd.v
    (Cmd.info ~exits "knew"
       ~doc:"When could a process first know a fact, given a recorded run?")
    Term.(const knew $ path $ nprocs $ who $ atom)

(* -- consensus / commit -------------------------------------------------------------- *)

let paxos_cmd =
  let proposers = pos_int_arg "proposers" ~default:2 ~doc:"Contending proposers." in
  let seed = Arg.(value & opt int 53 & info [ "seed" ] ~doc:"Random seed.") in
  let run proposers seed =
    let o = Paxos.run { Paxos.default with proposers; seed = Int64.of_int seed } in
    Printf.printf "agreement: %b\nvalidity: %b\ndecided: %b\nballots: %d\nmessages: %d\n"
      o.Paxos.agreement o.Paxos.validity o.Paxos.any_decision o.Paxos.ballots_started
      o.Paxos.messages
  in
  Cmd.v
    (Cmd.info ~exits "paxos" ~doc:"Run single-decree Paxos")
    Term.(const run $ proposers $ seed)

let commit_cmd =
  let crash =
    time_arg `Any "crash-at" ~default:(-1.0)
      ~doc:"Crash the coordinator (negative: never)."
  in
  let no_voters =
    Arg.(value & opt (list int) [] & info [ "no" ] ~doc:"Participants voting NO.")
  in
  let run crash no_voters =
    let n = Two_phase_commit.default.Two_phase_commit.n in
    List.iter
      (fun p ->
        if p < 1 || p >= n then
          die_usage "--no %d: not a participant (they are 1..%d)" p (n - 1))
      no_voters;
    let o =
      Two_phase_commit.run
        {
          Two_phase_commit.default with
          no_voters;
          crash_coordinator_at = (if crash < 0.0 then None else Some crash);
        }
    in
    Array.iteri
      (fun i d ->
        Printf.printf "p%d: %s\n" i
          (match d with Some d -> d | None -> "(blocked)"))
      o.Two_phase_commit.decisions;
    Printf.printf "agreement: %b  blocked: %d\n" o.Two_phase_commit.agreement
      o.Two_phase_commit.blocked
  in
  Cmd.v
    (Cmd.info ~exits "commit" ~doc:"Run two-phase commit (optionally crash the coordinator)")
    Term.(const run $ crash $ no_voters)

(* -- check (epistemic-temporal model checking) ------------------------------------ *)

let check_formula proto file depth faults max_states max_seconds mode
    formula_text obs =
  obs_setup obs;
  match Formula.parse formula_text with
  | Error e -> die_usage "parse error: %s" e
  | Ok f ->
      let st = resolve proto file depth faults max_states max_seconds in
      let u = Query.enumerate ~mode st ~reduce:None in
      emit_outcome obs (Query.run_check st u f)

let check_cmd =
  let formula =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FORMULA"
          ~doc:
            "Epistemic-temporal formula, e.g. 'AG (holds2 -> K p2 (~holds0))'. \
             Operators: ~ & | ->, K/E/S/sure <pset>, CK, AG EF AF EG AX EX.")
  in
  Cmd.v
    (Cmd.info ~exits "check"
       ~doc:"Model-check an epistemic-temporal formula over a system's universe")
    Term.(
      const check_formula $ proto_arg $ file_arg $ depth_arg $ faults_arg
      $ max_states_arg $ max_seconds_arg $ mode_arg $ formula $ obs_term)

(* -- mc (Monte Carlo statistical estimation) ------------------------------- *)

(* The statistical sibling of [check]: where enumeration is Truncated,
   seeded random walks estimate the formula's μ-prevalence at walk
   endpoints with a Wilson confidence interval (see lib/mc). Exit 0:
   estimate computed (the CI may still include 1); exit 1: at least one
   sampled walk violated the formula — the CI excludes prevalence 1 at
   the requested level — or, with --robust, a confident
   degraded/destroyed verdict; exit 3: the wall-clock budget cut
   sampling short (the partial estimate is still printed). *)
let mc proto file depth_str faults_str runs_str seed_str ci_str peers_str
    peer_tries_str ck_str max_seconds_str robust formula_str obs =
  obs_setup obs;
  let formula_text =
    match formula_str with
    | Some t -> t
    | None -> die_usage "mc needs --formula"
  in
  let f =
    match Formula.parse formula_text with
    | Error e -> die_usage "--formula: parse error: %s" e
    | Ok f -> f
  in
  (* the whole scenario, partition windows included, is validated
     against the base system exactly as for the exact engine *)
  let st = resolve proto file depth_str faults_str None max_seconds_str in
  let scenario = st.Query.scenario and base_n = st.Query.base_n in
  let base = Protocol.spec_of st.Query.inst in
  (* partitions are sampled as step-index delivery windows, not routed
     lossy channels: split them off the spec transformation *)
  let windows =
    Option.fold ~none:[] ~some:Faults.Scenario.partition_windows scenario
  in
  let routed = Option.map Faults.Scenario.without_partitions scenario in
  let faulty_spec =
    Option.fold ~none:base ~some:(fun t -> Faults.Scenario.apply_exn t base)
      routed
  in
  let view =
    Option.fold ~none:Fun.id ~some:(Faults.Scenario.view ~n:base_n) routed
  in
  let pos_int flag s = die (Query.parse_pos_int flag s) in
  let runs =
    Option.fold ~none:Mc.default.Mc.runs ~some:(pos_int "--runs") runs_str
  in
  let seed =
    match seed_str with
    | None -> 1L
    | Some s -> (
        match Int64.of_string_opt s with
        | Some v -> v
        | None -> die_usage "bad --seed %S (want an integer)" s)
  in
  let level =
    match ci_str with
    | None -> Mc.default.Mc.level
    | Some s -> (
        match float_of_string_opt s with
        | Some v when v > 0.0 && v < 1.0 -> v
        | _ -> die_usage "bad --ci %S (want a level strictly in (0, 1))" s)
  in
  let peers =
    Option.fold ~none:Mc.default.Mc.peers ~some:(pos_int "--peers") peers_str
  in
  let peer_tries =
    Option.fold ~none:Mc.default.Mc.peer_tries
      ~some:(pos_int "--peer-tries") peer_tries_str
  in
  let ck_depth =
    Option.fold ~none:Mc.default.Mc.ck_depth ~some:(pos_int "--ck-depth")
      ck_str
  in
  (* the fault-free baseline of --robust runs at the depth before
     [suggested_depth] scales it for the scenario *)
  let base_depth =
    if depth_str = None then Protocol.depth_of st.Query.inst else st.Query.depth
  in
  let cfg =
    {
      Mc.runs;
      depth = st.Query.depth;
      seed;
      level;
      peers;
      peer_tries;
      ck_depth;
      base_n = Some base_n;
      windows;
      max_seconds = st.Query.budget.Universe.max_seconds;
    }
  in
  let env = Protocol.atom_env st.Query.inst in
  Format.printf "formula: %a@." Formula.pp f;
  if robust then begin
    if scenario = None then die_usage "--robust needs --faults to compare against";
    let baseline_cfg = { cfg with Mc.depth = base_depth; windows = [] } in
    match
      Mc.estimate_robust baseline_cfg base ~faulty:faulty_spec
        ~faulty_config:cfg ~view ~env f
    with
    | Error e -> die_usage "%s" e
    | Ok r ->
        Format.printf "robust: %a@." Mc.pp_robustness r;
        obs_emit obs;
        if
          r.Mc.baseline.Mc.status = Mc.Out_of_time
          || r.Mc.faulty.Mc.status = Mc.Out_of_time
        then begin
          prerr_endline "hpl: mc sampling truncated by --max-seconds";
          exit exit_truncated
        end;
        match r.Mc.verdict with
        | Mc.Degraded | Mc.Destroyed -> exit exit_violated
        | Mc.Robust | Mc.Vacuous | Mc.Inconclusive -> ()
  end
  else
    match Mc.estimate_formula ~view cfg faulty_spec ~env f with
    | Error e -> die_usage "%s" e
    | Ok e ->
        Format.printf "estimate: %a@." Mc.pp_estimate e;
        obs_emit obs;
        if e.Mc.status = Mc.Out_of_time then begin
          prerr_endline "hpl: mc sampling truncated by --max-seconds";
          exit exit_truncated
        end;
        if e.Mc.hits < e.Mc.runs then exit exit_violated

let mc_cmd =
  let formula =
    Arg.(
      value
      & opt (some string) None
      & info [ "formula" ] ~docv:"FORMULA"
          ~doc:
            "Epistemic formula to estimate (required), e.g. 'CK attack'. \
             Temporal operators are rejected — walk endpoints have no \
             branching structure; use $(b,hpl check) for those.")
  in
  let runs =
    Arg.(
      value
      & opt (some string) None
      & info [ "runs" ] ~docv:"N" ~doc:"Number of sampled walks (default 10000).")
  in
  let seed =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Replay seed (default 1); the same seed gives bit-identical \
             estimates.")
  in
  let ci =
    Arg.(
      value
      & opt (some string) None
      & info [ "ci" ] ~docv:"LEVEL"
          ~doc:"Confidence level for the Wilson interval (default 0.95).")
  in
  let peers =
    Arg.(
      value
      & opt (some string) None
      & info [ "peers" ] ~docv:"N"
          ~doc:"Peer samples per knowledge evaluation (default 12).")
  in
  let peer_tries =
    Arg.(
      value
      & opt (some string) None
      & info [ "peer-tries" ] ~docv:"N"
          ~doc:"Rejection-sampling attempts allowed per peer (default 30).")
  in
  let ck =
    Arg.(
      value
      & opt (some string) None
      & info [ "ck-depth" ] ~docv:"K"
          ~doc:"Approximate CK by K levels of 'everyone knows' (default 2).")
  in
  let robust =
    Arg.(
      value & flag
      & info [ "robust" ]
          ~doc:
            "Compare the formula's prevalence fault-free vs under --faults \
             (statistical analogue of the robustness verdicts); exit 1 on a \
             confident degraded/destroyed verdict.")
  in
  Cmd.v
    (Cmd.info ~exits "mc"
       ~doc:
         "Estimate an epistemic formula's prevalence by seeded Monte Carlo \
          walks, with Wilson confidence intervals — scales to depths where \
          enumeration is truncated")
    Term.(
      const mc $ proto_arg $ file_arg $ depth_arg $ faults_arg $ runs $ seed
      $ ci $ peers $ peer_tries $ ck $ max_seconds_arg $ robust $ formula
      $ obs_term)

(* -- lint (static analysis, no enumeration) -------------------------------- *)

let lint proto file all faults_str formula_texts depth_str fuel_str
    max_states_str obs =
  obs_setup obs;
  let scenario = opt_arg Query.parse_faults faults_str in
  let formulas =
    List.map
      (fun text ->
        match Formula.parse text with
        | Ok f -> f
        | Error e -> die_usage "--formula: parse error: %s" e)
      formula_texts
  in
  let depth = opt_arg Query.parse_depth depth_str in
  let fuel = opt_arg (Query.parse_pos_int "--fuel") fuel_str in
  let max_states =
    opt_arg (Query.parse_pos_int "--max-states") max_states_str
  in
  (* the flow rule family (dead-rule, unreachable-message,
     guard-tautology) joins the report whenever the instance is
     analyzable — [Lint] cannot depend on [Dataflow] (both live in
     lib/analysis and lint is a dataflow test oracle), so the merge
     happens here *)
  let with_flow ~loaded inst report =
    match Query.dataflow ~loaded inst with
    | None -> report
    | Some df ->
        let expect = Protocol.lint_expect (Protocol.proto inst) in
        {
          report with
          Lint.findings = report.Lint.findings @ Dataflow.findings df ~expect;
        }
  in
  let reports =
    if all then begin
      if formula_texts <> [] || faults_str <> None || file <> None then
        die_usage "--all lints the whole registry; it cannot be combined with \
                   --formula, --faults, or -f";
      List.map
        (fun t ->
          let inst = Protocol.default_instance t in
          with_flow ~loaded:None inst
            (Lint.lint_instance ?fuel ?max_states ?depth inst))
        (Protocol.Registry.list ())
    end
    else
      let inst, loaded = resolve_proto proto file in
      [ with_flow ~loaded inst
          (Lint.lint_instance ?fuel ?max_states ?depth ~formulas
             ?faults:scenario inst) ]
  in
  List.iter (fun r -> Format.printf "%a@." Lint.pp_report r) reports;
  obs_emit obs;
  exit (Lint.exit_code reports)

let lint_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Lint every registered protocol (the CI gate).")
  in
  let formula =
    Arg.(
      value & opt_all string []
      & info [ "formula" ] ~docv:"FORMULA"
          ~doc:
            "Assert a formula and statically check its knowledge chains \
             (repeatable). Findings on asserted formulas gate the exit code.")
  in
  let fuel =
    Arg.(
      value
      & opt (some string) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Local-history exploration bound for channel-graph extraction \
             (default: max 16 depth).")
  in
  Cmd.v
    (Cmd.info ~exits "lint"
       ~doc:
         "Statically analyze a protocol: channel graph, spec hygiene, \
          knowledge-chain feasibility (Theorems 4-6) — without enumerating \
          the universe")
    Term.(
      const lint $ proto_arg $ file_arg $ all $ faults_arg $ formula
      $ depth_arg $ fuel $ max_states_arg $ obs_term)

(* -- flow (abstract interpretation over rules) ------------------------------ *)

(* [hpl flow] runs the interval-domain abstract interpreter on its own:
   per-rule verdicts, the static channel graph and per-process event
   bounds — no enumeration, no traces. Exit 0 when clean (or every
   finding was expected), 1 on an unexpected warning-level finding, 2 on
   bad arguments. *)
let flow proto file all verbose =
  let bad = ref false in
  let analyze name t ~expect =
    let fs = Dataflow.findings t ~expect in
    if
      List.exists
        (fun f -> f.Lint.severity <> Lint.Info && not f.Lint.expected)
        fs
    then bad := true;
    Format.printf "%s: %d rule(s), %d dead, %d channel(s)%s%s@." name
      (List.length (Dataflow.rules t))
      (List.length (Dataflow.dead_rules t))
      (List.length (Dataflow.channels t))
      (if Dataflow.graph_exact t then "" else " (over-approximated)")
      (if fs = [] then " — clean" else "");
    List.iter (fun f -> Format.printf "  %a@." Lint.pp_finding f) fs;
    if verbose then Format.printf "%a@." Dataflow.pp t
  in
  if all then begin
    if proto <> None || file <> None then
      die_usage
        "--all analyzes the whole registry; it cannot be combined with -s \
         or -f";
    let skipped = ref [] in
    List.iter
      (fun t ->
        let inst = Protocol.default_instance t in
        match Dataflow.of_instance inst with
        | None -> skipped := Protocol.name t :: !skipped
        | Some df ->
            analyze (Protocol.name t) df ~expect:(Protocol.lint_expect t))
      (Protocol.Registry.list ());
    if !skipped <> [] then
      Format.printf "(no .hpl port in corpus/specs, skipped: %s)@."
        (String.concat " " (List.rev !skipped))
  end
  else begin
    let inst, loaded = resolve_proto proto file in
    match Query.dataflow ~loaded inst with
    | None ->
        die_usage
          "%s has no .hpl port in corpus/specs; only .hpl specs (-f) and \
           ported registry protocols can be analyzed — try `hpl flow --all`"
          (Protocol.instance_name inst)
    | Some df ->
        analyze (Protocol.instance_name inst) df
          ~expect:(Protocol.lint_expect (Protocol.proto inst))
  end;
  if !bad then exit exit_violated

let flow_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Analyze every registered protocol that has a $(b,.hpl) port in \
             corpus/specs (the CI gate).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print the full per-rule verdicts, channels, and bounds.")
  in
  Cmd.v
    (Cmd.info ~exits "flow"
       ~doc:
         "Abstractly interpret a protocol's rules in an interval domain: \
          guard satisfiability (dead rules, tautologies), the static channel \
          graph, and per-process event bounds — without constructing a \
          single trace")
    Term.(const flow $ proto_arg $ file_arg $ all $ verbose)

(* -- snapshot ------------------------------------------------------------------- *)

let snapshot n at =
  let o = Snapshot.run { Snapshot.default with n; snapshot_time = at } in
  Printf.printf "consistent: %b  conservation: %b\n" o.Snapshot.consistent
    o.Snapshot.conservation;
  Array.iteri
    (fun i s -> Printf.printf "  p%d recorded state: %d sent\n" i s)
    o.Snapshot.recorded.Snapshot.states;
  List.iter
    (fun (s, d, c) -> Printf.printf "  channel p%d->p%d: %d in flight\n" s d c)
    o.Snapshot.recorded.Snapshot.channel_messages

let snapshot_cmd =
  let n = pos_int_arg "n" ~default:4 ~doc:"Number of processes." in
  let at =
    time_arg `Nonneg "at" ~default:50.0 ~doc:"Snapshot initiation time."
  in
  Cmd.v
    (Cmd.info ~exits "snapshot" ~doc:"Take a Chandy–Lamport snapshot")
    Term.(const snapshot $ n $ at)

(* -- list ----------------------------------------------------------------- *)

let print_protocol ~verbose ?from t =
  Printf.printf "%-21s %s%s\n" (Protocol.name t) (Protocol.doc t)
    (match from with
    | None -> ""
    | Some path -> Printf.sprintf "  [file: %s]" path);
  if verbose then begin
    List.iter
      (fun p ->
        Printf.printf "    param %-10s default %d, %s%s  %s\n" p.Protocol.key
          p.Protocol.default
          (Printf.sprintf ">= %d" p.Protocol.lo)
          (match p.Protocol.hi with
          | Some hi -> Printf.sprintf ", <= %d" hi
          | None -> "")
          p.Protocol.pdoc)
      (Protocol.params t);
    let inst = Protocol.default_instance t in
    (match Protocol.atoms_of inst with
    | [] -> ()
    | atoms ->
        Printf.printf "    atoms: %s\n" (String.concat " " (List.map fst atoms)));
    Printf.printf "    suggested depth: %d\n" (Protocol.suggested_depth t);
    (match Protocol.generators_of inst with
    | [] -> ()
    | gens ->
        let order =
          match Protocol.symmetry_of inst with
          | Some g -> Symmetry.order g
          | None -> 1
        in
        Printf.printf "    symmetry: %s (group order %d)\n"
          (String.concat " " (List.map Symmetry.to_string gens))
          order);
    (match Protocol.fault_scenarios t with
    | [] -> ()
    | fs -> Printf.printf "    fault scenarios: %s\n" (String.concat " " fs));
    match Protocol.lint_expect t with
    | [] -> ()
    | ls -> Printf.printf "    lint expects: %s\n" (String.concat " " ls)
  end

let list_protocols verbose file =
  List.iter (fun t -> print_protocol ~verbose t) (Protocol.Registry.list ());
  match file with
  | None -> ()
  | Some f ->
      (* the loaded spec is appended, marked with its source path, so
         file specs are never mistaken for builtins *)
      let inst, _loaded = die (Query.load f) in
      let path = List.hd (String.split_on_char ':' f) in
      print_protocol ~verbose ~from:path (Protocol.proto inst)

let list_cmd =
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Also print parameters, atoms, depths, symmetry generators, \
             fault scenarios, and expected lint findings.")
  in
  Cmd.v
    (Cmd.info ~exits "list"
       ~doc:"List every registered protocol (and any -f loaded spec)")
    Term.(const list_protocols $ verbose $ file_arg)

(* -- fuzz (generated .hpl specs through the whole pipeline) -------------- *)

(* The CI vehicle for the DSL: generate [count] seeded specs, push each
   through parse + elaborate + lint + enumerate, and spot-check the §3
   isomorphism laws on the resulting universe. Failures print the
   offending source — replayable from (seed, index) alone — and the run
   exits 1. *)
let fuzz seed count verbose =
  let failed = ref false in
  let fail index src fmt =
    Printf.ksprintf
      (fun m ->
        failed := true;
        Printf.eprintf "hpl fuzz: spec %d (seed %d): %s\n%s" index seed m src)
      fmt
  in
  for index = 0 to count - 1 do
    let src = Fuzz.spec_text ~seed ~index in
    let name = Printf.sprintf "fuzz-%d-%d" seed index in
    match Elaborate.load_string ~file:name src with
    | Error d -> fail index src "load failed: %s" (Diag.to_string d)
    | Ok loaded -> (
        let inst = Protocol.default_instance loaded.Elaborate.proto in
        let report = Lint.lint_instance inst in
        List.iter
          (fun f ->
            if f.Lint.severity = Lint.Error then
              fail index src "lint error %s on %s: %s" f.Lint.rule f.Lint.target
                f.Lint.message)
          report.Lint.findings;
        let spec = Protocol.spec_of inst in
        let n = Spec.n spec in
        let depth = min (Protocol.depth_of inst) 5 in
        let budget = Universe.budget ~max_states:30_000 () in
        let u = Universe.enumerate ~budget spec ~depth in
        match Universe.status u with
        | Universe.Truncated r ->
            fail index src "enumeration truncated: %s"
              (Universe.reason_to_string r)
        | Universe.Complete ->
            let st = Random.State.make [| 0x9e37; seed; index |] in
            let pick_idx () = Random.State.int st (Universe.size u) in
            let pick_pset () =
              let ps = ref Pset.empty in
              for i = 0 to n - 1 do
                if Random.State.bool st then ps := Pset.add (Pid.of_int i) !ps
              done;
              !ps
            in
            let law lname ok =
              if not ok then fail index src "law violated: %s" lname
            in
            law "equivalence" (Isomorphism.Laws.equivalence u (pick_pset ()));
            for _ = 1 to 5 do
              let p = pick_pset () and q = pick_pset () in
              let x = pick_idx () and y = pick_idx () in
              law "idempotence" (Isomorphism.Laws.idempotence u p x y);
              law "reflexivity" (Isomorphism.Laws.reflexivity u [ p; q ] x);
              law "inversion" (Isomorphism.Laws.inversion u [ p; q ] x y);
              law "union-inter" (Isomorphism.Laws.union_inter u p q x y);
              law "monotonicity"
                (Isomorphism.Laws.monotonicity u p (Pset.union p q) x y);
              law "subsumption"
                (Isomorphism.Laws.subsumption u p (Pset.union p q) x y)
            done;
            (* flow soundness, per spec: a reported-dead rule's guard
               must be false on every reachable local history (the
               universe is prefix-closed, so projecting every stored
               computation covers them all), and the static channel
               graph must cover every channel the enumeration actually
               used *)
            (match
               Dataflow.of_loaded loaded (Protocol.values inst)
             with
            | Error d ->
                fail index src "flow failed: %s" (Diag.to_string d)
            | Ok df ->
                List.iter
                  (fun (r : Dataflow.rule_report) ->
                    Universe.iter
                      (fun _ z ->
                        let h = Trace.proj z (Pid.of_int r.Dataflow.pid) in
                        if
                          Dataflow.guard_holds df ~pid:r.Dataflow.pid
                            ~index:r.Dataflow.index h
                        then
                          fail index src
                            "flow unsound: dead rule enabled (p%d rule %d \
                             `when %s`)"
                            r.Dataflow.pid r.Dataflow.index r.Dataflow.text)
                      u)
                  (Dataflow.dead_rules df);
                let static = Dataflow.channels df in
                Universe.iter
                  (fun _ z ->
                    List.iter
                      (fun e ->
                        match Event.message e with
                        | Some m when Event.is_send e ->
                            let edge =
                              ( Pid.to_int m.Msg.src,
                                Pid.to_int m.Msg.dst,
                                m.Msg.payload )
                            in
                            if not (List.mem edge static) then
                              let s, d, p = edge in
                              fail index src
                                "flow unsound: dynamic channel p%d->p%d %S \
                                 not in the static graph"
                                s d p
                        | _ -> ())
                      (Trace.to_list z))
                  u);
            (* statistical cross-check: a small seeded mc sample of each
               atom must land its (wide, 99.9%) CI on the exact
               μ-prevalence at this depth — deterministic per (seed,
               index), so a pass here is a pass everywhere *)
            List.iter
              (fun v ->
                if not v.Mc.ok then
                  fail index src "mc estimate off: %s"
                    (Format.asprintf "%a" Mc.pp_validation v))
              (Mc.cross_validate ~runs:400 ~depth:(min depth 4)
                 ~seed:(Int64.of_int ((seed * 7919) + index)) ~level:0.999
                 ~max_nodes:50_000 ~name spec
                 ~atoms:(Protocol.atoms_of inst));
            if verbose then
              Printf.printf "%-16s n=%d depth=%d universe=%d lint=%s\n" name n
                depth (Universe.size u)
                (if Lint.clean report then "clean" else "findings"))
  done;
  if !failed then exit exit_violated;
  Printf.printf "fuzz: %d spec(s) ok (seed %d)\n" count seed

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  let count = pos_int_arg "count" ~default:50 ~doc:"Number of specs to generate." in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Print one line per generated spec.")
  in
  Cmd.v
    (Cmd.info ~exits "fuzz"
       ~doc:
         "Generate seeded random .hpl specs and push each through the whole \
          pipeline: parse, elaborate, lint, enumerate, isomorphism laws")
    Term.(const fuzz $ seed $ count $ verbose)

(* -- serve (cached knowledge-query daemon) -------------------------------- *)

let serve pipe socket max_cached_states cache_dir =
  (match cache_dir with
  | None -> ()
  | Some d ->
      if Sys.file_exists d then begin
        if not (Sys.is_directory d) then
          die_usage "--cache-dir %s: not a directory" d
      end
      else (
        try Unix.mkdir d 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) ->
            die_usage "--cache-dir %s: %s" d (Unix.error_message e)));
  let t =
    Hpl_serve.Serve.create
      { Hpl_serve.Serve.max_cached_states; cache_dir }
  in
  match (pipe, socket) with
  | true, Some _ -> die_usage "use either --pipe or --socket PATH, not both"
  | false, None -> die_usage "serve needs a transport: --pipe or --socket PATH"
  | true, None -> Hpl_serve.Serve.run_pipe t stdin stdout
  | false, Some path -> (
      match Hpl_serve.Serve.run_socket t ~path with
      | Ok () -> ()
      | Error m -> die_usage "%s" m)

let serve_cmd =
  let pipe =
    Arg.(
      value & flag
      & info [ "pipe" ]
          ~doc:
            "Serve stdin/stdout, one JSON request per line — the transport \
             the tests and the bench client drive.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Bind a Unix domain socket at $(docv) and serve connections.")
  in
  let max_cached =
    pos_int_arg "max-cached-states" ~default:1_000_000
      ~doc:
        "LRU cache budget: total stored computations across all cached \
         universes."
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist universe snapshots in $(docv) (created if missing) for \
             warm starts across daemon restarts.")
  in
  Cmd.v
    (Cmd.info ~exits "serve"
       ~doc:
         "Run the knowledge-query daemon: knows/check/extent/enumerate-stats \
          over line-delimited JSON, backed by an LRU universe cache and \
          on-disk snapshots")
    Term.(const serve $ pipe $ socket $ max_cached $ cache_dir)

let () =
  let doc = "explore the systems of 'How Processes Learn' (Chandy & Misra 1985)" in
  let code =
    Cmd.eval
      (Cmd.group (Cmd.info ~exits "hpl" ~version:"1.0.0" ~doc)
         [
           list_cmd;
           enumerate_cmd;
           diagram_cmd;
           knows_cmd;
           extent_cmd;
           serve_cmd;
           termination_cmd;
           heartbeat_cmd;
           gossip_cmd;
           snapshot_cmd;
           analyze_cmd;
           deadlock_cmd;
           mutex_cmd;
           election_cmd;
           check_cmd;
           mc_cmd;
           lint_cmd;
           flow_cmd;
           fuzz_cmd;
           knew_cmd;
           paxos_cmd;
           commit_cmd;
         ])
  in
  (* cmdliner reports its own parse errors (unknown options, a bad [-m],
     unknown subcommands) as [Cmd.Exit.cli_error]; those are bad
     arguments too *)
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
