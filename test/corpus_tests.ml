(* Golden-trace regressions: reload checked-in runs and re-verify the
   invariants that held when they were recorded. *)
open Hpl_core
open Hpl_protocols

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* the test binary runs from test/_build; resolve corpus/ robustly *)
let corpus_path file =
  let candidates =
    [
      Filename.concat "corpus" file;
      Filename.concat "../corpus" file;
      Filename.concat "../../corpus" file;
      Filename.concat "../../../corpus" file;
      Filename.concat "../../../../corpus" file;
      Filename.concat "../../../../../corpus" file;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "corpus file %s not found from %s" file (Sys.getcwd ())

let load file =
  match Trace_io.load (corpus_path file) with
  | Ok z -> z
  | Error e -> Alcotest.failf "cannot load %s: %s" file e

let test_relay () =
  let z = load "relay.trace" in
  check tint "4 events" 4 (Trace.length z);
  check tbool "wf" true (Trace.well_formed z);
  check tbool "chain p0->p2" true
    (Chain.exists ~n:3 ~z (Chain.of_pids [ Pid.of_int 0; Pid.of_int 2 ]))

let test_ds_termination () =
  let z = load "ds_termination.trace" in
  check tbool "wf" true (Trace.well_formed z);
  let r =
    Termination.score ~detector:"ds" ~detect_tag:Dijkstra_scholten.detect_tag z
  in
  check tbool "detected" true r.Termination.detected;
  check tbool "sound" true r.Termination.sound;
  check tint "overhead = M" r.Termination.underlying_msgs r.Termination.overhead_msgs

let test_two_generals_ladder () =
  let z = load "two_generals_ladder.trace" in
  check tbool "valid for the spec" true (Spec.valid Two_generals.spec z);
  let u = Universe.enumerate Two_generals.spec ~depth:9 in
  check tint "depth 3" 3 (Two_generals.max_depth_at u z)

let test_lamport_mutex () =
  let z = load "lamport_mutex.trace" in
  check tbool "wf" true (Trace.well_formed z);
  let n = Lamport_mutex.default.Lamport_mutex.n in
  let ts = Causality.compute ~n z in
  let ivs = Hpl_clocks.Interval.of_bracketing ~enter:"mx-enter" ~exit:"mx-exit" z in
  check tbool "CS total order" true (Hpl_clocks.Interval.totally_ordered ts ivs);
  check tbool "fifo" true (Hpl_clocks.Causal_order.fifo_per_channel z)

let test_regeneration_is_deterministic () =
  (* the DS corpus file regenerates bit-for-bit *)
  let params = { Underlying.default with n = 5; budget = 30; seed = 7L } in
  let _, z =
    Dijkstra_scholten.run_raw
      ~config:{ Hpl_sim.Engine.default with seed = 7L }
      params
  in
  check tbool "matches corpus" true (Trace.equal z (load "ds_termination.trace"))

let suite =
  [
    ("relay", `Quick, test_relay);
    ("ds termination", `Quick, test_ds_termination);
    ("two generals ladder", `Quick, test_two_generals_ladder);
    ("lamport mutex", `Quick, test_lamport_mutex);
    ("regeneration deterministic", `Quick, test_regeneration_is_deterministic);
  ]
