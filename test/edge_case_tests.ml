(* Edge cases and failure injection across the stack. *)
open Hpl_core
open Hpl_protocols

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* -- single-process systems ---------------------------------------------- *)

let solo = Spec.make ~n:1 (fun _ h -> if List.length h < 2 then [ Spec.Do "t" ] else [])

let test_solo_universe () =
  let u = Universe.enumerate solo ~depth:5 in
  check tint "three computations" 3 (Universe.size u);
  (* knowledge of a solo process = truth *)
  let b = Prop.make "moved" (fun z -> Trace.length z > 0) in
  let k = Knowledge.knows_ext u (Pset.singleton (Pid.of_int 0)) (Prop.extent u b) in
  Universe.iter
    (fun i z -> check tbool "knows = truth" (Prop.eval b z) (Bitset.mem k i))
    u

let test_solo_common_knowledge () =
  (* with one process CK(b) = b: constancy corollary does not apply *)
  let u = Universe.enumerate solo ~depth:5 in
  let b = Prop.make "moved" (fun z -> Trace.length z > 0) in
  let ck = Common_knowledge.common_ext u (Prop.extent u b) in
  Universe.iter
    (fun i z -> check tbool "CK = b when alone" (Prop.eval b z) (Bitset.mem ck i))
    u;
  check tbool "constancy vacuous" true (Common_knowledge.constancy_holds u b)

(* -- empty / degenerate --------------------------------------------------- *)

let test_empty_universe_depth0 () =
  let u = Universe.enumerate solo ~depth:0 in
  check tint "just ε" 1 (Universe.size u);
  let b = Prop.tt in
  let k = Knowledge.knows_ext u (Pset.singleton (Pid.of_int 0)) (Prop.extent u b) in
  check tbool "knows tt at ε" true (Bitset.mem k (Universe.find_exn u Trace.empty))

let test_formula_on_tiny_universe () =
  let u = Universe.enumerate solo ~depth:0 in
  let env _ = None in
  (match Formula.check u ~env (Result.get_ok (Formula.parse "AG true")) with
  | Ok `Valid -> ()
  | _ -> Alcotest.fail "AG true must be valid");
  match Formula.check u ~env (Result.get_ok (Formula.parse "EX true")) with
  | Ok (`Fails_at _) -> () (* ε has no successors at depth 0 *)
  | _ -> Alcotest.fail "EX true must fail at a leaf"

let test_pset_empty_operations () =
  check tbool "empty union" true (Pset.is_empty (Pset.union Pset.empty Pset.empty));
  check tbool "compl of all" true
    (Pset.is_empty (Pset.compl ~all:(Pset.all 3) (Pset.all 3)));
  check tint "all 0" 0 (Pset.cardinal (Pset.all 0))

let test_stats_single_event () =
  let z = Trace.of_list [ Event.internal ~pid:(Pid.of_int 0) ~lseq:0 "x" ] in
  let s = Trace_stats.compute ~n:1 z in
  check tint "depth 1" 1 s.Trace_stats.causal_depth;
  check (Alcotest.float 0.001) "ratio 0" 0.0 s.Trace_stats.concurrency_ratio

(* -- loss injection on detectors ------------------------------------------ *)

let test_ds_with_losses_sound_maybe_undetected () =
  (* drop 20% of messages: DS may never detect (lost ack) and the
     workload may never terminate (lost work) — but it must never
     announce early *)
  List.iter
    (fun seed ->
      let params = { Underlying.default with n = 5; budget = 40; seed } in
      let config = { Hpl_sim.Engine.default with drop_prob = 0.2; seed } in
      let _, z = Dijkstra_scholten.run_raw ~config params in
      let r =
        Termination.score ~detector:"ds" ~detect_tag:Dijkstra_scholten.detect_tag z
      in
      check tbool "sound under loss" true r.Termination.sound)
    [ 1L; 2L; 3L; 4L; 5L; 6L ]

let test_heartbeat_with_drops_false_suspicions () =
  let config = { Hpl_sim.Engine.default with drop_prob = 0.4 } in
  let o =
    Failure_detector.run ~config
      { Failure_detector.default with crash_time = None; timeout = 12.0 }
  in
  check tbool "drops cause false suspicion" true
    (o.Failure_detector.false_suspicions > 0)

let test_gossip_with_losses_chains_still_hold () =
  (* even with losses, anyone informed has a chain from the origin *)
  let config = { Hpl_sim.Engine.default with drop_prob = 0.3; seed = 9L } in
  let o = Gossip.run ~config { Gossip.default with n = 8 } in
  let z = o.Gossip.trace in
  Array.iteri
    (fun i pos ->
      if i > 0 && pos <> None then
        check tbool "chain under loss" true
          (Chain.exists ~n:8 ~z
             [ Pset.singleton (Pid.of_int 0); Pset.singleton (Pid.of_int i) ]))
    (Gossip.informed_positions ~n:8 z)

let suite =
  [
    ("solo universe", `Quick, test_solo_universe);
    ("solo common knowledge", `Quick, test_solo_common_knowledge);
    ("depth-0 universe", `Quick, test_empty_universe_depth0);
    ("formula on tiny universe", `Quick, test_formula_on_tiny_universe);
    ("pset empties", `Quick, test_pset_empty_operations);
    ("stats single event", `Quick, test_stats_single_event);
    ("DS sound under loss", `Quick, test_ds_with_losses_sound_maybe_undetected);
    ("heartbeat drops suspect", `Quick, test_heartbeat_with_drops_false_suspicions);
    ("gossip chains under loss", `Quick, test_gossip_with_losses_chains_still_hold);
  ]
