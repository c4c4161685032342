(* Protocol suites: token bus (§4.1), two generals, tracking (§5),
   failure detection (§5), snapshots, gossip, wire format. *)
open Hpl_core
open Hpl_protocols

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* -- wire --------------------------------------------------------------- *)

let test_wire_roundtrip () =
  List.iter
    (fun (tag, ints) ->
      check Alcotest.(option (pair string (list int))) "roundtrip"
        (Some (tag, ints))
        (Wire.dec (Wire.enc tag ints)))
    [ ("work", [ 3 ]); ("token", [ 0; 1 ]); ("probe", []); ("x", [ -5; 0; 7 ]) ]

let test_wire_malformed () =
  check Alcotest.(option (pair string (list int))) "garbage ints" None
    (Wire.dec "work:abc");
  check tbool "is matches" true (Wire.is "work" "work:1");
  check tbool "is rejects" false (Wire.is "work" "token:1");
  check Alcotest.(option string) "tag" (Some "t") (Wire.tag "t:1,2")

(* -- token bus ------------------------------------------------------------ *)

let tb5 = Universe.enumerate ~mode:`Canonical (Token_bus.spec ~n:5) ~depth:8

let test_token_bus_invariant () =
  let inv = Token_bus.exactly_one_holder_or_flight ~n:5 in
  Universe.iter (fun _ z -> check tbool "invariant" true (Prop.eval inv z)) tb5

let test_token_bus_holds_local () =
  (* "p holds the token" is local to p *)
  List.iter
    (fun i ->
      let p = Pid.of_int i in
      check tbool "local" true
        (Local_pred.is_local tb5 (Pset.singleton p) (Token_bus.holds p)))
    [ 0; 1; 2; 3; 4 ]

let test_token_bus_r_reachable () =
  (* the claim is not vacuous: r = p2 holds the token in some computation *)
  let r_holds = Token_bus.holds (Pid.of_int 2) in
  check tbool "r holds somewhere" true
    (Universe.fold (fun _ z acc -> acc || Prop.eval r_holds z) tb5 false)

let test_token_bus_paper_claim () =
  check tbool "paper claim" true (Token_bus.check_paper_claim tb5)

let test_token_bus_claim_fails_without_token () =
  (* sanity: the assertion is not a tautology — it fails somewhere
     (e.g. at the initial computation, where q knows nothing) *)
  let assertion = Token_bus.paper_assertion tb5 in
  check tbool "fails at ε" false
    (Bitset.mem assertion (Universe.find_exn tb5 Trace.empty))

let test_token_bus_holder_at () =
  check Alcotest.(option int) "initially p0" (Some 0)
    (Option.map Pid.to_int (Token_bus.holder_at ~n:5 Trace.empty));
  (* after p0 sends, nobody holds *)
  let m = Msg.make ~src:(Pid.of_int 0) ~dst:(Pid.of_int 1) ~seq:0 ~payload:"token" in
  let z = Trace.of_list [ Event.send ~pid:(Pid.of_int 0) ~lseq:0 m ] in
  check Alcotest.(option int) "in flight" None
    (Option.map Pid.to_int (Token_bus.holder_at ~n:5 z));
  let z = Trace.snoc z (Event.receive ~pid:(Pid.of_int 1) ~lseq:0 m) in
  check Alcotest.(option int) "now p1" (Some 1)
    (Option.map Pid.to_int (Token_bus.holder_at ~n:5 z))

let test_token_bus_small_sizes () =
  List.iter
    (fun n ->
      let u = Universe.enumerate ~mode:`Canonical (Token_bus.spec ~n) ~depth:5 in
      let inv = Token_bus.exactly_one_holder_or_flight ~n in
      Universe.iter (fun _ z -> check tbool "invariant" true (Prop.eval inv z)) u)
    [ 2; 3 ];
  Alcotest.check_raises "n=1 rejected"
    (Invalid_argument "Token_bus.spec: need at least two processes") (fun () ->
      ignore (Token_bus.spec ~n:1))

(* -- two generals ---------------------------------------------------------- *)

let tg = Universe.enumerate ~mode:`Canonical Two_generals.spec ~depth:9

let test_two_generals_ladder_monotone () =
  (* after k delivered messages the depth-k ladder holds and k+1 fails *)
  List.iter
    (fun rounds ->
      let z = Two_generals.ladder_trace ~rounds in
      check tbool "trace valid" true (Spec.valid Two_generals.spec z);
      check tint
        (Printf.sprintf "depth at %d rounds" rounds)
        rounds
        (Two_generals.max_depth_at tg z))
    [ 0; 1; 2; 3 ]

let test_two_generals_ck_never () =
  check tbool "common knowledge never attained" true
    (Two_generals.common_knowledge_never tg)

let test_two_generals_gain_chain () =
  (* between the bare decision (rounds 0: B knows nothing) and rounds 2,
     "A knows B knows attack" is gained; theorem 5 promises a chain
     <B, A> in the gap — extract it *)
  let x = Two_generals.ladder_trace ~rounds:0 in
  let y = Two_generals.ladder_trace ~rounds:2 in
  check tbool "x prefix of y" true (Trace.is_prefix x y);
  let a = Pset.singleton (Pid.of_int 0) and b = Pset.singleton (Pid.of_int 1) in
  let r = Transfer.explain_gain tg [ a; b ] Two_generals.attack_decided ~x ~y in
  check tbool "premise" true r.Transfer.premise;
  check tbool "chain found" true (r.Transfer.chain <> None)

(* -- tracking ---------------------------------------------------------------- *)

let silent = Universe.enumerate ~mode:`Canonical (Tracking.silent_spec ~n:2 ~flips:2 ~ticks:2) ~depth:4
let notify = Universe.enumerate ~mode:`Canonical (Tracking.notify_spec ~flips:2) ~depth:8

let test_tracking_bit_local () =
  check tbool "bit local to p0" true
    (Local_pred.is_local silent (Pset.singleton (Pid.of_int 0)) Tracking.bit)

let test_tracking_silent_unsure () =
  check tbool "unsure after flip" true
    (Tracking.tracker_always_unsure_after_flip silent)

let test_tracking_unsure_while_changing () =
  check tbool "silent" true (Tracking.unsure_while_changing silent);
  check tbool "notify" true (Tracking.unsure_while_changing notify)

let test_tracking_change_condition () =
  check tbool "silent" true
    (Tracking.change_requires_known_unsureness silent ~tracker:(Pid.of_int 1));
  check tbool "notify" true
    (Tracking.change_requires_known_unsureness notify ~tracker:(Pid.of_int 1))

let test_tracking_notify_can_know () =
  (* the notify protocol does let p1 learn the value between flips:
     p1 knows bit after receiving an odd notification *)
  let k1 =
    Knowledge.knows_ext notify (Pset.singleton (Pid.of_int 1))
      (Prop.extent notify Tracking.bit)
  in
  check tbool "p1 sometimes knows" true (not (Bitset.is_empty k1))

(* -- failure detection ---------------------------------------------------- *)

let test_failure_impossibility () =
  let u = Universe.enumerate ~mode:`Canonical (Failure_detector.crashable_spec ~n:2) ~depth:5 in
  check tbool "p1 never knows p0 crashed" true
    (Failure_detector.nobody_ever_knows u ~observer:(Pid.of_int 1)
       ~subject:(Pid.of_int 0));
  check tbool "p0 never knows p1 crashed" true
    (Failure_detector.nobody_ever_knows u ~observer:(Pid.of_int 0)
       ~subject:(Pid.of_int 1))

let test_failure_crashed_local () =
  let u = Universe.enumerate ~mode:`Canonical (Failure_detector.crashable_spec ~n:2) ~depth:4 in
  check tbool "crash local to p0" true
    (Local_pred.is_local u (Pset.singleton (Pid.of_int 0))
       (Failure_detector.crashed (Pid.of_int 0)))

let test_heartbeat_with_synchrony () =
  (* timeout exceeds heartbeat period + max delay: exact detection *)
  let o = Failure_detector.run Failure_detector.default in
  check tint "no false suspicion" 0 o.Failure_detector.false_suspicions;
  check tint "no miss" 0 o.Failure_detector.missed;
  check tbool "detected after crash" true
    (match o.Failure_detector.detection_time with
    | Some t -> t > 100.0
    | None -> false)

let test_heartbeat_no_crash_no_suspicion () =
  let o =
    Failure_detector.run { Failure_detector.default with crash_time = None }
  in
  check tint "quiet" 0 o.Failure_detector.false_suspicions;
  check tbool "nothing detected" true (o.Failure_detector.detection_time = None)

let test_heartbeat_timeout_too_short () =
  (* timeout below the heartbeat period forces false suspicions *)
  let o =
    Failure_detector.run
      { Failure_detector.default with timeout = 2.0; crash_time = None }
  in
  check tbool "false suspicions appear" true (o.Failure_detector.false_suspicions > 0)

(* -- snapshot ----------------------------------------------------------------- *)

let test_snapshot_consistent () =
  let o = Snapshot.run Snapshot.default in
  check tbool "consistent" true o.Snapshot.consistent;
  check tbool "conservation" true o.Snapshot.conservation

let test_snapshot_across_seeds () =
  List.iter
    (fun seed ->
      let config = { Hpl_sim.Engine.default with seed } in
      let o = Snapshot.run ~config Snapshot.default in
      check tbool "consistent" true o.Snapshot.consistent;
      check tbool "conservation" true o.Snapshot.conservation)
    [ 2L; 3L; 4L; 5L; 6L ]

let test_snapshot_cut_checker_rejects_bad_cut () =
  let o = Snapshot.run Snapshot.default in
  (* sabotage: move process 1's cut point to the very beginning — app
     messages received before the real cut now cross it *)
  let bad = Array.copy o.Snapshot.recorded.Snapshot.cut_positions in
  bad.(1) <- 0;
  (* the trace has app traffic into p1 before its recording, so the
     doctored cut must be inconsistent unless p1 recorded first *)
  let originally_first = o.Snapshot.recorded.Snapshot.cut_positions.(1) = 0 in
  if not originally_first then
    check tbool "doctored cut caught" false
      (Snapshot.cut_is_consistent ~n:4 o.Snapshot.trace ~cut_positions:bad)

(* -- gossip ---------------------------------------------------------------- *)

let test_gossip_everyone_learns () =
  let o = Gossip.run Gossip.default in
  check tbool "all informed" true o.Gossip.all_informed;
  check tbool "messages flowed" true (o.Gossip.messages > 0);
  check tbool "depth-2 reached" true (o.Gossip.depth2_complete_time <> None)

let test_gossip_chain_to_learner () =
  (* every informed process has a process chain from the origin — the
     operational Theorem 5 *)
  let o = Gossip.run { Gossip.default with n = 6 } in
  let z = o.Gossip.trace in
  let positions = Gossip.informed_positions ~n:6 z in
  Array.iteri
    (fun i pos ->
      match pos with
      | Some _ when i > 0 ->
          check tbool
            (Printf.sprintf "chain to p%d" i)
            true
            (Chain.exists ~n:6 ~z
               [ Pset.singleton (Pid.of_int 0); Pset.singleton (Pid.of_int i) ])
      | _ -> ())
    positions

let test_gossip_depth2_after_informed () =
  let o = Gossip.run Gossip.default in
  let latest_informed =
    Array.fold_left
      (fun acc t -> match t with Some t -> max acc t | None -> acc)
      0.0 o.Gossip.informed_time
  in
  match o.Gossip.depth2_complete_time with
  | Some t2 -> check tbool "depth2 not before last informed" true (t2 >= latest_informed)
  | None -> Alcotest.fail "expected depth-2 completion"

let suite =
  [
    ("wire roundtrip", `Quick, test_wire_roundtrip);
    ("wire malformed", `Quick, test_wire_malformed);
    ("token bus invariant", `Quick, test_token_bus_invariant);
    ("token bus holds local", `Quick, test_token_bus_holds_local);
    ("token bus r reachable", `Quick, test_token_bus_r_reachable);
    ("token bus paper claim", `Quick, test_token_bus_paper_claim);
    ("token bus claim not vacuous", `Quick, test_token_bus_claim_fails_without_token);
    ("token bus holder_at", `Quick, test_token_bus_holder_at);
    ("token bus small sizes", `Quick, test_token_bus_small_sizes);
    ("two generals ladder", `Slow, test_two_generals_ladder_monotone);
    ("two generals CK never", `Quick, test_two_generals_ck_never);
    ("two generals gain chain", `Quick, test_two_generals_gain_chain);
    ("tracking bit local", `Quick, test_tracking_bit_local);
    ("tracking silent unsure", `Quick, test_tracking_silent_unsure);
    ("tracking unsure while changing", `Quick, test_tracking_unsure_while_changing);
    ("tracking change condition", `Quick, test_tracking_change_condition);
    ("tracking notify can know", `Quick, test_tracking_notify_can_know);
    ("failure impossibility", `Quick, test_failure_impossibility);
    ("failure crashed local", `Quick, test_failure_crashed_local);
    ("heartbeat synchrony", `Quick, test_heartbeat_with_synchrony);
    ("heartbeat quiet", `Quick, test_heartbeat_no_crash_no_suspicion);
    ("heartbeat short timeout", `Quick, test_heartbeat_timeout_too_short);
    ("snapshot consistent", `Quick, test_snapshot_consistent);
    ("snapshot across seeds", `Quick, test_snapshot_across_seeds);
    ("snapshot rejects bad cut", `Quick, test_snapshot_cut_checker_rejects_bad_cut);
    ("gossip everyone learns", `Quick, test_gossip_everyone_learns);
    ("gossip chain to learner", `Quick, test_gossip_chain_to_learner);
    ("gossip depth2 ordering", `Quick, test_gossip_depth2_after_informed);
  ]
