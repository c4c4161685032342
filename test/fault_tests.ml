(* Fault transformers: crash/loss/duplication semantics, commutation
   with the spec algebra, budgets, and scenario parsing. *)
open Hpl_core
open Hpl_faults

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let p0 = Pid.of_int 0
let p1 = Pid.of_int 1

let recv_count z p =
  List.length (List.filter Event.is_receive (Trace.proj z p))

let has_internal tag z p =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Internal t -> String.equal t tag
      | _ -> false)
    (Trace.proj z p)

let same_universe u1 u2 =
  Universe.size u1 = Universe.size u2
  && Universe.fold
       (fun _ z ok -> ok && Option.is_some (Universe.find u2 z))
       u1 true

(* -- crash_stop ---------------------------------------------------------- *)

let test_crash_stop_silences () =
  (* p0 crashed from the start: the only computation is ε *)
  let s = Faults.crash_stop ~pid:p0 ~after:0 Fixtures.one_msg in
  let u = Universe.enumerate s ~depth:4 in
  check tint "only the empty computation" 1 (Universe.size u)

let test_crash_stop_after_quota () =
  (* p1 may receive the ping but crashes before replying *)
  let s = Faults.crash_stop ~pid:p1 ~after:1 Fixtures.ping_pong in
  let u = Universe.enumerate s ~depth:6 in
  Universe.iter
    (fun _ z ->
      check tbool "p1 never exceeds one event" true
        (List.length (Trace.proj z p1) <= 1))
    u;
  (* the ping itself still happens *)
  check tbool "p0 still sends" true
    (Universe.fold (fun _ z acc -> acc || Trace.send_count z p0 > 0) u false)

let test_crash_stop_rejects_bad_args () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check tbool "pid out of range" true
    (raises (fun () -> Faults.crash_stop ~pid:(Pid.of_int 9) ~after:1 Fixtures.one_msg));
  check tbool "negative quota" true
    (raises (fun () -> Faults.crash_stop ~pid:p0 ~after:(-1) Fixtures.one_msg))

(* -- crash_any ----------------------------------------------------------- *)

let test_crash_any_visible_and_silencing () =
  let s = Faults.crash_any ~upto:1 Fixtures.ping_pong in
  let u = Universe.enumerate ~mode:`Full s ~depth:6 in
  (* some computation crashes p0 *)
  check tbool "a crash of p0 exists" true
    (Universe.fold
       (fun _ z acc -> acc || has_internal Faults.crash_tag z p0)
       u false);
  (* p1 is not crash-prone *)
  Universe.iter
    (fun _ z ->
      check tbool "p1 never crashes" false (has_internal Faults.crash_tag z p1))
    u;
  (* after its crash, a process performs nothing *)
  Universe.iter
    (fun _ z ->
      let h = Trace.proj z p0 in
      match
        List.find_opt
          (fun e ->
            match e.Event.kind with
            | Event.Internal t -> String.equal t Faults.crash_tag
            | _ -> false)
          h
      with
      | None -> ()
      | Some crash ->
          check tbool "crash is p0's last event" true
            (crash.Event.lseq = List.length h - 1))
    u

let test_crash_any_zero_is_identity () =
  let s = Faults.crash_any ~upto:0 Fixtures.ping_pong in
  let u0 = Universe.enumerate Fixtures.ping_pong ~depth:6 in
  let u1 = Universe.enumerate s ~depth:6 in
  check tbool "same universe" true (same_universe u0 u1)

(* -- lossy channels ------------------------------------------------------ *)

let test_lossy_routes_through_daemon () =
  let s = Faults.lossy ~channels:[ (p0, p1) ] Fixtures.one_msg in
  check tint "one daemon added" 3 (Spec.n s);
  let u = Universe.enumerate ~mode:`Full s ~depth:6 in
  let daemon = Pid.of_int 2 in
  (* a drop exists somewhere *)
  let dropped =
    Universe.fold
      (fun _ z acc ->
        acc
        || List.exists
             (fun e ->
               match e.Event.kind with
               | Event.Internal t ->
                   String.length t >= 5 && String.sub t 0 5 = "drop:"
               | _ -> false)
             (Trace.proj z daemon))
      u false
  in
  check tbool "a drop event exists" true dropped;
  (* a complete delivery exists too *)
  let delivered =
    Universe.fold (fun _ z acc -> acc || recv_count z p1 > 0) u false
  in
  check tbool "a delivery exists" true delivered;
  (* drops live on the daemon only: the endpoints never log internals *)
  Universe.iter
    (fun _ z ->
      check tint "p0 has no internal events" 0
        (List.length
           (List.filter
              (fun e ->
                match e.Event.kind with Event.Internal _ -> true | _ -> false)
              (Trace.proj z p0 @ Trace.proj z p1))))
    u

let test_lossy_endpoint_ignorance () =
  (* after p0's send, p0's local history is the same whether the daemon
     dropped, forwarded, or did nothing yet — so p0 cannot know *)
  let s = Faults.lossy ~channels:[ (p0, p1) ] Fixtures.one_msg in
  let u = Universe.enumerate ~mode:`Full s ~depth:6 in
  let projections_with pred =
    Universe.fold
      (fun _ z acc -> if pred z then Trace.proj z p0 :: acc else acc)
      u []
  in
  let daemon = Pid.of_int 2 in
  let has_drop z =
    List.exists
      (fun e ->
        match e.Event.kind with
        | Event.Internal t -> String.length t >= 5 && String.sub t 0 5 = "drop:"
        | _ -> false)
      (Trace.proj z daemon)
  in
  let sent z = Trace.send_count z p0 > 0 in
  let dropped_projs = projections_with (fun z -> sent z && has_drop z) in
  let ok_projs = projections_with (fun z -> sent z && not (has_drop z)) in
  check tbool "dropped branches exist" true (dropped_projs <> []);
  List.iter
    (fun h ->
      check tbool "p0's view of a dropped run also occurs in a clean run" true
        (List.exists
           (fun h' -> List.length h = List.length h' && List.for_all2 Event.equal h h')
           ok_projs))
    dropped_projs

let test_lossy_view_is_fault_free_shaped () =
  let s = Faults.lossy ~channels:[ (p0, p1) ] Fixtures.one_msg in
  let u = Universe.enumerate ~mode:`Full s ~depth:6 in
  Universe.iter
    (fun _ z ->
      let v = Faults.view ~n:2 z in
      List.iter
        (fun e ->
          check tbool "no daemon events in view" true (Pid.to_int e.Event.pid < 2);
          match e.Event.kind with
          | Event.Send m | Event.Receive m ->
              check tstr "original payload restored" "m" m.Msg.payload;
              check tint "original endpoints" 1 (Pid.to_int m.Msg.dst)
          | Event.Internal _ -> Alcotest.fail "unexpected internal event")
        (Trace.to_list v))
    u

(* -- duplication --------------------------------------------------------- *)

let test_duplicating_delivers_twice () =
  let s = Faults.duplicating ~channels:[ (p0, p1) ] Fixtures.one_msg in
  let u = Universe.enumerate ~mode:`Full s ~depth:8 in
  let twice =
    Universe.fold (fun _ z acc -> acc || recv_count z p1 >= 2) u false
  in
  check tbool "a double delivery exists" true twice;
  (* both receives decode to the same original message *)
  Universe.iter
    (fun _ z ->
      let v = Faults.view ~n:2 z in
      let received =
        List.filter_map
          (fun e ->
            match e.Event.kind with Event.Receive m -> Some m | _ -> None)
          (Trace.to_list v)
      in
      match received with
      | [ m1; m2 ] ->
          check tbool "duplicate decodes to the same message" true (Msg.equal m1 m2)
      | _ -> ())
    u

(* -- budgets ------------------------------------------------------------- *)

let test_budget_max_states () =
  let base = Fixtures.chatter ~n:3 ~k:4 in
  let budget = Universe.budget ~max_states:20 () in
  let u = Universe.enumerate ~budget base ~depth:8 in
  check tbool "truncated" true
    (match Universe.status u with
    | Universe.Truncated (Universe.Max_states 20) -> true
    | _ -> false);
  check tbool "at most 20 states" true (Universe.size u <= 20);
  (* prefix-closure survives truncation *)
  Universe.iter
    (fun i z ->
      check tint "all prefixes stored"
        (Trace.length z + 1)
        (List.length (Universe.prefixes_of u i)))
    u

let test_budget_max_seconds () =
  (* an effectively-zero time budget on a large fault-blown space *)
  let base = Faults.lossy (Fixtures.chatter ~n:3 ~k:6) in
  let budget = Universe.budget ~max_seconds:1e-6 () in
  let u = Universe.enumerate ~budget base ~depth:12 in
  check tbool "time-truncated" true
    (match Universe.status u with
    | Universe.Truncated (Universe.Max_seconds _) -> true
    | _ -> false)

let test_budget_complete_when_roomy () =
  let u =
    Universe.enumerate
      ~budget:(Universe.budget ~max_states:10_000 ())
      Fixtures.ping_pong ~depth:6
  in
  check tbool "complete" true (Universe.status u = Universe.Complete)

(* -- robustness verdicts ------------------------------------------------- *)

let test_robust_under_lossy_ping () =
  (* "p1 knows the ping was sent" — attainable fault-free; over a lossy
     channel it survives (deliveries still happen) but is rarer *)
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let r =
    Knowledge.robust_under Fixtures.one_msg
      ~transform:(Faults.lossy ~channels:[ (p0, p1) ])
      ~depth:3 ~faulty_depth:6
      ~view:(Faults.view ~n:2)
      (Pset.singleton p1) sent
  in
  check tbool "baseline attains knowledge" true (r.Knowledge.baseline_hits > 0);
  check tbool "faulty still attains knowledge" true (r.Knowledge.faulty_hits > 0);
  check tbool "verdict is degraded or robust" true
    (match r.Knowledge.verdict with
    | Knowledge.Degraded | Knowledge.Robust -> true
    | _ -> false)

let test_robust_under_crash_destroys () =
  (* crash p1 before it can receive: knowledge is destroyed *)
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let r =
    Knowledge.robust_under Fixtures.one_msg
      ~transform:(fun s -> Faults.crash_stop ~pid:p1 ~after:0 s)
      ~depth:3 (Pset.singleton p1) sent
  in
  check tbool "destroyed" true (r.Knowledge.verdict = Knowledge.Destroyed)

(* -- scenario parsing ---------------------------------------------------- *)

let test_scenario_round_trip () =
  List.iter
    (fun s ->
      match Faults.Scenario.parse s with
      | Ok t -> check tstr "round-trips" s (Faults.Scenario.to_string t)
      | Error e -> Alcotest.failf "parse %S failed: %s" s e)
    [
      "crash:p1@2";
      "crash-any:1";
      "drop:p0->p1";
      "dup:p2->p0";
      "drop:*";
      "crash:p1@2,drop:p0->p1";
      "crash-any:2,dup:*,crash:p0@0";
      "partition:p0@1-3";
      "partition:p0|p2@0-5";
      "crash:p1@2,recover:p1@1";
      "partition:p1@2-4,crash:p0@1,recover:p0@2";
    ]

let test_scenario_parse_errors () =
  List.iter
    (fun s ->
      check tbool (Printf.sprintf "%S rejected" s) true
        (Result.is_error (Faults.Scenario.parse s)))
    [
      "";
      "explode:p0";
      "crash:p1";
      "drop:p0";
      "drop:p0->";
      "crash:p1@x";
      "crash-any:x";
      "partition:p0";
      "partition:p0@5";
      "partition:@1-2";
      "partition:p0@3-1";
      "recover:p0@0";
      "recover:p0";
    ]

let test_scenario_apply_checks_ranges () =
  let t = Result.get_ok (Faults.Scenario.parse "crash:p7@1") in
  check tbool "out-of-range pid rejected" true
    (Result.is_error (Faults.Scenario.apply t Fixtures.one_msg));
  let t = Result.get_ok (Faults.Scenario.parse "partition:p0|p9@1-2") in
  check tbool "partition out-of-range pid rejected" true
    (Result.is_error (Faults.Scenario.apply t Fixtures.one_msg));
  let t = Result.get_ok (Faults.Scenario.parse "partition:p0|p1@1-2") in
  check tbool "whole-system group rejected" true
    (Result.is_error (Faults.Scenario.apply t Fixtures.one_msg))

let test_robustness_provenance () =
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let transform s = Faults.lossy ~channels:[ (p0, p1) ] s in
  let exact =
    Knowledge.robust_under Fixtures.one_msg ~transform ~depth:3
      (Pset.singleton p0) sent
  in
  check tbool "complete universes give an exact verdict" true
    (exact.Knowledge.provenance = Knowledge.Exact);
  let bound =
    Knowledge.robust_under
      ~budget:(Universe.budget ~max_states:2 ())
      Fixtures.one_msg ~transform ~depth:3 (Pset.singleton p0) sent
  in
  check tbool "truncation downgrades to a bound" true
    (bound.Knowledge.provenance = Knowledge.Bound)

let test_scenario_apply_matches_manual () =
  let t = Result.get_ok (Faults.Scenario.parse "drop:p0->p1") in
  let s1 = Result.get_ok (Faults.Scenario.apply t Fixtures.one_msg) in
  let s2 = Faults.lossy ~channels:[ (p0, p1) ] Fixtures.one_msg in
  let u1 = Universe.enumerate s1 ~depth:6 in
  let u2 = Universe.enumerate s2 ~depth:6 in
  check tbool "scenario = manual transformer" true (same_universe u1 u2)

let test_scenario_sim_config () =
  let t = Result.get_ok (Faults.Scenario.parse "drop:p0->p1,crash-any:2") in
  let cfg = Faults.Scenario.to_sim_config t Hpl_sim.Engine.default in
  check tbool "drop prob raised" true (cfg.Hpl_sim.Engine.drop_prob > 0.0);
  check tbool "channel recorded" true
    (List.mem (0, 1) cfg.Hpl_sim.Engine.drop_channels);
  check tbool "crash-prone pids" true
    (cfg.Hpl_sim.Engine.crash_prone = [ 0; 1 ]);
  check tbool "crash prob raised" true (cfg.Hpl_sim.Engine.crash_prob > 0.0)

(* -- sim engine fault config --------------------------------------------- *)

let test_sim_honours_faults () =
  (* flood messages p0->p1; with drop_channels on that channel only,
     some are dropped; p1->p0 traffic is unaffected *)
  let handlers =
    {
      Hpl_sim.Engine.init =
        (fun pid ->
          if Pid.to_int pid = 0 then
            ((), List.init 30 (fun _ -> Hpl_sim.Engine.Send (p1, "x")))
          else ((), [ Hpl_sim.Engine.Send (p0, "y") ]));
      on_message = (fun s ~self:_ ~src:_ ~payload:_ ~now:_ -> (s, []));
      on_timer = (fun s ~self:_ ~tag:_ ~now:_ -> (s, []));
    }
  in
  let cfg =
    {
      Hpl_sim.Engine.default with
      n = 2;
      drop_prob = 0.5;
      drop_channels = [ (0, 1) ];
      seed = 42L;
    }
  in
  let r = Hpl_sim.Engine.run cfg handlers in
  check tbool "some drops" true (r.Hpl_sim.Engine.stats.dropped > 0);
  check tbool "p1's message got through" true (recv_count r.trace p0 = 1)

let test_sim_crash_after_events () =
  let handlers =
    {
      Hpl_sim.Engine.init =
        (fun pid ->
          if Pid.to_int pid = 0 then
            ((), List.init 10 (fun _ -> Hpl_sim.Engine.Send (p1, "x")))
          else ((), []));
      on_message = (fun s ~self:_ ~src:_ ~payload:_ ~now:_ -> (s, []));
      on_timer = (fun s ~self:_ ~tag:_ ~now:_ -> (s, []));
    }
  in
  let cfg =
    { Hpl_sim.Engine.default with n = 2; crash_after_events = [ (0, 3) ] }
  in
  let r = Hpl_sim.Engine.run cfg handlers in
  check tint "p0 stops at its quota" 3 (List.length (Trace.proj r.trace p0));
  check tbool "p0 marked crashed" true r.crashed.(0)

let test_sim_duplication () =
  let handlers =
    {
      Hpl_sim.Engine.init =
        (fun pid ->
          if Pid.to_int pid = 0 then
            ((), List.init 20 (fun _ -> Hpl_sim.Engine.Send (p1, "x")))
          else ((), []));
      on_message = (fun s ~self:_ ~src:_ ~payload:_ ~now:_ -> (s, []));
      on_timer = (fun s ~self:_ ~tag:_ ~now:_ -> (s, []));
    }
  in
  let cfg =
    { Hpl_sim.Engine.default with n = 2; dup_prob = 0.5; seed = 7L }
  in
  let r = Hpl_sim.Engine.run cfg handlers in
  check tbool "duplicates injected" true (r.stats.duplicated > 0);
  (* duplicates are internal events, so the trace stays well-formed *)
  check tbool "dup-deliver internals present" true
    (List.exists
       (fun e ->
         match e.Event.kind with
         | Event.Internal t ->
             String.length t >= 12 && String.sub t 0 12 = "dup-deliver:"
         | _ -> false)
       (Trace.proj r.trace p1))

let suite =
  [
    ("crash_stop silences", `Quick, test_crash_stop_silences);
    ("crash_stop after quota", `Quick, test_crash_stop_after_quota);
    ("crash_stop validates", `Quick, test_crash_stop_rejects_bad_args);
    ("crash_any visible+silencing", `Quick, test_crash_any_visible_and_silencing);
    ("crash_any upto 0 = id", `Quick, test_crash_any_zero_is_identity);
    ("lossy routes via daemon", `Quick, test_lossy_routes_through_daemon);
    ("lossy endpoint ignorance", `Quick, test_lossy_endpoint_ignorance);
    ("lossy view restores shape", `Quick, test_lossy_view_is_fault_free_shaped);
    ("duplication delivers twice", `Quick, test_duplicating_delivers_twice);
    ("budget max_states", `Quick, test_budget_max_states);
    ("budget max_seconds", `Quick, test_budget_max_seconds);
    ("budget roomy = complete", `Quick, test_budget_complete_when_roomy);
    ("robust_under lossy", `Quick, test_robust_under_lossy_ping);
    ("robust_under crash destroys", `Quick, test_robust_under_crash_destroys);
    ("robustness provenance", `Quick, test_robustness_provenance);
    ("scenario round-trip", `Quick, test_scenario_round_trip);
    ("scenario parse errors", `Quick, test_scenario_parse_errors);
    ("scenario range check", `Quick, test_scenario_apply_checks_ranges);
    ("scenario = manual", `Quick, test_scenario_apply_matches_manual);
    ("scenario -> sim config", `Quick, test_scenario_sim_config);
    ("sim per-channel drops", `Quick, test_sim_honours_faults);
    ("sim crash_after_events", `Quick, test_sim_crash_after_events);
    ("sim duplication", `Quick, test_sim_duplication);
  ]
