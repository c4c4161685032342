(* Monte Carlo estimation: interval math, seeded determinism, the
   estimator-vs-exact cross-validation gate, knowledge estimation bias,
   and the partition/recovery fault surface it samples. *)
open Hpl_core
open Hpl_faults
open Hpl_protocols
open Hpl_mc

let () = Builtins.init ()
let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let p0 = Pid.of_int 0
let p1 = Pid.of_int 1

let instance name =
  match Protocol.Registry.parse name with
  | Ok i -> i
  | Error e -> Alcotest.failf "registry parse %S: %s" name e

let formula text =
  match Formula.parse text with
  | Ok f -> f
  | Error e -> Alcotest.failf "formula parse %S: %s" text e

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let recv_count z p =
  List.length (List.filter Event.is_receive (Trace.proj z p))

(* -- Rat ----------------------------------------------------------------- *)

let test_rat_arithmetic () =
  let open Mc.Rat in
  check tstr "normalized" "1/2" (to_string (make 2 4));
  check tstr "sign in numerator" "-1/3" (to_string (make 2 (-6)));
  check tbool "add" true (equal (make 5 6) (add (make 1 2) (make 1 3)));
  check tbool "mul" true (equal (make 1 3) (mul (make 1 2) (make 2 3)));
  check tbool "div_int" true (equal (make 1 6) (div_int (make 1 2) 3));
  check tbool "compare" true (compare (make 1 3) (make 1 2) < 0);
  check tbool "to_float" true (abs_float (to_float (make 1 4) -. 0.25) < 1e-12);
  check tbool "zero identity" true (equal one (add zero one));
  Alcotest.check_raises "overflow detected" Overflow (fun () ->
      ignore (mul (make max_int 1) (make max_int 1)))

(* -- intervals ----------------------------------------------------------- *)

let test_z_of_level () =
  check tbool "z(0.95)" true (abs_float (Mc.z_of_level 0.95 -. 1.95996) < 1e-4);
  check tbool "z(0.99)" true (abs_float (Mc.z_of_level 0.99 -. 2.57583) < 1e-4)

let test_wilson_boundaries () =
  let c0 = Mc.wilson ~hits:0 ~runs:100 ~level:0.95 in
  check tbool "zero hits floors at 0" true (c0.Mc.lo = 0.0);
  check tbool "zero hits still informative" true
    (c0.Mc.hi > 0.0 && c0.Mc.hi < 0.1);
  let c1 = Mc.wilson ~hits:100 ~runs:100 ~level:0.95 in
  check tbool "all hits caps at 1" true (c1.Mc.hi = 1.0 && c1.Mc.lo > 0.9);
  let c = Mc.wilson ~hits:99 ~runs:100 ~level:0.95 in
  check tbool "one miss excludes 1" true (c.Mc.hi < 1.0);
  let v = Mc.wilson ~hits:0 ~runs:0 ~level:0.95 in
  check tbool "no data is vacuous" true (v.Mc.lo = 0.0 && v.Mc.hi = 1.0);
  check tbool "covers" true (Mc.covers c 0.98);
  check tbool "not covers" false (Mc.covers c 0.5)

(* -- seeded determinism -------------------------------------------------- *)

let test_seeded_determinism () =
  let spec = Protocol.spec_of (instance "ping-pong") in
  let cfg = { Mc.default with Mc.runs = 200; depth = 6; seed = 17L } in
  let b = Prop.make "recv" (fun z -> recv_count z p1 > 0) in
  let e1 = Mc.estimate_prop cfg spec b in
  let e2 = Mc.estimate_prop cfg spec b in
  check tint "same hits" e1.Mc.hits e2.Mc.hits;
  check tbool "same mean" true (e1.Mc.mean = e2.Mc.mean);
  check tbool "same interval" true
    (e1.Mc.ci.Mc.lo = e2.Mc.ci.Mc.lo && e1.Mc.ci.Mc.hi = e2.Mc.ci.Mc.hi);
  let w1 = Mc.walks cfg spec and w2 = Mc.walks cfg spec in
  check tbool "bit-identical walk samples" true
    (List.for_all2 Trace.equal w1 w2);
  (* the estimator visits exactly the [walks] samples *)
  let by_hand =
    List.length (List.filter (fun z -> Prop.eval b z) w1)
  in
  check tint "estimate = judge over walks" by_hand e1.Mc.hits;
  (* ping-pong walks are deterministic; use a branching system to see
     the seed actually steer the sampler *)
  let branchy = Fixtures.chatter ~n:3 ~k:3 in
  let bcfg = { cfg with Mc.runs = 50; depth = 10 } in
  let w3 = Mc.walks bcfg branchy in
  let w4 = Mc.walks { bcfg with Mc.seed = 18L } branchy in
  check tbool "same seed, same branching samples" true
    (List.for_all2 Trace.equal w3 (Mc.walks bcfg branchy));
  check tbool "different seed, different samples" false
    (List.for_all2 Trace.equal w3 w4)

(* -- exact μ-prevalence --------------------------------------------------- *)

let test_exact_prevalence_hand_computed () =
  (* one_msg is a two-step chain: send then receive, no branching. The
     μ-measure puts all mass on the single maximal walk. *)
  let b = Prop.make "delivered" (fun z -> recv_count z p1 > 0) in
  let at depth =
    match Mc.exact_prevalence Fixtures.one_msg ~depth b with
    | Some r -> r
    | None -> Alcotest.fail "exact side unavailable"
  in
  check tbool "depth 1: undelivered" true (Mc.Rat.equal Mc.Rat.zero (at 1));
  check tbool "depth 2: delivered" true (Mc.Rat.equal Mc.Rat.one (at 2));
  check tbool "depth 5: deadlock extends endpoint" true
    (Mc.Rat.equal Mc.Rat.one (at 5))

let test_exact_prevalence_branching () =
  (* indep: two concurrent internal events — after one step only one of
     the two equally likely orders has let p0 act *)
  let sent0 = Prop.make "p0-acted" (fun z -> Trace.proj z p0 <> []) in
  match Mc.exact_prevalence Fixtures.indep ~depth:1 sent0 with
  | Some r -> check tbool "half measure" true (Mc.Rat.equal (Mc.Rat.make 1 2) r)
  | None -> Alcotest.fail "exact side unavailable"

let test_exact_prevalence_budget () =
  let b = Prop.make "t" (fun _ -> true) in
  check tbool "node budget gives None" true
    (Mc.exact_prevalence ~max_nodes:3
       (Protocol.spec_of (instance "two-generals"))
       ~depth:6 b
    = None)

(* -- the cross-validation gate ------------------------------------------- *)

let test_cross_validate_registry () =
  let vs = Mc.cross_validate_registry ~runs:10_000 ~depth:4 ~seed:1L () in
  check tbool "validated something" true (List.length vs > 10);
  List.iter
    (fun v ->
      if not v.Mc.ok then
        Alcotest.failf "CI misses exact prevalence: %s"
          (Format.asprintf "%a" Mc.pp_validation v))
    vs

(* -- knowledge estimation ------------------------------------------------ *)

let test_knowledge_upper_bound () =
  (* the peer sampler can only refute K with a found peer, so its
     estimate upper-bounds the exact prevalence *)
  let inst = instance "ping-pong" in
  let spec = Protocol.spec_of inst in
  let env = Protocol.atom_env inst in
  let f = formula "K p0 received" in
  let depth = 4 in
  let exact =
    match get (Mc.exact_formula_prevalence spec ~depth ~env f) with
    | Some r -> Mc.Rat.to_float r
    | None -> Alcotest.fail "exact side unavailable"
  in
  let cfg = { Mc.default with Mc.runs = 2_000; depth; seed = 5L } in
  let est = get (Mc.estimate_formula cfg spec ~env f) in
  check tbool "upper-biased: CI upper end covers exact" true
    (est.Mc.ci.Mc.hi +. 1e-9 >= exact)

let test_partition_blocks_knowledge () =
  (* a total partition from step 0: p1 never hears anything, so it can
     never know the attack order — while fault-free it almost surely
     learns it *)
  let inst = instance "two-generals" in
  let spec = Protocol.spec_of inst in
  let env = Protocol.atom_env inst in
  let f = formula "K p1 attack" in
  let cfg = { Mc.default with Mc.runs = 300; depth = 12; seed = 3L } in
  let free = get (Mc.estimate_formula cfg spec ~env f) in
  check tbool "fault-free knowledge prevalent" true (free.Mc.mean > 0.5);
  let cut =
    get
      (Mc.estimate_formula
         { cfg with Mc.windows = [ (0, 100, [ 0 ]) ] }
         spec ~env f)
  in
  (* the peer sampler is upper-biased, so a stray unrefuted walk can
     slip through; the estimate must still collapse *)
  check tbool "partitioned: knowledge collapses" true
    (cut.Mc.mean < 0.05 && cut.Mc.ci.Mc.hi < free.Mc.ci.Mc.lo)

let test_validate_rejects () =
  let inst = instance "ping-pong" in
  let spec = Protocol.spec_of inst in
  let env = Protocol.atom_env inst in
  let rejected t =
    Result.is_error (Mc.estimate_formula Mc.default spec ~env (formula t))
  in
  check tbool "temporal rejected" true (rejected "AG sent");
  check tbool "unbound atom rejected" true (rejected "K p0 nonsense");
  check tbool "out-of-range pid rejected" true (rejected "K p7 sent");
  check tbool "plain atoms accepted" false (rejected "sent & ~received")

let test_estimate_robust_destroyed () =
  (* crash p1 before it can receive: 'received' never holds *)
  let inst = instance "ping-pong" in
  let spec = Protocol.spec_of inst in
  let env = Protocol.atom_env inst in
  let faulty = Faults.crash_stop ~pid:p1 ~after:0 spec in
  let cfg = { Mc.default with Mc.runs = 300; depth = 4; seed = 7L } in
  let r = get (Mc.estimate_robust cfg spec ~faulty ~env (formula "received")) in
  check tbool "destroyed" true (r.Mc.verdict = Mc.Destroyed);
  check tint "no faulty hits" 0 r.Mc.faulty.Mc.hits

let test_out_of_time_status () =
  let spec = Protocol.spec_of (instance "two-generals") in
  let b = Prop.make "t" (fun _ -> true) in
  let cfg =
    {
      Mc.default with
      Mc.runs = 10_000_000;
      depth = 12;
      max_seconds = Some 0.05;
    }
  in
  let e = Mc.estimate_prop cfg spec b in
  check tbool "flagged out of time" true (e.Mc.status = Mc.Out_of_time);
  check tbool "partial sample" true (e.Mc.runs < e.Mc.requested)

(* -- crash-recovery (exact transformer and scenario) --------------------- *)

let has_internal tag z p =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Internal t -> String.equal t tag
      | _ -> false)
    (Trace.proj z p)

let test_crash_recover_round_trip () =
  (* p1 may do one event per life, one recovery: the universe contains
     computations with visible crash and recover events, and p1 can
     still deliver in its second life *)
  let s = Faults.crash_recover ~pid:p1 ~after:1 ~upto:1 Fixtures.ping_pong in
  let u = Universe.enumerate s ~depth:8 in
  let some p = Universe.fold (fun _ z acc -> acc || p z) u false in
  check tbool "crash appears" true
    (some (fun z -> has_internal Faults.crash_tag z p1));
  check tbool "recover appears" true
    (some (fun z -> has_internal Faults.recover_tag z p1));
  check tbool "second-life reply" true
    (some (fun z ->
         has_internal Faults.recover_tag z p1 && Trace.send_count z p1 > 0))

let test_scenario_recover_needs_crash () =
  check tbool "recover alone rejected" true
    (match Faults.Scenario.parse "recover:p1@1" with
    | Ok t -> Result.is_error (Faults.Scenario.apply t Fixtures.ping_pong)
    | Error _ -> true)

let test_scenario_partition_windows () =
  let t = Result.get_ok (Faults.Scenario.parse "partition:p0@1-3,crash:p1@2") in
  check tbool "windows extracted" true
    (Faults.Scenario.partition_windows t = [ (1, 3, [ 0 ]) ]);
  check tbool "stripped scenario keeps the crash" true
    (Faults.Scenario.partition_windows (Faults.Scenario.without_partitions t)
     = []
    && List.length (Faults.Scenario.without_partitions t) = 1)

let suite =
  [
    ("rat arithmetic", `Quick, test_rat_arithmetic);
    ("z of level", `Quick, test_z_of_level);
    ("wilson boundaries", `Quick, test_wilson_boundaries);
    ("seeded determinism", `Quick, test_seeded_determinism);
    ("exact prevalence: chain", `Quick, test_exact_prevalence_hand_computed);
    ("exact prevalence: branching", `Quick, test_exact_prevalence_branching);
    ("exact prevalence: budget", `Quick, test_exact_prevalence_budget);
    ("cross-validate registry", `Slow, test_cross_validate_registry);
    ("knowledge estimate upper-bounds exact", `Quick, test_knowledge_upper_bound);
    ("partition blocks knowledge", `Quick, test_partition_blocks_knowledge);
    ("formula validation", `Quick, test_validate_rejects);
    ("robust: destroyed", `Quick, test_estimate_robust_destroyed);
    ("out-of-time status", `Quick, test_out_of_time_status);
    ("crash-recover universe", `Quick, test_crash_recover_round_trip);
    ("recover needs crash", `Quick, test_scenario_recover_needs_crash);
    ("partition windows split", `Quick, test_scenario_partition_windows);
  ]
