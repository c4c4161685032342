(* Paper experiments E1-E21: regenerates every figure and claim of the
   paper as a table (EXPERIMENTS.md records what each one shows), and
   checks every claim EXPERIMENTS.md states as exact: counts, booleans
   and identities. Timings and the figures of seeded simulations are
   printed only. A failed claim does not stop the run; the process exits
   1 at the end, naming each one. All runs are deterministic (seeded).

     dune exec experiments/experiments.exe *)
open Hpl_core
open Hpl_protocols

let section id title =
  Printf.printf "\n=== %s — %s ===\n" id title

let p0 = Pid.of_int 0
let p1 = Pid.of_int 1

(* -- claims ------------------------------------------------------------ *)

let claims = ref 0
let failed = ref []

(* [claim name ok] checks one claim; [name] says what EXPERIMENTS.md
   states, and is what the final report names if [ok] is false *)
let claim name ok =
  incr claims;
  if not ok then failed := name :: !failed

let claim_int name ~expected got =
  claim
    (if got = expected then name else Printf.sprintf "%s (got %d)" name got)
    (got = expected)

(* E2-E4's system: each of two processes may send to the other, idle or
   receive, up to two local events *)
let chatter =
  Spec.make ~n:2 (fun p history ->
      if List.length history >= 2 then []
      else
        let right = Pid.of_int ((Pid.to_int p + 1) mod 2) in
        [ Spec.Send_to (right, "c"); Spec.Do "idle"; Spec.Recv_any ])

(* E5-E7's and E14's: p0 sends ping, p1 answers pong *)
let ping_pong =
  Spec.make ~n:2 (fun p history ->
      if Pid.equal p p0 then
        match history with
        | [] -> [ Spec.Send_to (p1, "ping") ]
        | _ -> [ Spec.Recv_any ]
      else
        match history with
        | [] -> [ Spec.Recv_any ]
        | [ _ ] -> [ Spec.Send_to (p0, "pong") ]
        | _ -> [])

(* ---------------------------------------------------------------- E1 *)

let run_e1 () =
  section "E1" "Figure 3-1: isomorphism diagram";
  let ea = Event.internal ~pid:p0 ~lseq:0 "a" in
  let eb = Event.internal ~pid:p1 ~lseq:0 "b" in
  let named =
    [
      ("x", Trace.of_list [ ea; eb ]);
      ("y", Trace.of_list [ ea ]);
      ("z", Trace.of_list [ eb; ea ]);
      ("w", Trace.of_list [ eb ]);
    ]
  in
  Pid.set_name p0 "p";
  Pid.set_name p1 "q";
  let d = Iso_diagram.of_computations ~all:(Pset.all 2) named in
  List.iter
    (fun e ->
      Printf.printf "  %s -- %s : [%s]\n" e.Iso_diagram.x e.Iso_diagram.y
        (Pset.to_string e.Iso_diagram.label))
    (Iso_diagram.edges d);
  Printf.printf "  (self-loops labelled [%s]; y–w unrelated, as in the figure)\n"
    (Pset.to_string (Iso_diagram.self_label d));
  (* restore default names for later experiments *)
  Pid.set_name p0 "p0";
  Pid.set_name p1 "p1";
  let p = [ p0 ] and q = [ p1 ] and pq = [ p0; p1 ] in
  let edges =
    List.map
      (fun e -> (e.Iso_diagram.x, e.Iso_diagram.y, Pset.to_list e.Iso_diagram.label))
      (Iso_diagram.edges d)
  in
  claim "E1 edges are exactly x-y:[p] x-z:[p,q] x-w:[q] y-z:[p] z-w:[q]"
    (List.sort compare edges
    = List.sort compare
        [ ("x", "y", p); ("x", "z", pq); ("x", "w", q); ("y", "z", p); ("z", "w", q) ]);
  claim "E1 y and w unrelated" (Iso_diagram.label d "y" "w" = None);
  claim "E1 self-loops labelled [p,q]"
    (Pset.equal (Iso_diagram.self_label d) (Pset.all 2))

(* ---------------------------------------------------------------- E2 *)

let random_pset rng n =
  let s = ref Pset.empty in
  for i = 0 to n - 1 do
    if Hpl_sim.Rng.bool rng then s := Pset.add (Pid.of_int i) !s
  done;
  !s

let run_e2 () =
  section "E2" "§3 algebraic laws of isomorphism (random instances)";
  let u = Universe.enumerate ~mode:`Full chatter ~depth:4 in
  let rng = Hpl_sim.Rng.create 17L in
  let trials = 2000 in
  let failures = ref 0 in
  let laws =
    [
      ("idempotence [PP]=[P]", fun i j ps _qs -> Isomorphism.Laws.idempotence u ps i j);
      ("reflexivity x[α]x", fun i _j ps qs -> Isomorphism.Laws.reflexivity u [ ps; qs ] i);
      ("inversion", fun i j ps qs -> Isomorphism.Laws.inversion u [ ps; qs ] i j);
      ("concatenation", fun i j ps qs -> Isomorphism.Laws.concatenation u [ ps ] [ qs ] i j);
      ("union/inter", fun i j ps qs -> Isomorphism.Laws.union_inter u ps qs i j);
      ("monotonicity", fun i j ps qs -> Isomorphism.Laws.monotonicity u ps (Pset.union ps qs) i j);
      ("subsumption", fun i j ps qs -> Isomorphism.Laws.subsumption u (Pset.union ps qs) ps i j);
      ("substitution", fun i j ps qs -> Isomorphism.Laws.substitution u [ ps ] qs qs [ ps ] i j);
      ("extensionality", fun _i _j ps qs -> Isomorphism.Laws.extensionality u ps qs);
    ]
  in
  List.iter
    (fun (nm, law) ->
      let bad = ref 0 in
      for _ = 1 to trials do
        let i = Hpl_sim.Rng.int rng (Universe.size u) in
        let j = Hpl_sim.Rng.int rng (Universe.size u) in
        let ps = random_pset rng 2 and qs = random_pset rng 2 in
        if not (law i j ps qs) then incr bad
      done;
      failures := !failures + !bad;
      Printf.printf "  %-28s %d trials, %d violations\n" nm trials !bad)
    laws;
  Printf.printf "  => total violations: %d (expected 0)\n" !failures;
  claim_int "E2 nine laws" ~expected:9 (List.length laws);
  claim_int "E2 violations in 9 laws x 2000 instances" ~expected:0 !failures

(* ---------------------------------------------------------------- E3 *)

let run_e3 () =
  section "E3" "Theorem 1: chain/isomorphism dichotomy";
  let u = Universe.enumerate ~mode:`Full chatter ~depth:4 in
  let psets_choices =
    [
      [ Pset.singleton p0 ];
      [ Pset.singleton p1 ];
      [ Pset.singleton p0; Pset.singleton p1 ];
      [ Pset.singleton p1; Pset.singleton p0 ];
    ]
  in
  let instances = ref 0 and holds = ref 0 and iso_only = ref 0 and chain_only = ref 0 and both = ref 0 in
  Universe.iter
    (fun zi z ->
      List.iter
        (fun xi ->
          let x = Universe.comp u xi in
          if Trace.is_prefix x z then
            List.iter
              (fun psets ->
                incr instances;
                let v = Theorem1.check u ~x ~z psets in
                let has_chain = v.Theorem1.chain <> None in
                if v.Theorem1.iso || has_chain then incr holds;
                if v.Theorem1.iso && not has_chain then incr iso_only;
                if has_chain && not v.Theorem1.iso then incr chain_only;
                if v.Theorem1.iso && has_chain then incr both)
              psets_choices)
        (Universe.prefixes_of u zi))
    u;
  Printf.printf "  instances: %d  dichotomy holds: %d (%.1f%%)\n" !instances !holds
    (100.0 *. float_of_int !holds /. float_of_int !instances);
  Printf.printf "  iso-only: %d  chain-only: %d  both: %d\n" !iso_only !chain_only !both;
  claim_int "E3 instances" ~expected:5484 !instances;
  claim "E3 dichotomy holds in every instance" (!holds = !instances);
  claim_int "E3 iso-only instances" ~expected:3510 !iso_only;
  claim_int "E3 chain-only instances" ~expected:1974 !chain_only

(* ---------------------------------------------------------------- E4 *)

let run_e4 () =
  section "E4" "Lemma 1 / Theorem 2: fusion of computations (Figs 3-2, 3-3)";
  (* drive theorem2 over all pairs of extensions of all prefixes in a
     chatter universe; count how often preconditions admit a fusion and
     verify every constructed fusion *)
  let u = Universe.enumerate ~mode:`Full chatter ~depth:4 in
  let all = Pset.all 2 in
  let p = Pset.singleton p0 in
  let attempted = ref 0 and fused = ref 0 and verified = ref 0 and rejected = ref 0 in
  Universe.iter
    (fun _ x ->
      Universe.iter
        (fun _ y ->
          if Trace.is_prefix x y then
            Universe.iter
              (fun _ z ->
                if Trace.is_prefix x z then begin
                  incr attempted;
                  match Fusion.theorem2 ~all ~n:2 ~x ~y ~z ~p with
                  | Ok w ->
                      incr fused;
                      if
                        Fusion.verify_theorem2 ~all ~x ~y ~z ~p ~w
                        && Spec.valid chatter w
                      then incr verified
                  | Error _ -> incr rejected
                end)
              u)
        u)
    u;
  Printf.printf "  instances: %d  preconditions met: %d  rejected: %d\n" !attempted
    !fused !rejected;
  Printf.printf "  fusions verified (iso + valid computation): %d / %d\n" !verified !fused;
  claim_int "E4 candidate triples" ~expected:119773 !attempted;
  claim_int "E4 fusions admitted" ~expected:77433 !fused;
  claim_int "E4 precondition rejections" ~expected:42340 !rejected;
  claim "E4 every admitted fusion verifies" (!verified = !fused)

(* ---------------------------------------------------------------- E5 *)

let run_e5 () =
  section "E5" "Theorem 3: how events move the isomorphism set";
  let u = Universe.enumerate ~mode:`Full ping_pong ~depth:4 in
  let ping = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"ping" in
  let pong = Msg.make ~src:p1 ~dst:p0 ~seq:0 ~payload:"pong" in
  let steps =
    [
      ("ε", Trace.empty);
      ("send ping", Trace.of_list [ Event.send ~pid:p0 ~lseq:0 ping ]);
      ( "recv ping",
        Trace.of_list
          [ Event.send ~pid:p0 ~lseq:0 ping; Event.receive ~pid:p1 ~lseq:0 ping ] );
      ( "send pong",
        Trace.of_list
          [
            Event.send ~pid:p0 ~lseq:0 ping;
            Event.receive ~pid:p1 ~lseq:0 ping;
            Event.send ~pid:p1 ~lseq:1 pong;
          ] );
      ( "recv pong",
        Trace.of_list
          [
            Event.send ~pid:p0 ~lseq:0 ping;
            Event.receive ~pid:p1 ~lseq:0 ping;
            Event.send ~pid:p1 ~lseq:1 pong;
            Event.receive ~pid:p0 ~lseq:1 pong;
          ] );
    ]
  in
  Printf.printf "  %-12s %14s %14s\n" "after" "|iso-set p0|" "|iso-set p1|";
  let sizes =
    List.map
      (fun (nm, z) ->
        let s0 = Bitset.cardinal (Extension.iso_set u (Pset.singleton p0) z) in
        let s1 = Bitset.cardinal (Extension.iso_set u (Pset.singleton p1) z) in
        Printf.printf "  %-12s %14d %14d\n" nm s0 s1;
        (s0, s1))
      steps
  in
  Printf.printf "  (receives shrink the receiver's set; sends grow or preserve the sender's)\n";
  claim "E5 iso-set sizes (2,4) (5,4) (5,3) (5,4) (2,4)"
    (sizes = [ (2, 4); (5, 4); (5, 3); (5, 4); (2, 4) ])

(* ---------------------------------------------------------------- E6 *)

let run_e6 () =
  section "E6" "§4.1 knowledge facts 1-12 and Lemma 2";
  let u = Universe.enumerate ~mode:`Full ping_pong ~depth:4 in
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let received =
    Prop.make "received" (fun z -> List.exists Event.is_receive (Trace.proj z p1))
  in
  let props = [ sent; received; Prop.tt; Prop.ff ] in
  let psets = [ Pset.singleton p0; Pset.singleton p1; Pset.all 2; Pset.empty ] in
  let checks = ref 0 and bad = ref 0 in
  let tally name ok =
    incr checks;
    if not ok then begin
      incr bad;
      Printf.printf "  VIOLATION: %s\n" name
    end
  in
  List.iter
    (fun ps ->
      List.iter
        (fun b ->
          tally "fact1" (Knowledge.Laws.fact1_class_invariant u ps b);
          tally "fact4" (Knowledge.Laws.fact4_veridical u ps b);
          tally "fact5" (Knowledge.Laws.fact5_total u ps b);
          tally "fact6" (Knowledge.Laws.fact6_conjunction u ps b received);
          tally "fact7" (Knowledge.Laws.fact7_disjunction u ps b received);
          tally "fact8" (Knowledge.Laws.fact8_consistency u ps b);
          tally "fact9" (Knowledge.Laws.fact9_closure u ps b (Prop.or_ b received));
          tally "fact10" (Knowledge.Laws.fact10_positive_introspection u ps b);
          tally "fact11/lemma2" (Knowledge.Laws.fact11_negative_introspection u ps b))
        props;
      tally "fact12t" (Knowledge.Laws.fact12_constants u ps true);
      tally "fact12f" (Knowledge.Laws.fact12_constants u ps false))
    psets;
  List.iter
    (fun b -> tally "fact3" (Knowledge.Laws.fact3_monotone_union u (Pset.singleton p0) (Pset.singleton p1) b))
    props;
  Printf.printf "  %d law instances checked, %d violations (expected 0)\n" !checks !bad;
  claim_int "E6 law instances" ~expected:156 !checks;
  claim_int "E6 violations" ~expected:0 !bad

(* ---------------------------------------------------------------- E7 *)

let run_e7 () =
  section "E7" "§4.2 local predicates, Lemma 3, common-knowledge constancy";
  let u = Universe.enumerate ~mode:`Full ping_pong ~depth:4 in
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let s0 = Pset.singleton p0 and s1 = Pset.singleton p1 in
  let local0 = Local_pred.is_local u s0 sent in
  let local1 = Local_pred.is_local u s1 sent in
  let lemma3 = Local_pred.lemma3_constant u s0 s1 sent in
  let identical = Local_pred.identical_knowledge_constant u s0 s1 sent in
  let constant = Common_knowledge.constancy_holds u sent in
  let sent_ext = Prop.extent u sent in
  let ck_value =
    Bitset.mem (Common_knowledge.common_ext u sent_ext)
      (Universe.find_exn u Trace.empty)
  in
  let iterations = Common_knowledge.iterations_to_fixpoint u sent in
  Printf.printf "  'sent' local to p0: %b  local to p1: %b\n" local0 local1;
  Printf.printf "  lemma 3 (disjoint locality => constant): %b\n" lemma3;
  Printf.printf "  identical-knowledge corollary: %b\n" identical;
  Printf.printf "  CK('sent') constant: %b  value: %b  fixpoint iterations: %d\n"
    constant ck_value iterations;
  (* E^k approximation sizes *)
  let levels =
    List.init 5 (fun k ->
        Bitset.cardinal (Group.e_iterate u (Spec.all ping_pong) k sent_ext))
  in
  Printf.printf "  |E^k(sent)| by depth k:";
  List.iteri (fun k size -> Printf.printf " k=%d:%d" k size) levels;
  print_newline ();
  claim "E7 'sent' local to p0, not to p1" (local0 && not local1);
  claim "E7 Lemma 3 holds" lemma3;
  claim "E7 identical-knowledge corollary holds" identical;
  claim "E7 CK('sent') is constant false" (constant && not ck_value);
  claim_int "E7 CK fixpoint iterations" ~expected:4 iterations;
  claim "E7 |E^k(sent)| = 4, 3, 1, 0, 0" (levels = [ 4; 3; 1; 0; 0 ])

(* ---------------------------------------------------------------- E8 *)

let run_e8 () =
  section "E8" "§4.1 token bus: nested knowledge when r holds the token";
  let u = Universe.enumerate ~mode:`Canonical (Token_bus.spec ~n:5) ~depth:10 in
  let r_holds = Token_bus.holds (Pid.of_int 2) in
  let assertion = Token_bus.paper_assertion u in
  let r_states = ref 0 and holds_all = ref true and non_r = ref 0 and holds_elsewhere = ref 0 in
  Universe.iter
    (fun i z ->
      if Prop.eval r_holds z then begin
        incr r_states;
        if not (Bitset.mem assertion i) then holds_all := false
      end
      else begin
        incr non_r;
        if Bitset.mem assertion i then incr holds_elsewhere
      end)
    u;
  Printf.printf "  universe: %d computations (canonical, depth 10)\n" (Universe.size u);
  Printf.printf "  computations where r holds token: %d — assertion holds at all: %b\n"
    !r_states !holds_all;
  Printf.printf "  (for contrast, it also holds at %d of %d non-r-holding computations)\n"
    !holds_elsewhere !non_r;
  claim_int "E8 universe size" ~expected:43 (Universe.size u);
  claim_int "E8 computations where r holds the token" ~expected:4 !r_states;
  claim "E8 assertion holds wherever r holds the token" !holds_all;
  claim_int "E8 assertion holds at 12 of the 39 others" ~expected:12 !holds_elsewhere;
  claim "E8 assertion fails at the empty computation"
    (not (Bitset.mem assertion (Universe.find_exn u Trace.empty)))

(* ---------------------------------------------------------------- E9 *)

let run_e9 () =
  section "E9" "Theorems 4-6: knowledge transfer is sequential";
  (* two-generals ladder: nested depth vs delivered messages *)
  let u = Universe.enumerate ~mode:`Canonical Two_generals.spec ~depth:11 in
  Printf.printf "  two generals: delivered messages k -> max nested-knowledge depth\n   ";
  let depths =
    List.init 5 (fun rounds ->
        let depth = Two_generals.max_depth_at u (Two_generals.ladder_trace ~rounds) in
        Printf.printf " k=%d:depth=%d" rounds depth;
        depth)
  in
  let ck_never = Two_generals.common_knowledge_never u in
  Printf.printf "\n  CK(attack) ever attained: %b (expected false)\n" (not ck_never);
  claim "E9 deepest nested knowledge after k messages is k (k = 0..4)"
    (depths = List.init 5 Fun.id);
  claim "E9 CK(attack) never attained" ck_never;
  (* Theorem 5 on the ladder: the k-deep nest (outermost first, B
     innermost) is gained along a chain <B A B ...> of k events *)
  let nest k =
    List.init k (fun i -> Pset.singleton (if (k - i) mod 2 = 1 then p1 else p0))
  in
  let attack = Two_generals.attack_decided in
  Printf.printf
    "  ladder nest of depth k: the chain gaining it from ε to k delivered \
     messages, and the (prefix, computation) pairs that gain it\n";
  let gains =
    List.map
      (fun k ->
        let psets = nest k in
        let run = Two_generals.ladder_trace ~rounds:k in
        let chain =
          match
            (Transfer.explain_gain u psets attack ~x:Trace.empty ~y:run)
              .Transfer.chain
          with
          | Some events -> List.map (fun e -> e.Event.pid) events
          | None -> []
        in
        let pairs = ref 0 and theorem5 = ref true in
        Universe.iter
          (fun j y ->
            List.iter
              (fun i ->
                let x = Universe.comp u i in
                if (Transfer.explain_gain u psets attack ~x ~y).Transfer.premise
                then begin
                  incr pairs;
                  if not (Transfer.theorem5_gain u psets attack ~x ~y) then
                    theorem5 := false
                end)
              (Universe.prefixes_of u j))
          u;
        Printf.printf "    k=%d  chain=<%s>  gained at %d pairs  Theorem 5 at all: %b\n"
          k (String.concat " " (List.map Pid.to_string chain)) !pairs !theorem5;
        (chain, !pairs, !theorem5))
      [ 1; 2; 3; 4 ]
  in
  claim "E9 the k-deep ladder nest is gained along a k-event chain alternating B and A (k = 1..4)"
    (List.for_all2
       (fun k (chain, _, _) ->
         List.equal Pid.equal chain
           (List.init k (fun i -> if i mod 2 = 0 then p1 else p0)))
       [ 1; 2; 3; 4 ] gains);
  claim "E9 the k-deep nest is gained at 27, 21, 15, 9 (prefix, computation) pairs (k = 1..4)"
    (List.map (fun (_, pairs, _) -> pairs) gains = [ 27; 21; 15; 9 ]);
  claim "E9 Theorem 5 holds at every such gain"
    (List.for_all (fun (_, _, ok) -> ok) gains);
  (* gossip at scale: rounds to knowledge *)
  Printf.printf "  gossip (push): n -> (all informed?, messages, t_all, t_depth2)\n";
  List.iter
    (fun n ->
      let o = Gossip.run { Gossip.default with n; seed = 5L } in
      let t_all =
        Array.fold_left
          (fun acc t -> match t with Some t -> max acc t | None -> acc)
          0.0 o.Gossip.informed_time
      in
      Printf.printf "    n=%2d  all=%b  msgs=%4d  t_all=%7.1f  t_depth2=%s\n" n
        o.Gossip.all_informed o.Gossip.messages t_all
        (match o.Gossip.depth2_complete_time with
        | Some t -> Printf.sprintf "%7.1f" t
        | None -> "   -"))
    [ 4; 8; 16; 32 ];
  (* dissemination strategy comparison at n=16 *)
  Printf.printf "  gossip modes (n=16): mode -> (t_all, messages)\n";
  List.iter
    (fun (name, mode) ->
      let o = Gossip.run { Gossip.default with n = 16; mode; seed = 5L } in
      let t_all =
        Array.fold_left
          (fun acc t -> match t with Some t -> max acc t | None -> infinity)
          0.0 o.Gossip.informed_time
      in
      Printf.printf "    %-10s t_all=%7.1f  msgs=%4d\n" name t_all o.Gossip.messages)
    [ ("push", Gossip.Push); ("pull", Gossip.Pull); ("push-pull", Gossip.Push_pull) ]

(* ---------------------------------------------------------------- E10 *)

let run_e10 () =
  section "E10" "§5 failure detection: impossible without timeouts";
  let u =
    Universe.enumerate ~mode:`Canonical (Failure_detector.crashable_spec ~n:2) ~depth:6
  in
  let never = Failure_detector.nobody_ever_knows u ~observer:p1 ~subject:p0 in
  Printf.printf "  exact (universe %d computations): observer ever knows crash: %b\n"
    (Universe.size u) (not never);
  claim_int "E10 crashable universe size" ~expected:4914 (Universe.size u);
  claim "E10 the observer never knows the crash" never;
  Printf.printf "  heartbeat detector (crash at t=100, horizon 300):\n";
  Printf.printf "  %-28s %6s %6s %10s\n" "timeout regime" "false" "miss" "detect t";
  let exact =
    List.map
      (fun (label, timeout, max_delay) ->
        let config = { Hpl_sim.Engine.default with max_delay } in
        let o =
          Failure_detector.run ~config { Failure_detector.default with timeout }
        in
        Printf.printf "  %-28s %6d %6d %10s\n" label o.Failure_detector.false_suspicions
          o.Failure_detector.missed
          (match o.Failure_detector.detection_time with
          | Some t -> Printf.sprintf "%.1f" t
          | None -> "-");
        o.Failure_detector.false_suspicions = 0 && o.Failure_detector.missed = 0)
      [
        ("sync (T=20 > period+delay)", 20.0, 10.0);
        ("tight (T=6)", 6.0, 10.0);
        ("too short (T=2)", 2.0, 10.0);
        ("slow net (T=20, delay<=60)", 20.0, 60.0);
      ]
  in
  claim "E10 the detector is exact iff the timeout dominates period + delay"
    (exact = [ true; false; false; false ])

(* ---------------------------------------------------------------- E11 *)

let run_e11 () =
  section "E11" "§5 termination detection: overhead vs underlying messages";
  (* the sound detectors, Dijkstra-Scholten first, and the naive probe *)
  let detectors p cfg =
    ( [
        Dijkstra_scholten.run ~config:cfg p;
        Credit.run ~config:cfg p;
        Safra.run ~config:cfg ~round_delay:2.0 p;
        Snapshot_term.run ~config:cfg ~attempt_delay:3.0 p;
        Probe.run ~config:cfg ~wave_delay:2.0 ~mode:`Four_counter p;
      ],
      Probe.run ~config:cfg ~wave_delay:2.0 ~mode:`Naive p )
  in
  let ds_exact = ref true and sound_all = ref true and naive_unsound = ref true in
  List.iter
    (fun (wl_name, mk) ->
      Printf.printf "  workload: %s\n" wl_name;
      Printf.printf "  %s\n" Termination.row_header;
      List.iter
        (fun budget ->
          let params, cfg = mk budget in
          let sound, naive = detectors params cfg in
          List.iter
            (fun r -> Printf.printf "  %s  (budget %d)\n" (Termination.report_row r) budget)
            (sound @ [ naive ]);
          let ds = List.hd sound in
          if ds.Termination.overhead_msgs <> ds.Termination.underlying_msgs then
            ds_exact := false;
          if
            not
              (List.for_all
                 (fun r -> r.Termination.sound && r.Termination.detected)
                 sound)
          then sound_all := false;
          if naive.Termination.sound then naive_unsound := false)
        [ 25; 100; 400 ])
    [
      ( "burst (fanout 3, n=6)",
        fun budget ->
          ( { Underlying.default with n = 6; budget; seed = 31L },
            { Hpl_sim.Engine.default with seed = 31L } ) );
      ( "trickle (fanout 1, sequential)",
        fun budget ->
          ( {
              Underlying.default with
              n = 6;
              budget;
              fanout = 1;
              spawn_prob = 1.0;
              seed = 32L;
            },
            { Hpl_sim.Engine.default with seed = 32L } ) );
    ];
  Printf.printf
    "  (shape: sound detectors pay on the order of M in the adversarial\n\
    \   regime; the naive probe goes under the bound only by being wrong)\n";
  claim "E11 Dijkstra-Scholten overhead = underlying messages on every row" !ds_exact;
  claim "E11 every detector but the naive probe detects soundly on every row"
    !sound_all;
  claim "E11 the naive probe is unsound on every row" !naive_unsound

(* ---------------------------------------------------------------- E12 *)

let run_e12 () =
  section "E12" "§5 remote tracking of a changing local predicate";
  let silent =
    Universe.enumerate ~mode:`Canonical (Tracking.silent_spec ~n:2 ~flips:2 ~ticks:2)
      ~depth:4
  in
  let notify = Universe.enumerate ~mode:`Canonical (Tracking.notify_spec ~flips:2) ~depth:8 in
  let unsure_after = Tracking.tracker_always_unsure_after_flip silent in
  let changing_silent = Tracking.unsure_while_changing silent in
  let changing_notify = Tracking.unsure_while_changing notify in
  let known_silent = Tracking.change_requires_known_unsureness silent ~tracker:p1 in
  let known_notify = Tracking.change_requires_known_unsureness notify ~tracker:p1 in
  Printf.printf "  silent flipper: tracker unsure after any flip: %b\n" unsure_after;
  Printf.printf "  unsure-while-changing — silent: %b  notify: %b\n" changing_silent
    changing_notify;
  Printf.printf "  change requires flipper to know tracker is unsure — silent: %b  notify: %b\n"
    known_silent known_notify;
  (* fraction of notify computations where the tracker is sure *)
  let sure =
    Knowledge.sure_ext notify (Pset.singleton p1) (Prop.extent notify Tracking.bit)
  in
  let total = Universe.size notify in
  let n_sure = Bitset.cardinal sure in
  Printf.printf "  notify protocol: tracker sure in %d / %d computations\n" n_sure total;
  claim "E12 silent: the tracker is unsure after every flip" unsure_after;
  claim "E12 the tracker is unsure while the bit changes (silent and notify)"
    (changing_silent && changing_notify);
  claim "E12 a change requires the flipper to know the tracker is unsure (silent and notify)"
    (known_silent && known_notify);
  claim_int "E12 notify universe size" ~expected:9 total;
  claim_int "E12 notify: computations where the tracker is sure" ~expected:2 n_sure

(* ---------------------------------------------------------------- E13 *)

let run_e13 () =
  section "E13" "knowledge in running protocols: ring mutex, echo waves, election";
  (* token ring: exclusion + fairness *)
  let tr = Token_ring.run { Token_ring.default with horizon = 1000.0 } in
  Printf.printf "  token ring (n=%d): mutual exclusion=%b  all served=%b  passes=%d  entries=[%s]\n"
    Token_ring.default.Token_ring.n tr.Token_ring.mutual_exclusion
    tr.Token_ring.all_served tr.Token_ring.token_passes
    (String.concat ";" (Array.to_list (Array.map string_of_int tr.Token_ring.entries)));
  claim "E13 token ring: mutual exclusion, every process served"
    (tr.Token_ring.mutual_exclusion && tr.Token_ring.all_served);
  (* echo: message complexity and the knowledge chain *)
  Printf.printf "  echo/PIF: n -> (messages, 2(n-1)^2, completion-knows-all)\n";
  let echo =
    List.map
      (fun n ->
        let o = Echo.run { Echo.default with n } in
        let expected = 2 * (n - 1) * (n - 1) in
        Printf.printf "    n=%2d  msgs=%4d  expected=%4d  knows-all=%b\n" n
          o.Echo.messages expected o.Echo.completion_knows_all;
        (o.Echo.messages = expected, o.Echo.completion_knows_all))
      [ 2; 4; 8; 16 ]
  in
  claim "E13 echo sends exactly 2(n-1)^2 messages (n = 2, 4, 8, 16)"
    (List.for_all fst echo);
  claim "E13 echo: the initiator's completion has a chain from every process"
    (List.for_all snd echo);
  (* chang-roberts: election message statistics over seeds *)
  Printf.printf "  chang-roberts (n=8): election messages over 20 seeds\n";
  let n = 8 in
  let msgs =
    List.map
      (fun s ->
        let o = Chang_roberts.run { Chang_roberts.default with n; seed = Int64.of_int s } in
        o.Chang_roberts.election_messages)
      (List.init 20 (fun i -> i + 1))
  in
  let mn = List.fold_left min max_int msgs and mx = List.fold_left max 0 msgs in
  let avg = float_of_int (List.fold_left ( + ) 0 msgs) /. 20.0 in
  let best = (2 * n) - 1 and worst = n * (n + 1) / 2 in
  Printf.printf "    min=%d  avg=%.1f  max=%d  (bounds: best 2n-1=%d, worst n(n+1)/2=%d)\n"
    mn avg mx best worst;
  claim "E13 Chang-Roberts election messages within [2n-1, n(n+1)/2] on every seed"
    (best <= mn && mx <= worst)

(* ---------------------------------------------------------------- E14 *)

let run_e14 () =
  section "E14" "§6 generalizations: state-based knowledge; consistent-cut lattice";
  let u = Universe.enumerate ~mode:`Full ping_pong ~depth:4 in
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  Printf.printf "  view -> |knows(p1, sent)| extent (|U|=%d):\n" (Universe.size u);
  let extents =
    List.map
      (fun view ->
        let t = State_iso.make u view in
        let k = State_iso.knows_ext t (Pset.singleton p1) (Prop.extent u sent) in
        Printf.printf "    %-12s %d computations\n" view.State_iso.name
          (Bitset.cardinal k);
        Bitset.cardinal k)
      [ State_iso.full; State_iso.counters; State_iso.last_event; State_iso.message_log ]
  in
  claim "E14 all four views agree: p1 knows 'sent' in 3 computations"
    (extents = [ 3; 3; 3; 3 ]);
  (* cut lattice sizes vs concurrency *)
  Printf.printf "  consistent cuts: sequential chain vs independent events\n";
  let chain_z =
    let m01 = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"m" in
    Trace.of_list
      [ Event.send ~pid:p0 ~lseq:0 m01; Event.receive ~pid:p1 ~lseq:0 m01 ]
  in
  let indep_z =
    Trace.of_list
      [ Event.internal ~pid:p0 ~lseq:0 "a"; Event.internal ~pid:p1 ~lseq:0 "b" ]
  in
  let chain_cuts = Cut.count_consistent ~n:2 chain_z in
  let indep_cuts = Cut.count_consistent ~n:2 indep_z in
  Printf.printf "    2-event causal chain: %d cuts;  2 independent events: %d cuts\n"
    chain_cuts indep_cuts;
  let ladder = Hpl_protocols.Two_generals.ladder_trace ~rounds:3 in
  let ladder_cuts = Cut.count_consistent ~n:2 ladder in
  Printf.printf "    two-generals ladder (7 events): %d cuts (chain-like: length+1 = 8)\n"
    ladder_cuts;
  claim_int "E14 cuts of a 2-event causal chain" ~expected:3 chain_cuts;
  claim_int "E14 cuts of 2 independent events" ~expected:4 indep_cuts;
  claim_int "E14 cuts of the 7-event two-generals ladder = length + 1"
    ~expected:(Trace.length ladder + 1) ladder_cuts;
  claim_int "E14 two-generals ladder length" ~expected:7 (Trace.length ladder);
  (* and the cut a real snapshot records is one point of that lattice *)
  let snap = Snapshot.run Snapshot.default in
  Printf.printf
    "  chandy-lamport snapshot of a live run: consistent=%b conservation=%b\n"
    snap.Snapshot.consistent snap.Snapshot.conservation;
  claim "E14 the Chandy-Lamport snapshot is consistent and conserves messages"
    (snap.Snapshot.consistent && snap.Snapshot.conservation)

(* ---------------------------------------------------------------- E15 *)

let run_e15 () =
  section "E15" "Chandy-Misra-Haas deadlock detection: learning you are stuck";
  let results =
    List.map
      (fun (name, params) ->
        let o = Deadlock.run params in
        Printf.printf "  %-24s declared=[%s]  ground-truth-match=%b  probes=%d\n"
          name
          (String.concat ""
             (Array.to_list (Array.map (fun b -> if b then "X" else ".") o.Deadlock.declared)))
          o.Deadlock.correct o.Deadlock.probes;
        let out = List.init params.Deadlock.n params.Deadlock.wait_for in
        let initiators = List.length (List.filter (( <> ) []) out) in
        let edges = List.length (List.concat out) in
        (o.Deadlock.correct, o.Deadlock.probes <= initiators * edges))
      [
        ("ring of 6 (all stuck)", Deadlock.ring_deadlock ~n:6);
        ("chain of 6 (none stuck)", Deadlock.chain_no_deadlock ~n:6);
        ("partial cycle {1,2}", Deadlock.of_edges ~n:4 [ (0, 1); (1, 2); (2, 1) ]);
        ( "two cycles {0,1},{3,4,5}",
          Deadlock.of_edges ~n:6 [ (0, 1); (1, 0); (3, 4); (4, 5); (5, 3) ] );
      ]
  in
  Printf.printf
    "  (a process declares iff its own probe returns — a process chain\n\
    \   around its cycle: you learn you are deadlocked only from yourself)\n";
  claim "E15 the declarers are exactly the processes on a wait-for cycle"
    (List.for_all fst results);
  claim "E15 probes <= initiators x edges" (List.for_all snd results)

(* ---------------------------------------------------------------- E16 *)

let run_e16 () =
  section "E16" "ordering protocols: Lamport mutex, causal broadcast, possibly/definitely";
  let sum = Array.fold_left ( + ) 0 in
  let mx = Lamport_mutex.run Lamport_mutex.default in
  let mx_n = Lamport_mutex.default.Lamport_mutex.n in
  Printf.printf
    "  lamport mutex (n=%d, 3 rounds): exclusion=%b  ts-order=%b  msgs/entry=%.1f (theory: %d)\n"
    mx_n mx.Lamport_mutex.mutual_exclusion
    mx.Lamport_mutex.timestamp_order_respected mx.Lamport_mutex.messages_per_entry
    (3 * (mx_n - 1));
  claim "E16 Lamport mutex: exclusion, timestamp order"
    (mx.Lamport_mutex.mutual_exclusion && mx.Lamport_mutex.timestamp_order_respected);
  claim_int "E16 Lamport mutex: 3(n-1) messages per entry"
    ~expected:(3 * (mx_n - 1) * sum mx.Lamport_mutex.entries)
    mx.Lamport_mutex.messages;
  let ra = Ricart_agrawala.run Ricart_agrawala.default in
  let ra_n = Ricart_agrawala.default.Ricart_agrawala.n in
  Printf.printf
    "  ricart-agrawala (n=%d):           exclusion=%b  msgs/entry=%.1f (theory: %d) — the fused-reply optimization\n"
    ra_n ra.Ricart_agrawala.mutual_exclusion
    ra.Ricart_agrawala.messages_per_entry
    (2 * (ra_n - 1));
  claim "E16 Ricart-Agrawala: exclusion" ra.Ricart_agrawala.mutual_exclusion;
  claim_int "E16 Ricart-Agrawala: 2(n-1) messages per entry"
    ~expected:(2 * (ra_n - 1) * sum ra.Ricart_agrawala.entries)
    ra.Ricart_agrawala.messages;
  let reordering seed =
    { Hpl_sim.Engine.default with fifo = false; max_delay = 40.0; seed }
  in
  Printf.printf "  causal broadcast under reordering (delay 1..40, no FIFO):\n";
  let causal =
    List.for_all Fun.id
      (List.map
         (fun seed ->
           let o =
             Causal_broadcast.run ~config:(reordering seed) Causal_broadcast.default
           in
           Printf.printf
             "    seed=%Ld  buffered=%2d/%d arrivals  causal-delivery=%b\n" seed
             o.Causal_broadcast.buffered_arrivals o.Causal_broadcast.delivered_total
             o.Causal_broadcast.causal_delivery_ok;
           o.Causal_broadcast.causal_delivery_ok)
         [ 1L; 2L; 3L ])
  in
  claim "E16 causal broadcast delivers causally in every seed" causal;
  Printf.printf "  total-order broadcast (sequencer), same network:\n";
  let orders =
    List.map
      (fun seed ->
        let o =
          Total_order.run ~config:(reordering seed)
            { Total_order.default with n = 4 }
        in
        Printf.printf "    seed=%Ld  identical delivery order=%b  gaps buffered=%d\n"
          seed o.Total_order.identical_order o.Total_order.gaps_buffered;
        o)
      [ 1L; 2L; 3L ]
  in
  claim "E16 total-order broadcast: identical delivery order in every seed"
    (List.for_all (fun o -> o.Total_order.identical_order) orders);
  claim "E16 total-order broadcast: gaps buffered in every seed"
    (List.for_all (fun o -> o.Total_order.gaps_buffered > 0) orders);
  (* possibly/definitely on a concurrent trace *)
  let pa = Pid.of_int 0 and pb = Pid.of_int 1 in
  let two_tickers =
    Trace.of_list
      [
        Event.internal ~pid:pa ~lseq:0 "tick";
        Event.internal ~pid:pb ~lseq:0 "tick";
        Event.internal ~pid:pa ~lseq:1 "tick";
        Event.internal ~pid:pb ~lseq:1 "tick";
      ]
  in
  let both_at_one z =
    Trace.local_length z pa = 1 && Trace.local_length z pb = 1
  in
  let possibly = Detect.possibly ~n:2 two_tickers both_at_one in
  let definitely = Detect.definitely ~n:2 two_tickers both_at_one in
  Printf.printf
    "  observer detection on 2x2 independent ticks: possibly(both-at-1)=%b  definitely=%b\n"
    possibly definitely;
  Printf.printf
    "  (exactly the §5 tracking gap: true on some interleaving, not forced on all)\n";
  claim "E16 both-at-first-tick is possible but not definite"
    (possibly && not definitely)

(* ---------------------------------------------------------------- E17 *)

let run_e17 () =
  section "E17" "elections and the synchrony they secretly buy (bully vs ring)";
  let show name o =
    Printf.printf "  %-34s coordinators=[%s]  agreed=%s  safe=%b  msgs=%d\n" name
      (String.concat ";" (List.map string_of_int o.Bully.coordinators))
      (match o.Bully.agreed_on with Some c -> "p" ^ string_of_int c | None -> "-")
      o.Bully.safe o.Bully.messages;
    o
  in
  let n = Bully.default.Bully.n in
  let alive = show "bully, all alive" (Bully.run Bully.default) in
  let top_crashed = show "bully, top crashed" (Bully.run { Bully.default with crash = Some 4 }) in
  let slow = { Hpl_sim.Engine.default with min_delay = 20.0; max_delay = 80.0 } in
  let broken =
    show "bully, delays >> timeout"
      (Bully.run ~config:slow { Bully.default with ok_timeout = 10.0 })
  in
  let cr = Chang_roberts.run { Chang_roberts.default with n = 5 } in
  Printf.printf
    "  %-34s leader=%s  agreed=%b  msgs=%d (no timeouts, but cannot survive a crash)\n"
    "chang-roberts ring, all alive"
    (match cr.Chang_roberts.leader with Some l -> "p" ^ string_of_int l | None -> "-")
    cr.Chang_roberts.agreed cr.Chang_roberts.messages;
  Printf.printf
    "  (bully tolerates crashes by spending timeouts — §5: without them,\n\
    \   silence can never become knowledge of failure)\n";
  claim "E17 bully, all alive: the top id wins, safely, in <= n^2 messages"
    (alive.Bully.coordinators = [ n - 1 ]
    && alive.Bully.agreed_on = Some (n - 1)
    && alive.Bully.safe
    && alive.Bully.messages <= n * n);
  claim "E17 bully, top crashed: the next id inherits"
    (top_crashed.Bully.coordinators = [ n - 2 ]
    && top_crashed.Bully.agreed_on = Some (n - 2)
    && top_crashed.Bully.safe);
  claim "E17 bully, delays above the timeout: all five declare themselves"
    (List.sort compare broken.Bully.coordinators = List.init n Fun.id
    && not broken.Bully.safe);
  claim "E17 Chang-Roberts elects the top id and agrees"
    (cr.Chang_roberts.leader = Some 4 && cr.Chang_roberts.agreed)

(* ---------------------------------------------------------------- E18 *)

let run_e18 () =
  section "E18" "post-mortem knowledge: replay universes = cut lattices";
  let params = { Underlying.default with n = 3; budget = 4; seed = 4L } in
  let r = Underlying.run params in
  let z = r.Hpl_sim.Engine.trace in
  let n = 3 in
  let u = Replay.universe_of_trace ~n z in
  let cuts = Cut.count_consistent ~n z in
  Printf.printf
    "  recorded run: %d events; consistent cuts: %d; replay universe: %d (identical by construction)\n"
    (Trace.length z) cuts (Universe.size u);
  claim_int "E18 replay universe size = consistent cuts" ~expected:cuts (Universe.size u);
  let started =
    Prop.make "root started" (fun c -> Trace.send_count c (Pid.of_int 0) > 0)
  in
  Printf.printf "  first-knowledge positions (log-analyst view):";
  let firsts =
    List.map
      (fun i ->
        let k = Replay.knew_at ~n z (Pset.singleton (Pid.of_int i)) started in
        Printf.printf " p%d:%s" i
          (match k with Some k -> string_of_int k | None -> "never");
        (i, k))
      [ 0; 1; 2 ]
  in
  print_newline ();
  (* Lemma 4: the root learns at its own send, everyone else at a
     receive of its own *)
  claim "E18 p0 first knows at its own send, p1 and p2 each at a receive"
    (List.for_all
       (fun (i, k) ->
         match k with
         | Some k when k >= 0 ->
             let e = Trace.nth z k in
             Pid.to_int e.Event.pid = i
             && if i = 0 then Event.is_send e else Event.is_receive e
         | _ -> false)
       firsts)

(* ---------------------------------------------------------------- E19 *)

let run_e19 () =
  section "E19" "two-phase commit: blocking as a knowledge limitation";
  let show name o =
    Printf.printf "  %-30s decisions=[%s]  blocked=%d  agree=%b\n" name
      (String.concat ";"
         (Array.to_list
            (Array.map
               (function Some d -> d | None -> "?")
               o.Two_phase_commit.decisions)))
      o.Two_phase_commit.blocked o.Two_phase_commit.agreement;
    o
  in
  let n = Two_phase_commit.default.Two_phase_commit.n in
  let everywhere d o =
    Array.for_all (( = ) (Some d)) o.Two_phase_commit.decisions
  in
  let yes = show "all yes" (Two_phase_commit.run Two_phase_commit.default) in
  let no =
    show "one NO voter"
      (Two_phase_commit.run { Two_phase_commit.default with no_voters = [ 2 ] })
  in
  let crashed =
    show "coordinator crash at t=10"
      (Two_phase_commit.run
         { Two_phase_commit.default with crash_coordinator_at = Some 10.0 })
  in
  let u = Universe.enumerate ~mode:`Canonical Two_phase_commit.spec ~depth:8 in
  let uncertain = Two_phase_commit.uncertainty_is_real u in
  Printf.printf
    "  exact (universe %d): YES-voted, outcome-decided, participant knows neither verdict: %b\n"
    (Universe.size u) uncertain;
  Printf.printf
    "  (blocking = the §4.3 corollary: only a receive can resolve the window)\n";
  claim "E19 all YES: commit everywhere" (everywhere "commit" yes);
  claim_int "E19 all YES: 3(n-1) messages" ~expected:(3 * (n - 1))
    yes.Two_phase_commit.messages;
  claim "E19 one NO: abort everywhere" (everywhere "abort" no);
  claim_int "E19 coordinator crash at t=10: every participant blocked"
    ~expected:(n - 1) crashed.Two_phase_commit.blocked;
  claim "E19 no run disagrees"
    (List.for_all (fun o -> o.Two_phase_commit.agreement) [ yes; no; crashed ]);
  claim_int "E19 miniature universe size" ~expected:114 (Universe.size u);
  claim "E19 a YES-voted participant knows neither verdict once the outcome is decided"
    uncertain

(* ---------------------------------------------------------------- E20 *)

let run_e20 () =
  section "E20" "quorum knowledge: the ABD register under crashes";
  let show name o =
    Printf.printf "  %-22s atomic=%b  completed=%2d  blocked=%d  msgs=%d\n" name
      o.Abd_register.atomic o.Abd_register.completed_ops o.Abd_register.blocked_ops
      o.Abd_register.messages;
    o
  in
  let healthy = show "healthy (n=5)" (Abd_register.run Abd_register.default) in
  let minority =
    show "minority crash (2/5)"
      (Abd_register.run { Abd_register.default with crash = [ (30.0, 3); (60.0, 4) ] })
  in
  let majority =
    show "majority crash (3/5)"
      (Abd_register.run
         { Abd_register.default with crash = [ (30.0, 2); (30.0, 3); (30.0, 4) ] })
  in
  Printf.printf
    "  (overlapping majorities force a process chain between any two\n\
    \   operations: atomicity survives any minority, liveness does not\n\
    \   survive a majority — safety is knowledge, liveness is reachability)\n";
  let d = Abd_register.default in
  claim_int "E20 healthy: every operation completes"
    ~expected:(d.Abd_register.writes + ((d.Abd_register.n - 1) * d.Abd_register.reads_per_reader))
    healthy.Abd_register.completed_ops;
  claim "E20 atomic in every run"
    (List.for_all (fun o -> o.Abd_register.atomic) [ healthy; minority; majority ]);
  claim "E20 healthy and minority crash: no operation blocks"
    (healthy.Abd_register.blocked_ops = 0 && minority.Abd_register.blocked_ops = 0);
  claim "E20 majority crash: operations block" (majority.Abd_register.blocked_ops > 0)

(* ---------------------------------------------------------------- E21 *)

let run_e21 () =
  section "E21" "consensus: single-decree Paxos under contention and crashes";
  let values o = List.sort_uniq compare (List.map snd o.Paxos.decided) in
  let show name o =
    Printf.printf "  %-32s agree=%b  decided=%b  ballots=%d  msgs=%3d  value=%s\n"
      name o.Paxos.agreement o.Paxos.any_decision o.Paxos.ballots_started
      o.Paxos.messages
      (match values o with
      | [ v ] -> string_of_int v
      | [] -> "-"
      | vs -> "CONFLICT " ^ String.concat "," (List.map string_of_int vs));
    o
  in
  let one = show "1 proposer" (Paxos.run Paxos.default) in
  let contention =
    show "3 proposers (contention)" (Paxos.run { Paxos.default with proposers = 3 })
  in
  let acceptors =
    show "2 proposers, 2 acceptors crash"
      (Paxos.run { Paxos.default with proposers = 2; crash = [ (5.0, 3); (5.0, 4) ] })
  in
  let adoption =
    show "2 proposers, p0 crashes mid-ballot"
      (Paxos.run { Paxos.default with proposers = 2; crash = [ (22.0, 0) ] })
  in
  Printf.printf
    "  (the last row shows value adoption: p0 is dead, its value wins —\n\
    \   quorum intersection forced the chain from the old ballot to the new)\n";
  claim "E21 one proposer decides in one ballot"
    (one.Paxos.any_decision && one.Paxos.ballots_started = 1);
  claim "E21 every run agrees and decides"
    (List.for_all
       (fun o -> o.Paxos.agreement && o.Paxos.any_decision)
       [ one; contention; acceptors; adoption ]);
  claim "E21 p0 crashes mid-ballot and its value still wins"
    (values adoption = [ Paxos.proposal_of 0 ])

let () =
  run_e1 ();
  run_e2 ();
  run_e3 ();
  run_e4 ();
  run_e5 ();
  run_e6 ();
  run_e7 ();
  run_e8 ();
  run_e9 ();
  run_e10 ();
  run_e11 ();
  run_e12 ();
  run_e13 ();
  run_e14 ();
  run_e15 ();
  run_e16 ();
  run_e17 ();
  run_e18 ();
  run_e19 ();
  run_e20 ();
  run_e21 ();
  match List.rev !failed with
  | [] -> Printf.printf "\nall %d claims hold\n" !claims
  | names ->
      Printf.eprintf "\n%d of %d claims failed:\n" (List.length names) !claims;
      List.iter (Printf.eprintf "  %s\n") names;
      exit 1
