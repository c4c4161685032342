(* Static analysis (lib/analysis): channel-graph extraction, chain
   feasibility, locality inference, and the lint driver — including the
   two cross-checks that tie the static layer to the exact engine:

   - locality inference vs [Local_pred.is_local] on full universes;
   - the soundness property: whenever lint's chain analysis says a
     nested-knowledge formula can never hold (no gain chain, body false
     initially — Theorems 4-5), enumeration must find no computation
     where it holds. *)
open Hpl_core
open Hpl_faults
open Hpl_protocols
open Hpl_analysis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* -- channel graph -------------------------------------------------------- *)

let chan_list = Alcotest.(list (pair int int))

let test_graph_one_msg () =
  let g = Channel_graph.extract Fixtures.one_msg in
  check chan_list "one channel" [ (0, 1) ] (Channel_graph.channels g);
  check chan_list "delivered" [ (0, 1) ] (Channel_graph.delivered g);
  check
    Alcotest.(list string)
    "payloads" [ "m" ]
    (Channel_graph.channel_payloads g 0 1);
  checkb "exploration saturates" true (Channel_graph.scope g = Channel_graph.Exact);
  checkb "p0 active" true (Channel_graph.active g 0);
  checkb "reach 0->1" true (Channel_graph.reach g 0 1);
  checkb "no reach 1->0" false (Channel_graph.reach g 1 0);
  check
    Alcotest.(option (list int))
    "path" (Some [ 0; 1 ])
    (Channel_graph.path g 0 1)

let test_graph_ring () =
  let inst =
    match Protocol.Registry.parse "token-ring:3" with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let g = Channel_graph.extract ~fuel:6 (Protocol.spec_of inst) in
  check chan_list "ring channels"
    [ (0, 1); (1, 2); (2, 0) ]
    (Channel_graph.channels g);
  checkb "reach around the ring" true (Channel_graph.reach g 1 0);
  check
    Alcotest.(option (list int))
    "two-hop path" (Some [ 0; 1; 2 ])
    (Channel_graph.path g 0 2)

let test_graph_hygiene () =
  (* p0 sends to itself and out of range; p1 receives-if nothing ever
     matches; p2 does nothing at all *)
  let bad =
    Spec.make ~n:3 (fun p history ->
        if history <> [] then []
        else if Pid.equal p (Pid.of_int 0) then
          [ Spec.Send_to (Pid.of_int 0, "self"); Spec.Send_to (Pid.of_int 9, "far") ]
        else if Pid.equal p (Pid.of_int 1) then
          [ Spec.Recv_if ("never", fun _ -> false) ]
        else [])
  in
  let g = Channel_graph.extract bad in
  check
    Alcotest.(list (triple int int string))
    "bad sends"
    [ (0, 0, "self"); (0, 9, "far") ]
    (Channel_graph.bad_sends g);
  checkb "p2 inactive" false (Channel_graph.active g 2);
  checkb "p1 starved" true
    (List.exists
       (fun (s, sat) -> s = Channel_graph.Filtered "never" && not sat)
       (Channel_graph.recv_shapes g 1))

let test_graph_dead_letter () =
  (* p0 sends "x"; p1 only accepts payload "y" *)
  let s =
    Spec.make ~n:2 (fun p history ->
        if Pid.equal p (Pid.of_int 0) then
          if history = [] then [ Spec.Send_to (Pid.of_int 1, "x") ] else []
        else [ Spec.Recv_if ("only-y", fun m -> m.Msg.payload = "y") ])
  in
  let g = Channel_graph.extract s in
  check
    Alcotest.(list (triple int int string))
    "dead letter"
    [ (0, 1, "x") ]
    (Channel_graph.dead_letters g);
  check chan_list "no delivered edge" [] (Channel_graph.delivered g)

let test_graph_rule_raises () =
  let s =
    Spec.make ~n:2 (fun p _ ->
        if Pid.equal p (Pid.of_int 0) then failwith "boom" else [])
  in
  let g = Channel_graph.extract s in
  checkb "error recorded" true
    (match Channel_graph.rule_errors g with [ (0, _) ] -> true | _ -> false)

let test_graph_matches_enabled () =
  (* over-approximation: every event enabled during real enumeration
     lands on a channel / tag the graph knows *)
  List.iter
    (fun name ->
      let inst =
        match Protocol.Registry.parse name with
        | Ok i -> i
        | Error e -> Alcotest.fail e
      in
      let spec = Protocol.spec_of inst in
      let depth = min 4 (Protocol.depth_of inst) in
      let g = Channel_graph.extract ~fuel:depth spec in
      let u = Universe.enumerate ~mode:`Full spec ~depth in
      Universe.iter
        (fun _ z ->
          List.iter
            (fun e ->
              match e.Event.kind with
              | Event.Send m ->
                  let c = (Pid.to_int m.Msg.src, Pid.to_int m.Msg.dst) in
                  checkb
                    (Printf.sprintf "%s: channel %d->%d known" name (fst c)
                       (snd c))
                    true
                    (List.mem c (Channel_graph.channels g))
              | Event.Receive m ->
                  let c = (Pid.to_int m.Msg.src, Pid.to_int m.Msg.dst) in
                  checkb
                    (Printf.sprintf "%s: delivery %d->%d known" name (fst c)
                       (snd c))
                    true
                    (List.mem c (Channel_graph.delivered g))
              | Event.Internal _ -> ())
            (Trace.to_list z))
        u)
    [ "ping-pong"; "two-generals"; "token-ring:3"; "echo:3" ]

(* -- chain feasibility ---------------------------------------------------- *)

let nest_of text =
  match Formula.parse text with
  | Error e -> Alcotest.fail e
  | Ok f -> (
      match Formula.nests f with
      | [ n ] -> n
      | ns -> Alcotest.fail (Printf.sprintf "expected 1 nest, got %d" (List.length ns)))

let test_chain_feasible () =
  let inst =
    match Protocol.Registry.parse "token-ring:3" with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let g = Channel_graph.extract ~fuel:6 (Protocol.spec_of inst) in
  let verdict = Chain_check.gain g ~origins:(Some [ 0 ]) (nest_of "K p2 holds0") in
  (match verdict with
  | Chain_check.Feasible { chain; min_hops; _ } ->
      check Alcotest.(list int) "chain" [ 0; 2 ] chain;
      check Alcotest.int "hops around ring" 2 min_hops
  | _ -> Alcotest.fail "expected feasible");
  check Alcotest.(option int) "depth bound" (Some 4)
    (Chain_check.min_depth verdict)

let test_chain_infeasible () =
  let g = Channel_graph.extract Fixtures.one_msg in
  (* p1's state can never reach p0: no channel back *)
  match Chain_check.gain g ~origins:(Some [ 1 ]) (nest_of "K p0 x") with
  | Chain_check.Infeasible { level = Some 1; _ } -> ()
  | _ -> Alcotest.fail "expected infeasible at level 1"

let test_chain_everyone () =
  let g = Channel_graph.extract Fixtures.one_msg in
  (* E {p0,p1} of a p0-local fact: p1 is reachable, but p0 knows it
     trivially (reflexive reach) — feasible *)
  (match Chain_check.gain g ~origins:(Some [ 0 ]) (nest_of "E {0,1} x") with
  | Chain_check.Feasible _ -> ()
  | _ -> Alcotest.fail "E over reachable members should be feasible");
  (* E of a p1-local fact: p0 can never learn it — infeasible *)
  match Chain_check.gain g ~origins:(Some [ 1 ]) (nest_of "E {0,1} x") with
  | Chain_check.Infeasible _ -> ()
  | _ -> Alcotest.fail "E with an unreachable member should be infeasible"

let test_chain_loss_direction () =
  let g = Channel_graph.extract Fixtures.one_msg in
  (* gain of K p1 (p0-local b) is feasible along 0->1; loss needs the
     reverse chain <p1, p0>, which does not exist *)
  (match Chain_check.gain g ~origins:(Some [ 0 ]) (nest_of "K p1 x") with
  | Chain_check.Feasible _ -> ()
  | _ -> Alcotest.fail "gain should be feasible");
  match Chain_check.loss g ~origins:(Some [ 0 ]) (nest_of "K p1 x") with
  | Chain_check.Infeasible _ -> ()
  | _ -> Alcotest.fail "loss should be infeasible"

let test_chain_nested_depth () =
  let inst =
    match Protocol.Registry.parse "token-ring:3" with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let g = Channel_graph.extract ~fuel:8 (Protocol.spec_of inst) in
  (* K p1 K p2 holds0: info must travel p0 -> p2 (2 hops), then p2 -> p1
     (2 more around the ring) *)
  match Chain_check.gain g ~origins:(Some [ 0 ]) (nest_of "K p1 (K p2 holds0)") with
  | Chain_check.Feasible { min_hops; _ } ->
      check Alcotest.int "nested hops" 4 min_hops
  | _ -> Alcotest.fail "expected feasible"

(* -- locality vs Local_pred ----------------------------------------------- *)

let test_locality_cross_check () =
  List.iter
    (fun name ->
      let inst =
        match Protocol.Registry.parse name with
        | Ok i -> i
        | Error e -> Alcotest.fail e
      in
      let spec = Protocol.spec_of inst in
      let atoms = Protocol.atoms_of inst in
      let depth = min 4 (Protocol.depth_of inst) in
      let loc = Locality.probe spec ~depth ~atoms in
      if Locality.exhaustive loc then begin
        let u = Universe.enumerate ~mode:`Full spec ~depth in
        List.iter
          (fun (aname, prop) ->
            let inferred =
              match Locality.local_pids loc aname with
              | Some ps -> ps
              | None -> Alcotest.fail "atom missing from probe"
            in
            for p = 0 to Spec.n spec - 1 do
              let exact =
                Local_pred.is_local u (Pset.singleton (Pid.of_int p)) prop
              in
              checkb
                (Printf.sprintf "%s/%s local to p%d" name aname p)
                exact
                (List.mem p inferred)
            done)
          atoms
      end)
    [ "ping-pong"; "two-generals"; "token-ring:3"; "tracking"; "credit:2" ]

(* -- the soundness property ----------------------------------------------- *)

(* For every registry protocol at depth <= 5: derive every single- and
   two-level nest over its atoms; whenever the static analysis says the
   nest provably never holds, enumeration must agree — the nested
   knowledge holds at no stored computation. *)
let test_unlearnable_sound () =
  let budget = Universe.budget ~max_states:4_000 () in
  let fired = ref 0 in
  List.iter
    (fun proto ->
      let inst = Protocol.default_instance proto in
      let spec = Protocol.spec_of inst in
      let atoms = Protocol.atoms_of inst in
      if atoms <> [] then begin
        let depth = min 5 (Protocol.depth_of inst) in
        let n = Spec.n spec in
        let g = Channel_graph.extract ~fuel:depth ~max_states:10_000 spec in
        let loc = Locality.probe spec ~depth ~atoms in
        let env name = List.assoc_opt name atoms in
        let pids = List.init (min n 4) Fun.id in
        let nests =
          List.concat_map
            (fun (aname, _) ->
              let body = Formula.Atom aname in
              List.concat_map
                (fun q ->
                  Formula.Know ([ q ], body)
                  :: List.map
                       (fun r -> Formula.Know ([ r ], Formula.Know ([ q ], body)))
                       pids)
                pids)
            atoms
          |> List.concat_map Formula.nests
        in
        let universe = lazy (Universe.enumerate ~budget spec ~depth) in
        List.iter
          (fun (nest : Formula.nest) ->
            let origins = Locality.origins loc nest.body in
            let gain = Chain_check.gain g ~origins nest in
            if Chain_check.never_holds g ~env ~depth:(Some depth) nest ~gain
            then begin
              incr fired;
              let u = Lazy.force universe in
              let body_prop =
                match nest.body with
                | Formula.Atom a -> List.assoc a atoms
                | _ -> Alcotest.fail "atom body expected"
              in
              let psets =
                List.map
                  (fun (l : Formula.nest_level) ->
                    Pset.of_list (List.map Pid.of_int l.Formula.pset))
                  nest.levels
              in
              let k =
                Knowledge.nested_ext u psets (Prop.extent u body_prop)
              in
              Universe.iter
                (fun i _ ->
                  checkb
                    (Printf.sprintf "%s: %s holds nowhere"
                       (Protocol.name proto)
                       (Formula.print nest.subformula))
                    false (Bitset.mem k i))
                u
            end)
          nests
      end)
    (Protocol.Registry.list ());
  (* guard against vacuity: the registry contains protocols (e.g. the
     one-way [underlying] chain) whose derived nests are unlearnable *)
  checkb "some unlearnable verdicts were exercised" true (!fired > 0)

(* -- scenario channel validation ------------------------------------------ *)

let test_validate_channels () =
  let channels = [ (0, 1); (1, 2); (2, 0) ] in
  let ok s =
    match Faults.Scenario.parse s with
    | Ok t -> Faults.Scenario.validate_channels t ~channels
    | Error e -> Alcotest.fail e
  in
  checkb "existing channel passes" true (ok "drop:p0->p1" = Ok ());
  checkb "wildcard passes" true (ok "drop:*" = Ok ());
  checkb "crash items pass" true (ok "crash:p1@2" = Ok ());
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match ok "drop:p0->p2" with
  | Error msg ->
      checkb "error names the bad channel" true (contains msg "p0->p2");
      checkb "error names a real channel" true (contains msg "p0->p1")
  | Ok () -> Alcotest.fail "nonexistent drop channel must be rejected");
  match ok "dup:p2->p1" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nonexistent dup channel must be rejected"

(* -- lint driver ----------------------------------------------------------- *)

let test_lint_clean_and_dirty () =
  let lint name =
    match Protocol.Registry.parse name with
    | Ok i -> Lint.lint_instance i
    | Error e -> Alcotest.fail e
  in
  checkb "token-ring clean" true (Lint.clean (lint "token-ring:3"));
  (* tracking's starved receive is declared expected — clean *)
  let tr = lint "tracking" in
  checkb "tracking clean via expectation" true (Lint.clean tr);
  checkb "tracking finding annotated" true
    (List.exists
       (fun f -> f.Lint.rule = "recv-starved" && f.Lint.expected)
       tr.Lint.findings)

let test_lint_unlearnable_formula () =
  let inst =
    match Protocol.Registry.parse "underlying:3" with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let f =
    match Formula.parse "K p0 chaindone" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let r = Lint.lint_instance ~formulas:[ f ] inst in
  checkb "reported as error" true
    (List.exists
       (fun fi -> fi.Lint.rule = "chain-infeasible" && fi.Lint.severity = Lint.Error)
       r.Lint.findings);
  check Alcotest.int "exit code" 1 (Lint.exit_code [ r ])

let test_lint_registry_gate () =
  (* the CI gate in library form: every protocol lints clean *)
  let reports =
    List.map
      (fun t ->
        Lint.lint_instance ~max_states:8_000 (Protocol.default_instance t))
      (Protocol.Registry.list ())
  in
  List.iter
    (fun r ->
      checkb (Printf.sprintf "%s clean" r.Lint.subject) true (Lint.clean r))
    reports

let suite =
  [
    Alcotest.test_case "graph: one message" `Quick test_graph_one_msg;
    Alcotest.test_case "graph: token ring" `Quick test_graph_ring;
    Alcotest.test_case "graph: hygiene findings" `Quick test_graph_hygiene;
    Alcotest.test_case "graph: dead letter" `Quick test_graph_dead_letter;
    Alcotest.test_case "graph: rule exception" `Quick test_graph_rule_raises;
    Alcotest.test_case "graph: over-approximates enumeration" `Slow
      test_graph_matches_enabled;
    Alcotest.test_case "chain: feasible with witness" `Quick test_chain_feasible;
    Alcotest.test_case "chain: infeasible" `Quick test_chain_infeasible;
    Alcotest.test_case "chain: everyone levels" `Quick test_chain_everyone;
    Alcotest.test_case "chain: loss direction" `Quick test_chain_loss_direction;
    Alcotest.test_case "chain: nested depth bound" `Quick test_chain_nested_depth;
    Alcotest.test_case "locality matches Local_pred" `Slow
      test_locality_cross_check;
    Alcotest.test_case "unlearnable verdicts sound vs enumeration" `Slow
      test_unlearnable_sound;
    Alcotest.test_case "scenario channel validation" `Quick
      test_validate_channels;
    Alcotest.test_case "lint: clean and expected findings" `Quick
      test_lint_clean_and_dirty;
    Alcotest.test_case "lint: unlearnable formula is an error" `Quick
      test_lint_unlearnable_formula;
    Alcotest.test_case "lint: whole registry clean" `Slow
      test_lint_registry_gate;
  ]
