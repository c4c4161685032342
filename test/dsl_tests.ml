(* The protocol DSL (lexer, parser and elaborator in lib/protocols): the
   five builtins defined by corpus/specs/*.hpl against a hand-written
   reference, every in-bound instance of them validating, elaborator
   diagnostics, and the seeded fuzz pipeline (§3 laws + lint soundness
   on generated specs). *)
open Hpl_core
open Hpl_protocols

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let builtin name =
  match Protocol.Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "builtin %s not registered" name

(* -- parity: the text-defined builtins against a reference ---------------

   ping-pong, ring, quorum, star-flood and mesh exist only as .hpl text.
   Each registry entry is compared with the hand-written rules and atoms
   in [Fixtures], and its parameters, suggested depth, fault scenarios
   and symmetry-group orders with pinned literals, so that an edit to a
   spec cannot change any of them unnoticed. *)

type reference = {
  params : ((string * int) * (int * int option)) list;
      (* key, default; lo, hi *)
  depth : int;
  faults : string list;
  spec : Protocol.values -> Spec.t;
  atoms : Protocol.values -> (string * Prop.t) list;
}

let references =
  let get = Protocol.get in
  [
    ( "ping-pong",
      {
        params = [];
        depth = 4;
        faults = [ "drop:p0->p1"; "dup:p1->p0"; "crash:p1@1" ];
        spec = (fun _ -> Fixtures.ping_pong);
        atoms =
          (fun _ ->
            [
              ("sent", Fixtures.has_sent "sent" 0);
              ("received", Fixtures.has_received "received" 1);
            ]);
      } );
    ( "ring",
      {
        params = [ (("n", 6), (2, None)); (("rounds", 2), (1, None)) ];
        depth = 6;
        faults = [];
        spec =
          (fun vs -> Fixtures.ring ~n:(get vs "n") ~rounds:(get vs "rounds"));
        atoms =
          (fun vs ->
            [
              ("all_sent", Fixtures.all_sent (get vs "n"));
              ("p0_sent", Fixtures.has_sent "p0_sent" 0);
            ]);
      } );
    ( "quorum",
      {
        params = [ (("n", 5), (2, None)); (("q", 2), (1, None)) ];
        depth = 6;
        faults = [];
        (* the vote threshold clamps to the member count *)
        spec =
          (fun vs ->
            let n = get vs "n" in
            Fixtures.quorum ~n ~q:(min (get vs "q") (n - 1)));
        atoms =
          (fun _ ->
            [
              ("decided", Fixtures.has_done "decided" 0 "decide");
              ("p1_voted", Fixtures.has_sent "p1_voted" 1);
            ]);
      } );
    ( "star-flood",
      {
        params = [ (("n", 5), (2, None)) ];
        depth = 6;
        faults = [];
        spec = (fun vs -> Fixtures.star_flood ~n:(get vs "n"));
        atoms =
          (fun vs ->
            [
              ( "all_acked",
                Prop.make "all_acked" (fun z ->
                    Fixtures.recvs (Trace.proj z Fixtures.p0) = get vs "n" - 1)
              );
              ("p1_acked", Fixtures.has_sent "p1_acked" 1);
            ]);
      } );
    ( "mesh",
      {
        params = [ (("n", 4), (2, None)) ];
        depth = 4;
        faults = [];
        spec = (fun vs -> Fixtures.mesh ~n:(get vs "n"));
        atoms =
          (fun vs ->
            [
              ("all_sent", Fixtures.all_sent (get vs "n"));
              ("p0_sent", Fixtures.has_sent "p0_sent" 0);
            ]);
      } );
  ]

(* Size equality plus pairwise Trace.equal in index order: enumeration
   is deterministic, so identical enabled sets force identical
   universes — any divergence in a rule shows up here. *)
let assert_bit_identical ~what ua ub =
  check tint (what ^ " size") (Universe.size ua) (Universe.size ub);
  Universe.iter
    (fun i za ->
      if not (Trace.equal za (Universe.comp ub i)) then
        Alcotest.failf "%s: computation %d differs: %s vs %s" what i
          (Trace.to_string za)
          (Trace.to_string (Universe.comp ub i)))
    ua

(* [instances]: registry instance names, each with the order of its
   symmetry group ([None]: no generators at those values) *)
let parity_case name instances () =
  let r = List.assoc name references in
  let b = builtin name in
  check Alcotest.string "name" name (Protocol.name b);
  check tint "suggested depth" r.depth (Protocol.suggested_depth b);
  check (Alcotest.list Alcotest.string) "fault scenarios" r.faults
    (Protocol.fault_scenarios b);
  check
    Alcotest.(list (pair (pair string int) (pair int (option int))))
    "parameters: key, default, lo, hi" r.params
    (List.map
       (fun (d : Protocol.param) -> ((d.key, d.default), (d.lo, d.hi)))
       (Protocol.params b));
  List.iter
    (fun (s, order) ->
      let inst =
        match Protocol.Registry.parse s with
        | Ok i -> i
        | Error e -> Alcotest.failf "%s: %s" s e
      in
      let vs = Protocol.values inst in
      let ur = Universe.enumerate (r.spec vs) ~depth:r.depth in
      let ub = Universe.enumerate (Protocol.spec_of inst) ~depth:r.depth in
      assert_bit_identical ~what:(s ^ " universe") ub ur;
      (* atoms: same names in the same order, same extent over the
         (identical) universe *)
      let atoms_r = r.atoms vs and atoms_b = Protocol.atoms_of inst in
      check
        (Alcotest.list Alcotest.string)
        (s ^ " atom names") (List.map fst atoms_r) (List.map fst atoms_b);
      List.iter2
        (fun (a, pr) (_, pb) ->
          check tbool
            (Printf.sprintf "%s atom %s extent" s a)
            true
            (Bitset.equal (Prop.extent ur pr) (Prop.extent ur pb)))
        atoms_r atoms_b;
      (* symmetry: every generator is an automorphism of the reference
         rules, and the generated group has the recorded order *)
      List.iter
        (fun g ->
          check tbool
            (Printf.sprintf "%s generator %s is an automorphism" s
               (Symmetry.to_string g))
            true
            (Symmetry.is_automorphism (r.spec vs) g))
        (Protocol.generators_of inst);
      check
        (Alcotest.option tint)
        (s ^ " group order") order
        (Option.map Symmetry.order (Protocol.symmetry_of inst)))
    instances

(* -- every in-bound instance of a text-defined builtin validates ---------

   [-f] runs [Elaborate.validate] at the instance's values; [-s] does
   not, so a spec edit that broke some in-bound instance would surface
   there as an uncaught [Diag.Error] rather than a diagnostic. Each
   parameter runs over lo .. min hi (lo + 6). *)
let test_ports_validate_on_grid () =
  let ported =
    List.filter_map
      (fun p -> Option.map (fun l -> (p, l)) (Builtins.port (Protocol.name p)))
      (Protocol.Registry.list ())
  in
  check tint "text-defined builtins" (List.length references)
    (List.length ported);
  let rec grid = function
    | [] -> [ [] ]
    | vs :: rest ->
        List.concat_map (fun v -> List.map (List.cons v) (grid rest)) vs
  in
  List.iter
    (fun (p, l) ->
      let range (d : Protocol.param) =
        let hi = min (Option.value d.hi ~default:max_int) (d.lo + 6) in
        List.init (hi - d.lo + 1) (fun i -> d.lo + i)
      in
      List.iter
        (fun vals ->
          match Protocol.instantiate p vals with
          | Error e -> Alcotest.failf "%s: %s" (Protocol.name p) e
          | Ok inst -> (
              match Elaborate.validate l (Protocol.values inst) with
              | Ok () -> ()
              | Error d ->
                  Alcotest.failf "%s: %s" (Protocol.instance_name inst)
                    (Diag.to_string d)))
        (grid (List.map range (Protocol.params p))))
    ported

(* -- elaborator diagnostics ----------------------------------------------- *)

let diag_case ~src ~line ~col ~needle () =
  match Elaborate.load_string ~file:"test.hpl" src with
  | Ok _ -> Alcotest.failf "expected a diagnostic matching %S, got Ok" needle
  | Error d ->
      let s = Diag.to_string d in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains s needle) then
        Alcotest.failf "diagnostic %S does not mention %S" s needle;
      check tint "line" line d.Diag.line;
      check tint "col" col d.Diag.col;
      (* lexer/parser/elaborator diagnostics are points — both span ends
         coincide and the rendering is exactly the classic prefix (flow
         findings are where guard-wide spans appear, see flow_tests) *)
      check tbool "point, not a span" false (Diag.is_span d);
      let prefix = Printf.sprintf "test.hpl:%d:%d: " line col in
      check tbool "classic point prefix" true
        (String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix)

let proto_wrap body = "protocol t {\n  processes 2\n" ^ body ^ "}\n"

let diag_cases =
  [
    ( "bad param bounds",
      "protocol t {\n  param n = 0\n  processes n\n}\n",
      2, 3, "below min" );
    ( "empty param bounds",
      "protocol t {\n  param n = 5 min 6 max 4\n  processes n\n}\n",
      2, 3, "bounds are empty" );
    ( "undeclared name in rule",
      proto_wrap "  process 0 {\n    when sends < k => send \"m\" to 1\n  }\n",
      4, 18, "undeclared name 'k'" );
    ( "undeclared process in rule",
      proto_wrap "  process 0 {\n    when sends < 1 => send \"m\" to q\n  }\n",
      4, 35, "undeclared name 'q'" );
    ( "duplicate atom",
      proto_wrap "  atom a at 0 = sends > 0\n  atom a at 1 = recvs > 0\n",
      4, 3, "duplicate atom 'a'" );
    ( "unparseable symmetry generator",
      proto_wrap "  symmetry spin\n",
      3, 12, "unknown symmetry generator 'spin'" );
    ( "missing processes",
      "protocol t {\n  doc \"x\"\n}\n",
      1, 10, "missing 'processes'" );
    ( "selector out of range",
      proto_wrap "  process 7 {\n    when len == 0 => recv\n  }\n",
      3, 11, "out of range" );
    (* a Binop carries its operator's position *)
    ( "boolean where integer",
      proto_wrap "  process 0 {\n    when len == 0 => send \"m\" to (1 == 1)\n  }\n",
      4, 37, "must be an integer" );
    ( "integer where boolean",
      proto_wrap "  process 0 {\n    when len + 1 => recv\n  }\n",
      4, 14, "must be a boolean" );
    ( "history in static position",
      "protocol t {\n  processes sends\n}\n",
      2, 13, "reads the local history" );
    ( "history-dependent divisor",
      proto_wrap "  process 0 {\n    when len % recvs == 0 => recv\n  }\n",
      4, 16, "history" );
    ( "self-send",
      proto_wrap "  process 0 {\n    when len == 0 => send \"m\" to 0\n  }\n",
      4, 34, "itself" );
    ( "division by zero at defaults",
      "protocol t {\n  param k = 2\n  processes 4 / (k - 2)\n}\n",
      3, 15, "evaluates to 0" );
    ( "unterminated string",
      "protocol t {\n  doc \"oops\n}\n",
      2, 7, "unterminated string" );
    ( "parse error: missing brace",
      "protocol t {\n  processes 2\n",
      3, 1, "expected" );
    ( "duplicate processes item",
      "protocol t {\n  processes 2\n  processes 3\n}\n",
      3, 3, "duplicate 'processes'" );
    ( "bad fault scenario",
      proto_wrap "  faults \"explode:p0\"\n",
      3, 3, "bad fault scenario" );
    ( "reserved parameter name",
      "protocol t {\n  param me = 1\n  processes 2\n}\n",
      2, 3, "reserved" );
    ( "bad protocol name",
      "protocol \"Bad_Name\" {\n  processes 2\n}\n",
      1, 10, "[a-z0-9-]+" );
    ( "loop variable shadows a parameter",
      "protocol t {\n  param k = 2\n  processes 3\n  process 0 {\n    for k \
       in 1 .. 2 { when len == 0 => send \"m\" to k }\n  }\n}\n",
      5, 9, "loop variable 'k' shadows a parameter" );
    ( "sends_to argument reads the history",
      proto_wrap
        "  process 0 {\n    when sends_to(recvs) == 0 => send \"m\" to 1\n  }\n",
      4, 19, "the argument of 'sends_to' must not read the local history" );
    ( "sends_to in a static position",
      "protocol t {\n  processes sends_to(0)\n}\n",
      2, 13, "'sends_to(...)' reads the local history" );
  ]

(* -- fuzz pipeline --------------------------------------------------------- *)

let fuzz_budget = Universe.budget ~max_states:30_000 ()

let fuzz_case index () =
  let seed = 7 in
  let src = Fuzz.spec_text ~seed ~index in
  let file = Printf.sprintf "fuzz-%d-%d.hpl" seed index in
  match Elaborate.load_string ~file src with
  | Error d ->
      Alcotest.failf "generated spec failed to load: %s\n%s" (Diag.to_string d)
        src
  | Ok loaded -> (
      let inst = Protocol.default_instance loaded.proto in
      let spec = Protocol.spec_of inst in
      let n = Spec.n spec in
      (* declared generators really are automorphisms *)
      List.iter
        (fun g ->
          check tbool "fuzz generator is an automorphism" true
            (Symmetry.is_automorphism spec g))
        (Protocol.generators_of inst);
      (* lint soundness: elaborated rules are total and well-addressed,
         so no error-severity hygiene finding can fire *)
      let report = Hpl_analysis.Lint.lint_instance inst in
      List.iter
        (fun f ->
          if f.Hpl_analysis.Lint.severity = Hpl_analysis.Lint.Error then
            Alcotest.failf "lint error %s on generated spec:\n%s"
              f.Hpl_analysis.Lint.rule src)
        report.Hpl_analysis.Lint.findings;
      (* §3 isomorphism laws on the enumerated universe *)
      let depth = min (Protocol.depth_of inst) 5 in
      let u = Universe.enumerate ~budget:fuzz_budget spec ~depth in
      match Universe.status u with
      | Universe.Truncated _ ->
          Alcotest.failf "fuzz universe truncated (size %d):\n%s"
            (Universe.size u) src
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
          check tbool "law: equivalence" true
            (Isomorphism.Laws.equivalence u (pick_pset ()));
          for _ = 1 to 5 do
            let p = pick_pset () and q = pick_pset () in
            let x = pick_idx () and y = pick_idx () in
            check tbool "law: idempotence" true
              (Isomorphism.Laws.idempotence u p x y);
            check tbool "law: reflexivity" true
              (Isomorphism.Laws.reflexivity u [ p; q ] x);
            check tbool "law: inversion" true
              (Isomorphism.Laws.inversion u [ p; q ] x y);
            check tbool "law: union-inter" true
              (Isomorphism.Laws.union_inter u p q x y);
            check tbool "law: monotonicity" true
              (Isomorphism.Laws.monotonicity u p (Pset.union p q) x y);
            check tbool "law: subsumption" true
              (Isomorphism.Laws.subsumption u p (Pset.union p q) x y)
          done)

let fuzz_determinism () =
  let a = Fuzz.spec_text ~seed:42 ~index:3 in
  let b = Fuzz.spec_text ~seed:42 ~index:3 in
  check Alcotest.string "same (seed, index), same text" a b;
  let c = Fuzz.spec_text ~seed:43 ~index:3 in
  check tbool "different seed, different text" true (a <> c)

(* -- registry suggestions (satellite: nearest-name hint) ------------------ *)

let test_registry_suggestion () =
  let expect_hint input hint =
    match Protocol.Registry.parse input with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" input
    | Error e ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        if not (contains e hint) then
          Alcotest.failf "error %S does not suggest %S" e hint
  in
  expect_hint "ping-png" "did you mean 'ping-pong'?";
  expect_hint "qourum:3" "did you mean 'quorum'?";
  expect_hint "rng" "did you mean 'ring'?";
  expect_hint "rng" "hpl list";
  (* far from everything: no suggestion, still points at hpl list *)
  match Protocol.Registry.parse "zzzzzzzzzz" with
  | Ok _ -> Alcotest.fail "zzzzzzzzzz unexpectedly parsed"
  | Error e ->
      check tbool "far-fetched input gets no suggestion" false
        (String.contains e '?');
      expect_hint "zzzzzzzzzz" "hpl list"

let suite =
  [
    Alcotest.test_case "parity: ping-pong" `Quick
      (parity_case "ping-pong" [ ("ping-pong", None) ]);
    Alcotest.test_case "parity: ring" `Quick
      (parity_case "ring"
         [
           ("ring", Some 6);
           ("ring:3", Some 3);
           ("ring:2:1", Some 2);
           ("ring:4:3", Some 4);
         ]);
    Alcotest.test_case "parity: quorum" `Quick
      (parity_case "quorum" [ ("quorum", Some 24) ]);
    Alcotest.test_case "parity: star-flood" `Quick
      (parity_case "star-flood"
         [
           ("star-flood", Some 24);
           ("star-flood:2", None);
           ("star-flood:4", Some 6);
         ]);
    Alcotest.test_case "parity: mesh" `Quick
      (parity_case "mesh"
         [ ("mesh", Some 24); ("mesh:2", Some 2); ("mesh:5", Some 120) ]);
    (* q above the member count keeps the clamp honest, and n = 2 (one
       member) is where both of quorum.hpl's member cycles drop out *)
    Alcotest.test_case "parity: quorum off-default values" `Quick
      (parity_case "quorum"
         [
           ("quorum:2:1", None); ("quorum:3:1", Some 2); ("quorum:4:9", Some 6);
         ]);
    Alcotest.test_case "ported builtins validate on a parameter grid" `Quick
      test_ports_validate_on_grid;
    Alcotest.test_case "fuzz: deterministic" `Quick fuzz_determinism;
    Alcotest.test_case "registry: nearest-name suggestion" `Quick
      test_registry_suggestion;
  ]
  @ List.map
      (fun (name, src, line, col, needle) ->
        Alcotest.test_case ("diag: " ^ name) `Quick
          (diag_case ~src ~line ~col ~needle))
      diag_cases
  @ List.init 20 (fun i ->
        Alcotest.test_case (Printf.sprintf "fuzz: spec %d" i) `Quick
          (fuzz_case i))
