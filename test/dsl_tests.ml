(* The protocol DSL (lib/dsl): parity of the ported corpus/specs/*.hpl
   against their compiled builtins, elaborator diagnostics, and the
   seeded fuzz pipeline (§3 laws + lint soundness on generated specs). *)
open Hpl_core
open Hpl_protocols
open Hpl_dsl

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let load_spec file =
  let path = "corpus/specs/" ^ file in
  match List.assoc_opt path Corpus.specs with
  | None -> Alcotest.failf "%s is not embedded" path
  | Some src -> (
      match Elaborate.load_string ~file:path src with
      | Ok l -> l
      | Error d -> Alcotest.failf "cannot load %s: %s" file (Diag.to_string d))

let builtin name =
  match Protocol.Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "builtin %s not registered" name

(* -- parity: ported specs are bit-identical to their builtins ------------ *)

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

let parity_case file name () =
  let loaded = load_spec file in
  let b = builtin name in
  check Alcotest.string "name" (Protocol.name b) (Protocol.name loaded.proto);
  check tint "suggested depth" (Protocol.suggested_depth b)
    (Protocol.suggested_depth loaded.proto);
  check (Alcotest.list Alcotest.string) "fault scenarios"
    (Protocol.fault_scenarios b)
    (Protocol.fault_scenarios loaded.proto);
  (* same keys, defaults and bounds: every builtin instance is then a
     valid port instance, which is what lets flow analyze the builtin
     through its port *)
  let params p =
    List.map
      (fun (d : Protocol.param) -> ((d.key, d.default), (d.lo, d.hi)))
      (Protocol.params p)
  in
  check
    Alcotest.(list (pair (pair string int) (pair int (option int))))
    "parameters: key, default, lo, hi" (params b) (params loaded.proto);
  let ib = Protocol.default_instance b in
  let il = Protocol.default_instance loaded.proto in
  let depth = Protocol.suggested_depth b in
  let ub = Universe.enumerate (Protocol.spec_of ib) ~depth in
  let ul = Universe.enumerate (Protocol.spec_of il) ~depth in
  assert_bit_identical ~what:(name ^ " universe") ul ub;
  (* atoms: same names, same extent over the (identical) universe *)
  let atoms_b = Protocol.atoms_of ib and atoms_l = Protocol.atoms_of il in
  check tint "atom count" (List.length atoms_b) (List.length atoms_l);
  List.iter
    (fun (aname, pb) ->
      match List.assoc_opt aname atoms_l with
      | None -> Alcotest.failf "atom %s missing from the loaded spec" aname
      | Some pl ->
          check tbool
            (Printf.sprintf "atom %s extent" aname)
            true
            (Bitset.equal (Prop.extent ub pb) (Prop.extent ub pl)))
    atoms_b;
  (* symmetry: every loaded generator is an automorphism, and the
     generated groups coincide (same order, each generator a member) *)
  List.iter
    (fun g ->
      check tbool "generator is an automorphism" true
        (Symmetry.is_automorphism (Protocol.spec_of il) g))
    (Protocol.generators_of il);
  match (Protocol.symmetry_of ib, Protocol.symmetry_of il) with
  | None, None -> ()
  | Some gb, Some gl ->
      check tint "group order" (Symmetry.order gb) (Symmetry.order gl);
      List.iter
        (fun g ->
          check tbool "loaded generator in builtin group" true
            (Symmetry.index_of gb g <> None))
        (Protocol.generators_of il)
  | Some _, None -> Alcotest.fail "loaded spec lost the symmetry group"
  | None, Some _ -> Alcotest.fail "loaded spec gained a symmetry group"

(* parity at non-default instantiations: q above the member count
   keeps the clamp honest, and n = 2 (one member) is where both of
   quorum.hpl's member cycles drop out *)
let test_quorum_clamp () =
  let loaded = load_spec "quorum.hpl" in
  let b = builtin "quorum" in
  let inst p vals =
    match Protocol.instantiate p vals with
    | Ok i -> i
    | Error e -> Alcotest.failf "instantiate: %s" e
  in
  List.iter
    (fun vals ->
      let ub = Universe.enumerate (Protocol.spec_of (inst b vals)) ~depth:6 in
      let ul =
        Universe.enumerate (Protocol.spec_of (inst loaded.proto vals)) ~depth:6
      in
      assert_bit_identical
        ~what:(Printf.sprintf "quorum:%s" (String.concat ":" (List.map string_of_int vals)))
        ul ub)
    [ [ 3; 1 ]; [ 4; 9 ]; [ 2; 1 ] ]

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
      (parity_case "ping_pong.hpl" "ping-pong");
    Alcotest.test_case "parity: ring" `Quick (parity_case "ring.hpl" "ring");
    Alcotest.test_case "parity: quorum" `Quick
      (parity_case "quorum.hpl" "quorum");
    Alcotest.test_case "parity: star-flood" `Quick
      (parity_case "star_flood.hpl" "star-flood");
    Alcotest.test_case "parity: mesh" `Quick (parity_case "mesh.hpl" "mesh");
    Alcotest.test_case "parity: quorum off-default values" `Quick
      test_quorum_clamp;
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
