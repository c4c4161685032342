(* The epistemic-temporal formula language. *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool

let p0 = Fixtures.p0
let p1 = Fixtures.p1

let u = Universe.enumerate ~mode:`Full Fixtures.ping_pong ~depth:4
let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0)

let received =
  Prop.make "received" (fun z -> List.exists Event.is_receive (Trace.proj z p1))

let env = function
  | "sent" -> Some sent
  | "received" -> Some received
  | _ -> None

let parse_ok s =
  match Formula.parse s with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse %S: %s" s e

let eval_ok s =
  match Formula.eval u ~env (parse_ok s) with
  | Ok ext -> ext
  | Error e -> Alcotest.failf "eval %S: %s" s e

(* -- parsing ------------------------------------------------------------ *)

let test_parse_basics () =
  List.iter
    (fun s -> ignore (parse_ok s))
    [
      "true";
      "~false";
      "sent & received";
      "sent | received -> sent";
      "K p1 sent";
      "K 1 sent";
      "K {0,1} sent";
      "E {0,1} sent";
      "S p0 (sent & received)";
      "CK sent";
      "AG (sent -> K p1 sent)";
      "EF (K p0 (K p1 sent))";
      "sure p1 sent";
      "~K p1 ~sent";
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Formula.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "K sent";
      "(sent";
      "sent &";
      "K {0,} sent";
      "sent extra";
      "@";
      (* a pid is decimal digits whose value is an int *)
      "K p99999999999999999999 sent";
      "K 99999999999999999999 sent";
      "p99999999999999999999";
      "K 0x1 sent";
      "K 0b1 sent";
      "K 1_0 sent";
    ]

let test_precedence () =
  (* -> binds loosest and associates right; & over | *)
  check tbool "a & b | c parses as (a&b)|c" true
    (Formula.parse "sent & received | true"
    = Ok (Formula.Or (Formula.And (Formula.Atom "sent", Formula.Atom "received"), Formula.True)));
  check tbool "a -> b -> c right-assoc" true
    (Formula.parse "true -> false -> true"
    = Ok (Formula.Implies (Formula.True, Formula.Implies (Formula.False, Formula.True))))

let test_roundtrip_fixed () =
  List.iter
    (fun s ->
      let f = parse_ok s in
      match Formula.parse (Formula.print f) with
      | Ok f' -> check tbool ("roundtrip " ^ s) true (f = f')
      | Error e -> Alcotest.failf "reparse failed: %s" e)
    [
      "AG (holds2 -> K p2 (K p1 (~holds0) & K p3 (~holds4)))";
      "CK (sent | ~received)";
      "E {0,1} (S {1} sent)";
      "sure {0,1} (sent -> received)";
    ]

(* 100000 nested unary operators: the printer's output is linear in the
   formula (each level adds its prefix and one pair of parentheses), so
   printing it takes milliseconds, and it parses back to itself *)
let test_roundtrip_deep () =
  let ops =
    [|
      ((fun f -> Formula.Not f), "~");
      ((fun f -> Formula.Know ([ 0 ], f)), "K p0 ");
      ((fun f -> Formula.Sure ([ 0; 1 ], f)), "sure {p0,p1} ");
      ((fun f -> Formula.Common f), "CK ");
      ((fun f -> Formula.Ag f), "AG ");
      ((fun f -> Formula.Ef f), "EF ");
      ((fun f -> Formula.Ex f), "EX ");
    |]
  in
  let depth = 100_000 in
  let f = ref Formula.True in
  for k = depth - 1 downto 0 do
    f := fst ops.(k mod Array.length ops) !f
  done;
  let expected = Buffer.create (8 * depth) in
  for k = 0 to depth - 1 do
    Buffer.add_string expected (snd ops.(k mod Array.length ops));
    if k < depth - 1 then Buffer.add_char expected '('
  done;
  Buffer.add_string expected "true";
  Buffer.add_string expected (String.make (depth - 1) ')');
  let printed = Formula.print !f in
  check tbool "deep print" true (String.equal printed (Buffer.contents expected));
  check tbool "deep roundtrip" true (Formula.parse printed = Ok !f)

let qcheck_roundtrip =
  let open QCheck in
  let rec gen_formula depth =
    let open Gen in
    if depth = 0 then
      oneof
        [
          return Formula.True;
          return Formula.False;
          oneofl [ Formula.Atom "sent"; Formula.Atom "received" ];
        ]
    else
      let sub = gen_formula (depth - 1) in
      let ps = oneofl [ [ 0 ]; [ 1 ]; [ 0; 1 ] ] in
      oneof
        [
          map (fun f -> Formula.Not f) sub;
          map2 (fun a b -> Formula.And (a, b)) sub sub;
          map2 (fun a b -> Formula.Or (a, b)) sub sub;
          map2 (fun a b -> Formula.Implies (a, b)) sub sub;
          map2 (fun p f -> Formula.Know (p, f)) ps sub;
          map2 (fun p f -> Formula.Everyone (p, f)) ps sub;
          map2 (fun p f -> Formula.Someone (p, f)) ps sub;
          map (fun f -> Formula.Common f) sub;
          map (fun f -> Formula.Ag f) sub;
          map (fun f -> Formula.Ef f) sub;
          map (fun f -> Formula.Ax f) sub;
        ]
  in
  Test.make ~name:"formula print/parse roundtrip" ~count:300
    (make ~print:Formula.print (gen_formula 3))
    (fun f -> Formula.parse (Formula.print f) = Ok f)

(* -- evaluation ----------------------------------------------------------- *)

let test_eval_matches_api () =
  let pairs =
    [
      ("K p1 sent", Knowledge.knows_p u p1 sent);
      ("K p0 (K p1 sent)", Knowledge.knows_p u p0 (Knowledge.knows_p u p1 sent));
      ("sure p1 sent", Knowledge.sure u (Pset.singleton p1) sent);
      ("CK sent", Common_knowledge.common u sent);
      ("E {0,1} sent", Group.everyone u (Pset.all 2) sent);
      ("S {0,1} sent", Group.someone u (Pset.all 2) sent);
    ]
  in
  List.iter
    (fun (s, direct) ->
      let ext = eval_ok s in
      Universe.iter
        (fun i z ->
          check tbool ("agrees: " ^ s) (Prop.eval direct z) (Bitset.mem ext i))
        u)
    pairs

let test_eval_temporal () =
  let p = eval_ok "AG (sent -> AG sent)" in
  Universe.iter
    (fun i _ -> check tbool "stability valid" true (Bitset.mem p i))
    u;
  let q = eval_ok "EF received" in
  check tbool "EF received at start" true
    (Bitset.mem q (Universe.find_exn u Trace.empty))

let test_eval_errors () =
  check tbool "unbound atom" true
    (match Formula.eval u ~env (parse_ok "K p1 nonsense") with
    | Error e -> String.length e > 0
    | Ok _ -> false);
  check tbool "pid out of range" true
    (match Formula.eval u ~env (parse_ok "K p7 sent") with
    | Error _ -> true
    | Ok _ -> false)

let test_check_valid_and_witness () =
  (match Formula.check u ~env (parse_ok "sent -> S {0,1} sent") with
  | Ok `Valid -> ()
  | Ok (`Fails_at z) -> Alcotest.failf "unexpected failure at %s" (Trace.to_string z)
  | Error e -> Alcotest.fail e);
  match Formula.check u ~env (parse_ok "K p1 sent") with
  | Ok (`Fails_at z) ->
      check tbool "witness is a computation where p1 ignorant" false
        (Prop.eval (Knowledge.knows_p u p1 sent) z)
  | Ok `Valid -> Alcotest.fail "should not be valid"
  | Error e -> Alcotest.fail e

let test_token_bus_formula () =
  (* the §4.1 assertion in concrete syntax, checked as an AG invariant *)
  let ub = Universe.enumerate ~mode:`Canonical (Hpl_protocols.Token_bus.spec ~n:5) ~depth:8 in
  let envb = function
    | "holds0" -> Some (Hpl_protocols.Token_bus.holds (Pid.of_int 0))
    | "holds2" -> Some (Hpl_protocols.Token_bus.holds (Pid.of_int 2))
    | "holds4" -> Some (Hpl_protocols.Token_bus.holds (Pid.of_int 4))
    | _ -> None
  in
  let f = parse_ok "AG (holds2 -> K p2 (K p1 (~holds0) & K p3 (~holds4)))" in
  match Formula.check ub ~env:envb f with
  | Ok `Valid -> ()
  | Ok (`Fails_at z) -> Alcotest.failf "fails at %s" (Trace.to_string z)
  | Error e -> Alcotest.fail e

(* -- the extent evaluator against the definitions read literally ----------

   Booleans pointwise; K/sure/E/S through the all-pairs
   [Knowledge.knows_ext_naive]; CK as the greatest fixpoint of
   b ∧ ⋀p K_p; EX/AX over the successor relation read off [Spec.enabled];
   EF/AF as least fixpoints iterated to stability, EG/AG as their
   duals. *)

let reference u ~env =
  let pointwise f = Bitset.of_pred (Universe.size u) f in
  let all = pointwise (fun _ -> true) and none = pointwise (fun _ -> false) in
  let and_ a b = pointwise (fun i -> Bitset.mem a i && Bitset.mem b i) in
  let or_ a b = pointwise (fun i -> Bitset.mem a i || Bitset.mem b i) in
  let not_ a = pointwise (fun i -> not (Bitset.mem a i)) in
  let knows ks s =
    Knowledge.knows_ext_naive u (Pset.of_list (List.map Pid.of_int ks)) s
  in
  let everyone ks s =
    List.fold_left (fun acc k -> and_ acc (knows [ k ] s)) all ks
  in
  let someone ks s =
    List.fold_left (fun acc k -> or_ acc (knows [ k ] s)) none ks
  in
  let pids = List.init (Spec.n (Universe.spec u)) Fun.id in
  let succ = Temporal_tests.definitional_successors u in
  let ex s = pointwise (fun i -> Array.exists (Bitset.mem s) succ.(i)) in
  let ax s = pointwise (fun i -> Array.for_all (Bitset.mem s) succ.(i)) in
  let has_succ = pointwise (fun i -> succ.(i) <> [||]) in
  let rec fix f s =
    let s' = f s in
    if Bitset.equal s s' then s else fix f s'
  in
  let ef s = fix (fun r -> or_ s (ex r)) none in
  let af s = fix (fun r -> or_ s (and_ has_succ (ax r))) none in
  let rec go = function
    | Formula.True -> all
    | False -> none
    | Atom a ->
        let b = Option.get (env a) in
        pointwise (fun i -> Prop.eval b (Universe.comp u i))
    | Not f -> not_ (go f)
    | And (a, b) -> and_ (go a) (go b)
    | Or (a, b) -> or_ (go a) (go b)
    | Implies (a, b) -> or_ (not_ (go a)) (go b)
    | Know (ks, f) -> knows ks (go f)
    | Sure (ks, f) ->
        let s = go f in
        or_ (knows ks s) (knows ks (not_ s))
    | Everyone (ks, f) -> everyone ks (go f)
    | Someone (ks, f) -> someone ks (go f)
    | Common f ->
        let s = go f in
        fix (fun r -> and_ s (everyone pids r)) all
    | Ex f -> ex (go f)
    | Ax f -> ax (go f)
    | Ef f -> ef (go f)
    | Af f -> af (go f)
    | Eg f -> not_ (af (not_ (go f)))
    | Ag f -> not_ (ef (not_ (go f)))
  in
  go

(* every constructor; pids in range *)
let gen_any_formula ~atoms ~n =
  let open QCheck.Gen in
  let pset =
    map (List.sort_uniq Int.compare)
      (list_size (int_range 1 n) (int_bound (n - 1)))
  in
  let leaf =
    oneof
      [
        return Formula.True;
        return Formula.False;
        map (fun a -> Formula.Atom a) (oneofl atoms);
      ]
  in
  let rec formula depth =
    if depth = 0 then leaf
    else
      let sub = formula (depth - 1) in
      let unary k = map k sub and epistemic k = map2 k pset sub in
      oneof
        [
          leaf;
          unary (fun f -> Formula.Not f);
          map2 (fun a b -> Formula.And (a, b)) sub sub;
          map2 (fun a b -> Formula.Or (a, b)) sub sub;
          map2 (fun a b -> Formula.Implies (a, b)) sub sub;
          epistemic (fun p f -> Formula.Know (p, f));
          epistemic (fun p f -> Formula.Sure (p, f));
          epistemic (fun p f -> Formula.Everyone (p, f));
          epistemic (fun p f -> Formula.Someone (p, f));
          unary (fun f -> Formula.Common f);
          unary (fun f -> Formula.Ag f);
          unary (fun f -> Formula.Ef f);
          unary (fun f -> Formula.Af f);
          unary (fun f -> Formula.Eg f);
          unary (fun f -> Formula.Ax f);
          unary (fun f -> Formula.Ex f);
        ]
  in
  formula 3

let registry_universe ?budget name ~depth =
  Hpl_protocols.Builtins.init ();
  let inst = Result.get_ok (Hpl_protocols.Protocol.Registry.parse name) in
  let u =
    Universe.enumerate ~mode:`Canonical ?budget
      (Hpl_protocols.Protocol.spec_of inst) ~depth
  in
  ( u,
    Hpl_protocols.Protocol.atom_env inst,
    List.map fst (Hpl_protocols.Protocol.atoms_of inst) )

let qcheck_eval_reference (what, count, case) =
  let case = Lazy.from_fun case in
  let gen st =
    let u, _, atoms = Lazy.force case in
    gen_any_formula ~atoms ~n:(Spec.n (Universe.spec u)) st
  in
  QCheck.Test.make ~name:("reference eval: " ^ what) ~count
    (QCheck.make ~print:Formula.print gen)
    (fun f ->
      let u, env, _ = Lazy.force case in
      let expected = reference u ~env f in
      let least_false =
        let rec first i =
          if i >= Universe.size u then None
          else if Bitset.mem expected i then first (i + 1)
          else Some i
        in
        first 0
      in
      (match Formula.eval u ~env f with
      | Ok ext -> Bitset.equal ext expected
      | Error e -> QCheck.Test.fail_reportf "eval: %s" e)
      &&
      match (Formula.check u ~env f, least_false) with
      | Ok `Valid, None -> true
      | Ok (`Fails_at z), Some i -> Trace.equal z (Universe.comp u i)
      | Ok _, _ -> false
      | Error e, _ -> QCheck.Test.fail_reportf "check: %s" e)

let reference_cases =
  [
    ("ping-pong full", 200, fun () -> (u, env, [ "sent"; "received" ]));
    ("chatter:3", 60, fun () -> registry_universe "chatter:3" ~depth:4);
    ( "ring cut at 40",
      200,
      fun () ->
        registry_universe "ring" ~depth:6
          ~budget:(Universe.budget ~max_states:40 ()) );
  ]

let test_atoms () =
  check Alcotest.(list string) "atoms in order" [ "sent"; "received" ]
    (Formula.atoms (parse_ok "K p1 sent & (received | sent)"))

let suite =
  [
    ("parse basics", `Quick, test_parse_basics);
    ("parse errors", `Quick, test_parse_errors);
    ("precedence", `Quick, test_precedence);
    ("roundtrip fixed", `Quick, test_roundtrip_fixed);
    ("roundtrip deep", `Quick, test_roundtrip_deep);
    QCheck_alcotest.to_alcotest ~verbose:false qcheck_roundtrip;
    ("eval matches API", `Quick, test_eval_matches_api);
    ("eval temporal", `Quick, test_eval_temporal);
    ("eval errors", `Quick, test_eval_errors);
    ("check valid/witness", `Quick, test_check_valid_and_witness);
    ("token bus formula", `Quick, test_token_bus_formula);
    ("atoms", `Quick, test_atoms);
  ]
  @ List.map
      (fun c ->
        QCheck_alcotest.to_alcotest ~verbose:false (qcheck_eval_reference c))
      reference_cases
