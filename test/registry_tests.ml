(* Registry-driven generic coverage: every registered protocol is
   enumerated at a small depth and subjected to the same battery —
   spec validity, atom-environment resolution inside formulas,
   canonical-trace membership, and a knowledge-fact sample. Per-module
   suites test what is special about each protocol; this suite tests
   what must hold for all of them, which is also what keeps the CLI's
   generic dispatch honest. *)
open Hpl_core
open Hpl_protocols

let () = Builtins.init ()
let check = Alcotest.check
let tbool = Alcotest.bool

let test_depth t = min (Protocol.suggested_depth t) 5

let universe_of t =
  let inst = Protocol.default_instance t in
  (inst, Universe.enumerate ~mode:`Canonical (Protocol.spec_of inst)
           ~depth:(test_depth t))

(* one shared enumeration per protocol — the battery below reuses it *)
let universes =
  lazy (List.map (fun t -> (t, universe_of t)) (Protocol.Registry.list ()))

let test_registry_size () =
  check tbool "at least 25 protocols registered" true
    (List.length (Protocol.Registry.list ()) >= 25)

let test_names_roundtrip () =
  List.iter
    (fun t ->
      let name = Protocol.name t in
      (match Protocol.Registry.parse name with
      | Ok inst ->
          check Alcotest.string
            (name ^ " instance_name round-trips")
            (Protocol.instance_name inst)
            (match Protocol.Registry.parse (Protocol.instance_name inst) with
            | Ok i -> Protocol.instance_name i
            | Error e -> e)
      | Error e -> Alcotest.failf "%s does not parse: %s" name e);
      check tbool (name ^ " findable") true
        (Protocol.Registry.find name <> None))
    (Protocol.Registry.list ())

let test_param_validation () =
  let fails s =
    match Protocol.Registry.parse s with Ok _ -> false | Error _ -> true
  in
  check tbool "unknown name rejected" true (fails "no-such-protocol");
  check tbool "below lower bound rejected" true (fails "token-bus:1");
  check tbool "excess parameters rejected" true (fails "token-bus:5:9");
  check tbool "non-integer rejected" true (fails "gossip:abc");
  check tbool "valid override accepted" true (not (fails "token-bus:3"))

let test_specs_enumerate_validly () =
  List.iter
    (fun (t, (_, u)) ->
      let name = Protocol.name t in
      check tbool (name ^ " does something") true (Universe.size u >= 2);
      let spec = Universe.spec u in
      let checked = ref 0 in
      Universe.iter
        (fun _ z ->
          if !checked < 25 then begin
            incr checked;
            match Spec.validity_error spec z with
            | None -> ()
            | Some e -> Alcotest.failf "%s: invalid computation: %s" name e
          end)
        u)
    (Lazy.force universes)

let test_first_walk_membership () =
  List.iter
    (fun (t, (inst, u)) ->
      let name = Protocol.name t in
      let spec = Protocol.spec_of inst in
      let z = Protocol.first_walk spec ~depth:(test_depth t) in
      check tbool (name ^ " first walk valid") true (Spec.valid spec z);
      check tbool
        (name ^ " first walk found in universe")
        true
        (Universe.find u z <> None))
    (Lazy.force universes)

let test_canonical_traces () =
  List.iter
    (fun (t, (inst, u)) ->
      match Protocol.canonical_trace_of inst with
      | None -> ()
      | Some z ->
          let name = Protocol.name t in
          check tbool (name ^ " canonical trace valid") true
            (Spec.valid (Protocol.spec_of inst) z);
          if Trace.length z <= test_depth t then
            check tbool
              (name ^ " canonical trace in universe")
              true
              (Universe.find u z <> None))
    (Lazy.force universes)

(* every advertised atom must parse as a formula atom and evaluate
   without [Error] over the protocol's small universe — this is what
   `hpl check -s <name>` relies on *)
let test_atoms_resolve_in_formulas () =
  List.iter
    (fun (t, (inst, u)) ->
      let name = Protocol.name t in
      let env = Protocol.atom_env inst in
      List.iter
        (fun (atom, prop) ->
          (match Formula.parse atom with
          | Ok (Formula.Atom a) ->
              check Alcotest.string (name ^ " atom lexes as itself") atom a
          | Ok f ->
              Alcotest.failf "%s: atom %s parses as non-atom %s" name atom
                (Formula.print f)
          | Error e -> Alcotest.failf "%s: atom %s: %s" name atom e);
          (match Formula.parse (Printf.sprintf "EF %s" atom) with
          | Error e -> Alcotest.failf "%s: EF %s: %s" name atom e
          | Ok f -> (
              match Formula.check u ~env f with
              | Error e ->
                  Alcotest.failf "%s: checking EF %s: %s" name atom e
              | Ok _ -> ()));
          (* the environment resolves the atom to its registered prop *)
          (match env atom with
          | None -> Alcotest.failf "%s: atom %s unresolved" name atom
          | Some p ->
              Universe.iter
                (fun _ z ->
                  check tbool
                    (name ^ "." ^ atom ^ " agrees with env")
                    (Prop.eval prop z) (Prop.eval p z))
                u))
        (Protocol.atoms_of inst))
    (Lazy.force universes)

(* a knowledge sample per protocol: K_p(atom) is computable and
   satisfies the knowledge axiom (K_p b -> b), paper fact 1 *)
let test_knowledge_facts_sample () =
  List.iter
    (fun (t, (inst, u)) ->
      match Protocol.atoms_of inst with
      | [] -> ()
      | (atom, fact) :: _ ->
          let name = Protocol.name t in
          let n = Spec.n (Universe.spec u) in
          for i = 0 to min (n - 1) 2 do
            let p = Pid.of_int i in
            let k =
              Knowledge.knows_ext u (Pset.singleton p) (Prop.extent u fact)
            in
            Universe.iter
              (fun j z ->
                if Bitset.mem k j then
                  check tbool
                    (Printf.sprintf "%s: K p%d %s -> %s" name i atom atom)
                    true (Prop.eval fact z))
              u
          done)
    (Lazy.force universes)

let suite =
  [
    Alcotest.test_case "registry has >= 25 protocols" `Quick test_registry_size;
    Alcotest.test_case "names parse and round-trip" `Quick test_names_roundtrip;
    Alcotest.test_case "parameter validation" `Quick test_param_validation;
    Alcotest.test_case "every spec enumerates validly" `Quick
      test_specs_enumerate_validly;
    Alcotest.test_case "first-walk traces are members" `Quick
      test_first_walk_membership;
    Alcotest.test_case "canonical traces are valid members" `Quick
      test_canonical_traces;
    Alcotest.test_case "atoms resolve inside formulas" `Quick
      test_atoms_resolve_in_formulas;
    Alcotest.test_case "knowledge sample satisfies axiom T" `Quick
      test_knowledge_facts_sample;
  ]
