(* Cross-validation of the reduction layer (DESIGN.md §10).

   The reductions are only worth having if they are exact, so every
   claim the layer makes is checked here against the baseline
   definitions, registry-wide:

   - por produces a universe bit-identical to the unreduced canonical
     enumeration (same computations, same order, same class ids);
   - sym/full store one representative per orbit: every unreduced
     class resolves to exactly one representative ([Universe.find]),
     two classes share a representative iff their orbit keys agree,
     and atom extents at the representatives equal the unreduced ones;
   - knowledge, CK and temporal operators refuse a symmetry-reduced
     universe instead of quantifying over its representatives;
   - declared generators really are spec automorphisms (and known
     non-automorphisms are rejected), and the lint rules guarding
     both directions fire. *)
open Hpl_core
open Hpl_protocols

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* small enough that unreduced enumeration of every registry protocol
   stays cheap, deep enough that orbits are non-trivial *)
let cross_depth inst = min 4 (Protocol.depth_of inst)

let registry () = Protocol.Registry.list ()

(* the spec of a registry instance such as ["quorum:3:1"] *)
let registry_spec s =
  match Protocol.Registry.parse s with
  | Ok inst -> Protocol.spec_of inst
  | Error e -> Alcotest.failf "%s: %s" s e

let enum ?reduce inst ~depth =
  Universe.enumerate ?reduce (Protocol.spec_of inst) ~depth

let symmetric_instances () =
  List.filter_map
    (fun proto ->
      let inst = Protocol.default_instance proto in
      match Protocol.symmetry_of inst with
      | Some g when not (Symmetry.is_trivial g) -> Some (inst, g)
      | _ -> None)
    (registry ())

(* -- por: bit-identical universe ----------------------------------------- *)

let test_por_bit_identity () =
  List.iter
    (fun proto ->
      let inst = Protocol.default_instance proto in
      let name = Protocol.instance_name inst in
      let depth = cross_depth inst in
      let u0 = enum inst ~depth in
      let u1 = enum ~reduce:Reduction.por inst ~depth in
      checki (name ^ ": por size") (Universe.size u0) (Universe.size u1);
      Universe.iter
        (fun i z ->
          checkb
            (Printf.sprintf "%s: por comp %d" name i)
            true
            (Trace.equal z (Universe.comp u1 i)))
        u0;
      let n = Spec.n (Protocol.spec_of inst) in
      for p = 0 to n - 1 do
        check
          Alcotest.(array int)
          (Printf.sprintf "%s: por class ids p%d" name p)
          (Universe.class_ids u0 (Pid.of_int p))
          (Universe.class_ids u1 (Pid.of_int p))
      done)
    (registry ())

(* -- sym: orbit coverage and consistency ---------------------------------- *)

let test_sym_orbit_coverage () =
  List.iter
    (fun (inst, g) ->
      let name = Protocol.instance_name inst in
      let depth = cross_depth inst in
      let u0 = enum inst ~depth in
      let u1 = enum ~reduce:(Reduction.full g) inst ~depth in
      checkb
        (name ^ ": reduced no larger")
        true
        (Universe.size u1 <= Universe.size u0);
      (* every unreduced class resolves to a representative, reps to
         themselves, and the representative map is exactly orbit-key
         equality *)
      let hit = Array.make (Universe.size u1) false in
      let rep = Array.make (Universe.size u0) (-1) in
      Universe.iter
        (fun i z ->
          match Universe.find u1 z with
          | None -> Alcotest.failf "%s: class %d has no representative" name i
          | Some j ->
              hit.(j) <- true;
              rep.(i) <- j)
        u0;
      checkb (name ^ ": all representatives hit") true (Array.for_all Fun.id hit);
      Universe.iter
        (fun j z ->
          check
            Alcotest.(option int)
            (Printf.sprintf "%s: rep %d resolves to itself" name j)
            (Some j) (Universe.find u1 z))
        u1;
      (* a representative is itself a computation: an atom's extent at
         it is the atom's value at its own unreduced class *)
      List.iter
        (fun (aname, b) ->
          let ext0 = Prop.extent u0 b and ext1 = Prop.extent u1 b in
          Universe.iter
            (fun j z ->
              match Universe.find u0 z with
              | None -> Alcotest.failf "%s: rep %d not in full universe" name j
              | Some i ->
                  checkb
                    (Printf.sprintf "%s: extent %s at rep %d" name aname j)
                    (Bitset.mem ext0 i) (Bitset.mem ext1 j))
            u1)
        (Protocol.atoms_of inst);
      let keys = Array.init (Universe.size u0) (fun i ->
          Symmetry.orbit_key g (Universe.comp u0 i))
      in
      Universe.iter
        (fun i _ ->
          Universe.iter
            (fun i' _ ->
              if i < i' then
                checkb
                  (Printf.sprintf "%s: orbit key iff same rep (%d,%d)" name i i')
                  (Symmetry.equal_key keys.(i) keys.(i'))
                  (rep.(i) = rep.(i')))
            u0)
        u0)
    (symmetric_instances ())

(* -- sym: knowledge and temporal operators refuse the quotient ---------- *)

(* over orbit representatives a nested K, or a CTL path through one,
   would quantify over the representatives instead of every computation
   (DESIGN.md §10), so each operator raises rather than answer *)
let test_sym_operators_refuse () =
  let inst =
    Protocol.default_instance (Option.get (Protocol.Registry.find "ring"))
  in
  let g = Option.get (Protocol.symmetry_of inst) in
  let u = enum ~reduce:(Reduction.full g) inst ~depth:4 in
  let b = snd (List.hd (Protocol.atoms_of inst)) in
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "%s answered on a symmetry-reduced universe" what
    | exception Invalid_argument _ -> ()
  in
  let p1 = Pset.singleton (Pid.of_int 1) in
  let ext = Prop.extent u b in
  refuses "Knowledge.knows_ext" (fun () -> ignore (Knowledge.knows_ext u p1 ext));
  refuses "Knowledge.sure_ext" (fun () -> ignore (Knowledge.sure_ext u p1 ext));
  refuses "Group.everyone_ext" (fun () -> ignore (Group.everyone_ext u p1 ext));
  refuses "Common_knowledge.common_ext" (fun () ->
      ignore (Common_knowledge.common_ext u ext));
  refuses "Temporal.ef" (fun () -> ignore (Temporal.ef u ext));
  (* counting over the representatives stays allowed *)
  checki "extent over representatives" (Universe.size u)
    (Bitset.cardinal (Prop.extent u Prop.tt))

(* -- declared generators are automorphisms -------------------------------- *)

let test_declared_generators_are_automorphisms () =
  List.iter
    (fun (inst, _) ->
      let name = Protocol.instance_name inst in
      let spec = Protocol.spec_of inst in
      List.iter
        (fun pi ->
          checkb
            (Printf.sprintf "%s: generator %s" name (Symmetry.to_string pi))
            true
            (Symmetry.is_automorphism spec pi))
        (Protocol.generators_of inst))
    (symmetric_instances ())

let test_non_automorphisms_rejected () =
  (* the quorum collector is distinguished: swapping it with a member
     is not an automorphism *)
  checkb "quorum: collector swap rejected" false
    (Symmetry.is_automorphism (registry_spec "quorum:3:1")
       (Symmetry.transposition 3 0 1));
  (* the star hub likewise cannot be rotated into a member *)
  checkb "star-flood: rotation rejected" false
    (Symmetry.is_automorphism (registry_spec "star-flood:4")
       (Symmetry.rotation 4));
  (* Protocol.star_spec contacts members in pid order — even the
     member swap fails, which is why star-flood exists *)
  checkb "ordered star: member swap rejected" false
    (Symmetry.is_automorphism
       (Protocol.star_spec ~n:4 ~request:"req" ~reply:"rep" ~finish:"fin" ())
       (Symmetry.transposition 4 1 2))

(* -- lint rules ------------------------------------------------------------ *)

let find_rule report rule =
  List.filter (fun f -> f.Hpl_analysis.Lint.rule = rule)
    report.Hpl_analysis.Lint.findings

let test_lint_undeclared_symmetry () =
  let proto =
    Protocol.make ~name:"lint-probe-undeclared"
      ~doc:"ring spec without a symmetry declaration"
      ~params:[ Protocol.param ~lo:2 "n" 3 "ring size" ]
      (fun vs ->
        registry_spec (Printf.sprintf "ring:%d:1" (Protocol.get vs "n")))
  in
  let report =
    Hpl_analysis.Lint.lint_instance (Protocol.default_instance proto)
  in
  match find_rule report "undeclared-symmetry" with
  | [ f ] -> checkb "warning" true (f.Hpl_analysis.Lint.severity = Warning)
  | fs -> Alcotest.failf "expected one undeclared-symmetry finding, got %d"
            (List.length fs)

let test_lint_invalid_symmetry () =
  let proto =
    Protocol.make ~name:"lint-probe-invalid"
      ~doc:"quorum spec with a bogus generator"
      ~params:[ Protocol.param ~lo:3 "n" 3 "processes" ]
      ~symmetry:(fun vs -> [ Symmetry.transposition (Protocol.get vs "n") 0 1 ])
      (fun vs ->
        registry_spec (Printf.sprintf "quorum:%d:1" (Protocol.get vs "n")))
  in
  let report =
    Hpl_analysis.Lint.lint_instance (Protocol.default_instance proto)
  in
  match find_rule report "invalid-symmetry" with
  | [ f ] -> checkb "error" true (f.Hpl_analysis.Lint.severity = Error)
  | fs -> Alcotest.failf "expected one invalid-symmetry finding, got %d"
            (List.length fs)

let test_lint_registry_declares () =
  (* every registry protocol either declares valid generators or has no
     obvious symmetry: the registry lints clean of both rules *)
  List.iter
    (fun proto ->
      let inst = Protocol.default_instance proto in
      let report = Hpl_analysis.Lint.lint_instance ~depth:3 inst in
      List.iter
        (fun rule ->
          checki
            (Printf.sprintf "%s: no %s" (Protocol.instance_name inst) rule)
            0
            (List.length (find_rule report rule)))
        [ "undeclared-symmetry"; "invalid-symmetry" ])
    (registry ())

(* -- depth-wall spot check ------------------------------------------------- *)

let test_reduction_reduces () =
  let counts inst g depth =
    let u0 = enum inst ~depth in
    let u1 = enum ~reduce:(Reduction.full g) inst ~depth in
    (Universe.size u0, Universe.size u1)
  in
  List.iter
    (fun (pname, depth, min_factor) ->
      match Protocol.Registry.find pname with
      | None -> Alcotest.failf "%s not registered" pname
      | Some proto ->
          let inst = Protocol.default_instance proto in
          let g = Option.get (Protocol.symmetry_of inst) in
          let full, reduced = counts inst g depth in
          checkb
            (Printf.sprintf "%s: %d -> %d states at depth %d (>= %dx)" pname
               full reduced depth min_factor)
            true
            (reduced * min_factor <= full))
    [ ("ring", 6, 4); ("star-flood", 6, 10); ("mesh", 4, 10) ]

let suite =
  [
    Alcotest.test_case "por is bit-identical, registry-wide" `Quick
      test_por_bit_identity;
    Alcotest.test_case "sym orbit coverage and key consistency" `Quick
      test_sym_orbit_coverage;
    Alcotest.test_case "knowledge/CK/temporal refuse a sym universe" `Quick
      test_sym_operators_refuse;
    Alcotest.test_case "declared generators are automorphisms" `Quick
      test_declared_generators_are_automorphisms;
    Alcotest.test_case "non-automorphisms are rejected" `Quick
      test_non_automorphisms_rejected;
    Alcotest.test_case "lint: undeclared-symmetry fires" `Quick
      test_lint_undeclared_symmetry;
    Alcotest.test_case "lint: invalid-symmetry fires" `Quick
      test_lint_invalid_symmetry;
    Alcotest.test_case "lint: registry symmetry-clean" `Quick
      test_lint_registry_declares;
    Alcotest.test_case "reduction shrinks ring/star/mesh universes" `Quick
      test_reduction_reduces;
  ]
