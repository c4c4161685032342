(* Tests for universe enumeration and the canonical quotient. *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_one_msg_counts () =
  (* computations: ε, [send], [send;recv] — a single chain, so full and
     canonical agree *)
  let ufull = Universe.enumerate ~mode:`Full Fixtures.one_msg ~depth:5 in
  let ucan = Universe.enumerate ~mode:`Canonical Fixtures.one_msg ~depth:5 in
  check tint "full size" 3 (Universe.size ufull);
  check tint "canonical size" 3 (Universe.size ucan)

let test_indep_counts () =
  (* ε, a, b, ab, ba: full 5; canonical merges ab/ba: 4 *)
  let ufull = Universe.enumerate ~mode:`Full Fixtures.indep ~depth:5 in
  let ucan = Universe.enumerate ~mode:`Canonical Fixtures.indep ~depth:5 in
  check tint "full" 5 (Universe.size ufull);
  check tint "canonical" 4 (Universe.size ucan)

let test_depth_truncation () =
  let u = Universe.enumerate ~mode:`Full Fixtures.one_msg ~depth:1 in
  check tint "depth 1" 2 (Universe.size u);
  let u0 = Universe.enumerate ~mode:`Full Fixtures.one_msg ~depth:0 in
  check tint "depth 0" 1 (Universe.size u0)

let test_ticks_counts () =
  (* 2 processes, 2 ticks each. Full: interleavings of two sequences of
     length ≤2 each: Σ_{i≤2,j≤2} C(i+j,i) = 1+1+1 +1+2+3 +1+3+6 = 19.
     Canonical: one per (i,j) pair: 9. *)
  let ufull = Universe.enumerate ~mode:`Full (Fixtures.ticks ~n:2 ~k:2) ~depth:10 in
  let ucan =
    Universe.enumerate ~mode:`Canonical (Fixtures.ticks ~n:2 ~k:2) ~depth:10
  in
  check tint "full 19" 19 (Universe.size ufull);
  check tint "canonical 9" 9 (Universe.size ucan)

let test_all_enumerated_valid () =
  List.iter
    (fun mode ->
      let u = Universe.enumerate ~mode Fixtures.ping_pong ~depth:4 in
      Universe.iter
        (fun _ z ->
          check tbool "valid" true (Spec.valid Fixtures.ping_pong z))
        u)
    [ `Full; `Canonical ]

let test_canonical_is_canonical () =
  let u = Universe.enumerate ~mode:`Canonical (Fixtures.chatter ~n:3 ~k:2) ~depth:4 in
  Universe.iter
    (fun _ z -> check tbool "fixpoint of canon" true (Trace.equal z (Universe.canon u z)))
    u

let test_canon_is_class_invariant () =
  (* all interleavings of a class canonicalize to the same representative *)
  let u = Universe.enumerate ~mode:`Full Fixtures.indep ~depth:5 in
  let ab = ref None in
  Universe.iter
    (fun _ z ->
      if Trace.length z = 2 then begin
        let c = Universe.canon u z in
        match !ab with
        | None -> ab := Some c
        | Some c' -> check tbool "same canon" true (Trace.equal c c')
      end)
    u;
  check tbool "saw classes" true (!ab <> None)

let test_full_covers_canonical_classes () =
  (* every full-universe computation's canonical form is in the
     canonical universe, and the canonical one is [D]-equivalent *)
  let spec = Fixtures.chatter ~n:2 ~k:2 in
  let ufull = Universe.enumerate ~mode:`Full spec ~depth:4 in
  let ucan = Universe.enumerate ~mode:`Canonical spec ~depth:4 in
  Universe.iter
    (fun _ z ->
      match Universe.find ucan z with
      | None -> Alcotest.fail "class missing from canonical universe"
      | Some i ->
          check tbool "[D]-equivalent" true
            (Trace.permutation_of z (Universe.comp ucan i)))
    ufull

let test_find_and_index () =
  let u = Universe.enumerate ~mode:`Canonical Fixtures.indep ~depth:5 in
  let a = Event.internal ~pid:Fixtures.p0 ~lseq:0 "a" in
  let b = Event.internal ~pid:Fixtures.p1 ~lseq:0 "b" in
  let ba = Trace.of_list [ b; a ] in
  (* ba is non-canonical, so exact index fails but find succeeds *)
  check tbool "index misses interleaving" true (Universe.index u ba = None);
  check tbool "find canonicalizes" true (Universe.find u ba <> None);
  check tbool "find_exn raises outside" true
    (try
       ignore (Universe.find_exn u (Trace.of_list [ Event.internal ~pid:Fixtures.p0 ~lseq:0 "zz" ]));
       false
     with Not_found -> true)

let test_class_ids_match_projection () =
  let u = Universe.enumerate ~mode:`Full (Fixtures.chatter ~n:2 ~k:2) ~depth:3 in
  let ids = Universe.class_ids u Fixtures.p0 in
  Universe.iter
    (fun i x ->
      Universe.iter
        (fun j y ->
          let same_class = ids.(i) = ids.(j) in
          let same_proj =
            List.equal Event.equal (Trace.proj x Fixtures.p0) (Trace.proj y Fixtures.p0)
          in
          check tbool "class iff proj" true (same_class = same_proj))
        u)
    u

let test_pset_class_ids () =
  let u = Universe.enumerate ~mode:`Full (Fixtures.ticks ~n:2 ~k:1) ~depth:4 in
  let d = Pset.all 2 in
  let ids_d = Universe.pset_class_ids u d in
  Universe.iter
    (fun i x ->
      Universe.iter
        (fun j y ->
          check tbool "[D] iff permutation" true
            ((ids_d.(i) = ids_d.(j)) = Trace.permutation_of x y))
        u)
    u;
  (* empty set: everything equivalent *)
  let ids_e = Universe.pset_class_ids u Pset.empty in
  Array.iter (fun id -> check tint "one class" 0 id) ids_e;
  (* a one-process set reads the enumeration's own class ids: they must
     still be projection equality, numbered densely (no empty class) *)
  let singletons what u =
    List.iter
      (fun p ->
        let ps = Pset.singleton p in
        let ids = Universe.pset_class_ids u ps in
        let agree = ref true in
        Universe.iter
          (fun i x ->
            Universe.iter
              (fun j y ->
                if ids.(i) = ids.(j) <> Isomorphism.iso_p x y p then
                  agree := false)
              u)
          u;
        check tbool (what ^ ": [p] iff same projection") true !agree;
        check tbool (what ^ ": no empty class") true
          (Array.for_all
             (fun cls -> not (Bitset.is_empty cls))
             (Universe.classes u ps)))
      (Spec.pids (Universe.spec u))
  in
  let spec = Fixtures.chatter ~n:3 ~k:2 in
  let uc = Universe.enumerate ~mode:`Canonical spec ~depth:4 in
  let ut =
    Universe.enumerate ~mode:`Canonical
      ~budget:(Universe.budget ~max_states:40 ())
      spec ~depth:4
  in
  let roundtrip u =
    Universe.serialize u |> Result.get_ok |> Universe.deserialize spec
    |> Result.get_ok
  in
  singletons "canonical" uc;
  singletons "truncated" ut;
  singletons "round-tripped" (roundtrip uc);
  singletons "truncated, round-tripped" (roundtrip ut)

let test_class_members () =
  let u = Universe.enumerate ~mode:`Full Fixtures.indep ~depth:5 in
  Universe.iter
    (fun i _ ->
      let members = Universe.class_members u (Pset.singleton Fixtures.p0) i in
      check tbool "contains self" true (Bitset.mem members i))
    u

let test_prefixes_of () =
  let u = Universe.enumerate ~mode:`Full Fixtures.one_msg ~depth:5 in
  (* the 2-event computation has 3 prefixes: ε, send, itself *)
  let long = ref None in
  Universe.iter (fun i z -> if Trace.length z = 2 then long := Some i) u;
  match !long with
  | None -> Alcotest.fail "expected 2-event computation"
  | Some i -> check tint "prefixes" 3 (List.length (Universe.prefixes_of u i))

(* [prefixes_of] by its definition: rebuild every prefix of the stored
   trace and [find] it. The parent chain must give the same indices in
   every mode the universe is stored in. *)
let reference_prefixes u i =
  let rec go prefix events acc =
    let acc = match Universe.find u prefix with Some j -> j :: acc | None -> acc in
    match events with
    | [] -> List.rev acc
    | e :: rest -> go (Trace.snoc prefix e) rest acc
  in
  go Trace.empty (Trace.to_list (Universe.comp u i)) []

let test_prefixes_of_reference () =
  Hpl_protocols.Builtins.init ();
  let open Hpl_serve in
  let get = function Ok v -> v | Error e -> Alcotest.fail e in
  let universe ?depth ?faults ?max_states ?(mode = `Canonical) proto =
    let st = get (Query.resolve ~proto ?depth ?faults ?max_states ()) in
    Query.enumerate ~mode st ~reduce:None
  in
  List.iter
    (fun (what, u) ->
      Universe.iter
        (fun i _ ->
          check
            Alcotest.(list int)
            (Printf.sprintf "%s: prefixes of %d" what i)
            (reference_prefixes u i) (Universe.prefixes_of u i))
        u)
    [
      ("full", universe ~mode:`Full ~depth:"5" "chatter:3");
      ("canonical", universe ~depth:"6" "ring");
      ("truncated", universe ~depth:"6" ~max_states:"40" "ring");
      ("faulted", universe ~faults:"crash-any:1" "token-ring:4");
    ]

(* The universe is its run tree: a fixed number of words per
   computation, whatever the process count. A vector of class ids per
   computation made ring:400 cost four times ring:100 per computation. *)
let test_words_per_computation () =
  Hpl_protocols.Builtins.init ();
  let words n =
    let st =
      Result.get_ok
        (Hpl_serve.Query.resolve ~proto:(Printf.sprintf "ring:%d" n) ~depth:"2" ())
    in
    let u = Hpl_serve.Query.enumerate st ~reduce:None in
    float_of_int (Obj.reachable_words (Obj.repr u))
    /. float_of_int (Universe.size u)
  in
  let w100 = words 100 and w400 = words 400 in
  check tbool
    (Printf.sprintf "words per computation: ring:100 %.1f, ring:400 %.1f" w100
       w400)
    true
    (Float.abs (w400 -. w100) < 0.25 *. w100)

(* The trace column is derived: a fresh universe, enumerated or loaded
   from a snapshot, keeps its run tree and one event per trie class, and
   builds a trace per computation only when a trace is first read. The
   spec's own words are not the universe's. *)
let test_no_trace_until_read () =
  Hpl_protocols.Builtins.init ();
  let words u =
    float_of_int
      (Obj.reachable_words (Obj.repr u)
      - Obj.reachable_words (Obj.repr (Universe.spec u)))
    /. float_of_int (Universe.size u)
  in
  List.iter
    (fun (proto, depth) ->
      let st = Result.get_ok (Hpl_serve.Query.resolve ~proto ~depth ()) in
      let u = Hpl_serve.Query.enumerate st ~reduce:None in
      let loaded =
        Universe.serialize u |> Result.get_ok
        |> Universe.deserialize (Universe.spec u)
        |> Result.get_ok
      in
      List.iter
        (fun (how, u) ->
          let what = Printf.sprintf "%s -d %s, %s" proto depth how in
          let before = words u in
          check tbool
            (Printf.sprintf "%s: %.1f words per computation <= 6" what before)
            true (before <= 6.0);
          ignore (Universe.comp u 0);
          let after = words u in
          check tbool
            (Printf.sprintf "%s: the trace column adds %.1f >= 7" what
               (after -. before))
            true
            (after -. before >= 7.0))
        [ ("enumerated", u); ("deserialized", loaded) ])
    [ ("ring:6", "9"); ("mesh:5", "6"); ("star-flood", "8") ]

let test_prefix_closed_universe () =
  (* the stored set is prefix-closed in both modes (canonical prefixes
     of canonical words are canonical) *)
  List.iter
    (fun mode ->
      let u = Universe.enumerate ~mode (Fixtures.chatter ~n:3 ~k:2) ~depth:4 in
      Universe.iter
        (fun _ z ->
          if not (Trace.is_empty z) then begin
            let es = Trace.to_list z in
            let prefix = Trace.of_list (List.filteri (fun i _ -> i < List.length es - 1) es) in
            check tbool "immediate prefix stored" true (Universe.index u prefix <> None)
          end)
        u)
    [ `Full; `Canonical ]

(* -- the BFS against a literal reading of it ---------------------------

   A naive reference enumeration. Its children come from the enabled
   set as defined, not as staged: every process's intents on its
   projection, each read by [Spec.intent_events] against the trace's
   in-flight messages, sorted and deduplicated; [Spec.enabled] must
   equal that set. [z;e] is kept in [`Canonical] mode only when
   [Universe.canon] fixes it, and levels go in frontier order and then
   per-parent order. [Universe.enumerate] must store the same
   computations at the same indices, and number each process's
   projections by first occurrence in that order. *)

let reference_enabled spec z =
  let pool = Trace.in_flight z in
  List.concat_map
    (fun p ->
      let history = Trace.proj z p in
      List.concat_map
        (Spec.intent_events p ~history ~pool)
        (Spec.rule_of spec p history))
    (Spec.pids spec)
  |> List.sort_uniq Event.compare

let reference_comps ~mode u spec ~depth =
  let keep z =
    match mode with
    | `Full -> true
    | `Canonical -> Trace.equal z (Universe.canon u z)
  in
  let enabled z =
    let es = reference_enabled spec z in
    if not (List.equal Event.equal es (Spec.enabled spec z)) then
      Alcotest.failf "Spec.enabled after %s is [%s], reference has [%s]"
        (Trace.to_string z)
        (String.concat "; " (List.map Event.to_string (Spec.enabled spec z)))
        (String.concat "; " (List.map Event.to_string es));
    es
  in
  let rec levels frontier d =
    if d >= depth || frontier = [] then []
    else
      let next =
        List.concat_map
          (fun z -> List.filter keep (List.map (Trace.snoc z) (enabled z)))
          frontier
      in
      next :: levels next (d + 1)
  in
  Array.of_list (List.concat ([ Trace.empty ] :: levels [ Trace.empty ] 0))

let first_occurrence_ids comps p =
  let seen = Hashtbl.create 64 in
  Array.map
    (fun z ->
      let h = List.map Event.to_string (Trace.proj z p) in
      match Hashtbl.find_opt seen h with
      | Some id -> id
      | None ->
          let id = Hashtbl.length seen in
          Hashtbl.add seen h id;
          id)
    comps

(* the enumerated universe, and its serialize/deserialize round trip,
   whose trace column is rebuilt from the loaded run tree *)
let check_against_reference what ~mode spec ~depth =
  let u = Universe.enumerate ~mode spec ~depth in
  let loaded =
    Universe.serialize u |> Result.get_ok |> Universe.deserialize spec
    |> Result.get_ok
  in
  let expected = reference_comps ~mode u spec ~depth in
  List.iter
    (fun (what, u) ->
      check tint (what ^ ": size") (Array.length expected) (Universe.size u);
      Array.iteri
        (fun i z ->
          if not (Trace.equal z (Universe.comp u i)) then
            Alcotest.failf "%s: computation %d is %s, reference has %s" what i
              (Trace.to_string (Universe.comp u i))
              (Trace.to_string z))
        expected;
      List.iter
        (fun p ->
          check
            Alcotest.(array int)
            (Printf.sprintf "%s: class ids %s" what (Pid.to_string p))
            (first_occurrence_ids expected p)
            (Universe.class_ids u p))
        (Spec.pids spec))
    [ (what, u); (what ^ " round-tripped", loaded) ]

let test_reference_enumeration () =
  let open Hpl_protocols in
  Builtins.init ();
  let mode_name = function `Full -> "full" | `Canonical -> "canonical" in
  let both what spec ~depth =
    List.iter
      (fun mode ->
        check_against_reference
          (Printf.sprintf "%s %s" what (mode_name mode))
          ~mode spec ~depth)
      [ `Canonical; `Full ]
  in
  List.iter
    (fun proto ->
      let inst = Protocol.default_instance proto in
      both (Protocol.instance_name inst) (Protocol.spec_of inst)
        ~depth:(min 4 (Protocol.depth_of inst)))
    (Protocol.Registry.list ());
  let crash = Result.get_ok (Hpl_faults.Faults.Scenario.parse "crash-any:1") in
  List.iter
    (fun name ->
      let inst =
        Protocol.default_instance (Option.get (Protocol.Registry.find name))
      in
      both (name ^ " crash-any:1")
        (Hpl_faults.Faults.Scenario.apply_exn crash (Protocol.spec_of inst))
        ~depth:(min 4 (Protocol.depth_of inst)))
    [ "ring"; "token-ring" ];
  List.iter
    (fun (path, src) ->
      match Elaborate.load_string ~file:path src with
      | Error d -> Alcotest.failf "%s: %s" path (Diag.to_string d)
      | Ok l ->
          let inst = Protocol.default_instance l.Elaborate.proto in
          both path (Protocol.spec_of inst)
            ~depth:(min 4 (Protocol.depth_of inst)))
    Corpus.specs

let qcheck_props =
  let spec = Fixtures.chatter ~n:2 ~k:2 in
  let ucan = Universe.enumerate ~mode:`Canonical spec ~depth:4 in
  let ufull = Universe.enumerate ~mode:`Full spec ~depth:4 in
  let gen_idx =
    QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 (Universe.size ufull - 1))
  in
  [
    QCheck.Test.make ~name:"canon preserves projections" ~count:200 gen_idx (fun i ->
        let z = Universe.comp ufull i in
        let c = Universe.canon ufull z in
        Trace.permutation_of z c);
    QCheck.Test.make ~name:"canon idempotent" ~count:200 gen_idx (fun i ->
        let c = Universe.canon ufull (Universe.comp ufull i) in
        Trace.equal c (Universe.canon ufull c));
    QCheck.Test.make ~name:"find consistent across modes" ~count:200 gen_idx
      (fun i ->
        let z = Universe.comp ufull i in
        match Universe.find ucan z with
        | None -> false
        | Some j -> Trace.permutation_of z (Universe.comp ucan j));
  ]

let suite =
  [
    ("one-msg counts", `Quick, test_one_msg_counts);
    ("indep counts", `Quick, test_indep_counts);
    ("depth truncation", `Quick, test_depth_truncation);
    ("ticks counts", `Quick, test_ticks_counts);
    ("all enumerated valid", `Quick, test_all_enumerated_valid);
    ("canonical fixpoint", `Quick, test_canonical_is_canonical);
    ("canon class-invariant", `Quick, test_canon_is_class_invariant);
    ("full covers canonical", `Quick, test_full_covers_canonical_classes);
    ("find vs index", `Quick, test_find_and_index);
    ("class ids = projection classes", `Quick, test_class_ids_match_projection);
    ("pset class ids", `Quick, test_pset_class_ids);
    ("class members", `Quick, test_class_members);
    ("prefixes_of", `Quick, test_prefixes_of);
    ("prefixes_of = find every prefix", `Quick, test_prefixes_of_reference);
    ("words per computation", `Quick, test_words_per_computation);
    ("no trace kept until one is read", `Quick, test_no_trace_until_read);
    ("prefix-closed storage", `Quick, test_prefix_closed_universe);
    ("enumeration = naive reference BFS", `Quick, test_reference_enumeration);
  ]
  @ List.map (fun p -> QCheck_alcotest.to_alcotest ~verbose:false p) qcheck_props
