(* The abstract interpreter (lib/analysis/dataflow.ml, `hpl flow`).

   Every static claim is cross-validated against the dynamic baseline,
   registry- and corpus-wide:

   - soundness of verdicts: a reported-dead rule's guard is false on
     every reachable local history of the fully enumerated universe at
     the protocol's suggested depth (and a tautology's guard is true),
     via [Dataflow.guard_holds] — the exact concrete semantics;
   - the static channel graph covers every dynamic channel, and equals
     [Channel_graph.extract] exactly when both sides claim exactness;
   - the exported independence relation really lets POR prune:
     por+independence preserves the set of blocked computations (the
     weakened contract of Reduction §10), stays a subset of the
     unreduced universe, is bit-identical on the protocols where the
     restriction never fires, and shows a strict state-count reduction
     on quorum — the row BENCH.json tracks.

   A registry protocol is analyzed through its corpus port; the
   registry cases below therefore also check each port's rules against
   the builtin's enumerated universe. *)
open Hpl_core
open Hpl_protocols
open Hpl_analysis
open Hpl_dsl

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let load_embedded (path, src) =
  match Elaborate.load_string ~file:path src with
  | Ok l -> l
  | Error d -> Alcotest.failf "cannot load %s: %s" path (Diag.to_string d)

let load_spec file =
  let path = "corpus/specs/" ^ file in
  match List.assoc_opt path Corpus.specs with
  | Some src -> load_embedded (path, src)
  | None -> Alcotest.failf "%s is not embedded" path

let load_inline src =
  match Elaborate.load_string ~file:"inline.hpl" src with
  | Ok l -> l
  | Error d -> Alcotest.failf "cannot load inline spec: %s" (Diag.to_string d)

let flow_of_loaded l =
  let values = Protocol.defaults l.Elaborate.proto in
  match Dataflow.of_loaded l values with
  | Ok t -> t
  | Error d -> Alcotest.failf "flow failed: %s" (Diag.to_string d)

(* every registry protocol with a corpus port, with its analysis *)
let ported () =
  List.filter_map
    (fun proto ->
      let inst = Protocol.default_instance proto in
      Option.map
        (fun df -> (Protocol.instance_name inst, inst, df))
        (Dataflow.of_instance inst))
    (Protocol.Registry.list ())

(* analyses of every corpus spec, loaded as a -f file would be *)
let corpus () =
  List.map
    (fun spec ->
      let l = load_embedded spec in
      let inst = Protocol.default_instance l.Elaborate.proto in
      (fst spec, inst, flow_of_loaded l))
    Corpus.specs

(* flow coverage cannot shrink silently: exactly these builtins have a
   port, and [of_instance] is [None] for every other one *)
let test_ported_set () =
  check
    Alcotest.(list string)
    "ported registry protocols"
    [ "mesh"; "ping-pong"; "quorum"; "ring"; "star-flood" ]
    (List.map
       (fun (_, inst, _) -> Protocol.name (Protocol.proto inst))
       (ported ()))

let enum ?reduce inst ~depth =
  Universe.enumerate ?reduce (Protocol.spec_of inst) ~depth

(* -- soundness of verdicts, against full enumeration ---------------------- *)

(* The universe is prefix-closed (canonical representatives are closed
   under prefixes), so the projections of the stored computations are
   exactly the reachable local histories at this depth. *)
let assert_verdicts_sound ~what inst df =
  let depth = Protocol.depth_of inst in
  let u = enum inst ~depth in
  check tbool (what ^ ": complete universe") true
    (Universe.status u = Universe.Complete);
  List.iter
    (fun (r : Dataflow.rule_report) ->
      match r.Dataflow.verdict with
      | Dataflow.Sat -> ()
      | Dataflow.Dead ->
          Universe.iter
            (fun i z ->
              let h = Trace.proj z (Pid.of_int r.Dataflow.pid) in
              if
                Dataflow.guard_holds df ~pid:r.Dataflow.pid
                  ~index:r.Dataflow.index h
              then
                Alcotest.failf
                  "%s: dead rule p%d/%d `when %s` enabled at computation %d"
                  what r.Dataflow.pid r.Dataflow.index r.Dataflow.text i)
            u
      | Dataflow.Tautology ->
          Universe.iter
            (fun i z ->
              let h = Trace.proj z (Pid.of_int r.Dataflow.pid) in
              if
                not
                  (Dataflow.guard_holds df ~pid:r.Dataflow.pid
                     ~index:r.Dataflow.index h)
              then
                Alcotest.failf
                  "%s: tautology p%d/%d `when %s` false at computation %d"
                  what r.Dataflow.pid r.Dataflow.index r.Dataflow.text i)
            u)
    (Dataflow.rules df)

let test_registry_verdicts_sound () =
  List.iter (fun (name, inst, df) -> assert_verdicts_sound ~what:name inst df)
    (ported ())

let test_corpus_verdicts_sound () =
  List.iter (fun (file, inst, df) -> assert_verdicts_sound ~what:file inst df)
    (corpus ())

(* relay.hpl is the fixture whose dead rule is real: the verdict must
   actually be Dead (not just absent-of-unsoundness), the finding must
   carry the guard's span, and the expected-annotation must match *)
let test_relay_dead_rule () =
  let l = load_spec "relay.hpl" in
  let df = flow_of_loaded l in
  (match Dataflow.dead_rules df with
  | [ r ] ->
      check tint "dead rule is p1's" 1 r.Dataflow.pid;
      check tint "dead rule is rule 2" 2 r.Dataflow.index;
      check tbool "where is a span into the file" true
        (let w = r.Dataflow.where in
         let has_dash = String.contains w '-' in
         has_dash
         && String.length w > 10
         && Filename.basename (List.hd (String.split_on_char ':' w))
            = "relay.hpl")
  | rs -> Alcotest.failf "expected exactly one dead rule, got %d" (List.length rs));
  (match Dataflow.findings df ~expect:[ "dead-rule@p1" ] with
  | [ f ] ->
      check Alcotest.string "rule id" "dead-rule" f.Lint.rule;
      check tbool "severity warning" true (f.Lint.severity = Lint.Warning);
      check tbool "expected" true f.Lint.expected
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  match Dataflow.findings df ~expect:[] with
  | [ f ] -> check tbool "unexpected without annotation" false f.Lint.expected
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* -- static channel graph vs Channel_graph.extract ------------------------ *)

let dynamic_channels inst ~depth =
  let g =
    Channel_graph.extract ~fuel:(max 1 (min 16 depth)) ~max_states:60_000
      (Protocol.spec_of inst)
  in
  let edges =
    List.concat_map
      (fun (s, d) ->
        List.map (fun p -> (s, d, p)) (Channel_graph.channel_payloads g s d))
      (Channel_graph.channels g)
  in
  (List.sort compare edges, Channel_graph.scope g)

let assert_channels_cross ~what inst df =
  let depth = Protocol.depth_of inst in
  let dynamic, scope = dynamic_channels inst ~depth in
  let static = Dataflow.channels df in
  List.iter
    (fun (s, d, p) ->
      if not (List.mem (s, d, p) static) then
        Alcotest.failf "%s: dynamic channel p%d->p%d %S missing statically"
          what s d p)
    dynamic;
  (* both sides exact: the graphs must agree edge for edge *)
  if scope = Channel_graph.Exact && Dataflow.graph_exact df then
    check
      Alcotest.(list (triple int int string))
      (what ^ ": exact graphs equal") dynamic static

let test_registry_channels () =
  List.iter (fun (name, inst, df) -> assert_channels_cross ~what:name inst df)
    (ported ())

let test_corpus_channels () =
  List.iter (fun (file, inst, df) -> assert_channels_cross ~what:file inst df)
    (corpus ())

(* -- por + independence: the reduction actually prunes -------------------- *)

let blocked u =
  let spec = Universe.spec u in
  Universe.fold
    (fun _ z acc -> if Spec.enabled spec z = [] then z :: acc else acc)
    u []
  |> List.map Trace.to_list |> List.sort compare

let por_with_independence df =
  match Dataflow.independence df with
  | Some ind -> Reduction.with_independence Reduction.por ind
  | None -> Alcotest.fail "expected an independence relation"

(* registry-wide (ported): por+independence preserves every blocked
   computation and never invents one — at the suggested depth, where
   the certificate may or may not apply *)
let test_por_independence_blocked_preservation () =
  List.iter
    (fun (name, inst, df) ->
      let depth = Protocol.depth_of inst in
      let u0 = enum inst ~depth in
      let u1 = enum ~reduce:(por_with_independence df) inst ~depth in
      check tbool (name ^ ": subset") true
        (Universe.fold
           (fun _ z acc -> acc && Universe.index u0 z <> None)
           u1 true);
      check
        Alcotest.(list (list string))
        (name ^ ": blocked computations preserved")
        (List.map (List.map Event.to_string) (blocked u0))
        (List.map (List.map Event.to_string) (blocked u1)))
    (ported ())

(* quorum at depth 9: the certificate applies (Σ bound = 7 <= 9) and
   the restriction really fires — 87 states, strictly fewer than plain
   por's 144, which is itself bit-identical to the unreduced run *)
let test_quorum_strict_reduction () =
  let _, inst, df =
    List.find (fun (n, _, _) -> n = "quorum:5:2") (ported ())
  in
  let depth = 9 in
  let u0 = enum inst ~depth in
  let upor = enum ~reduce:Reduction.por inst ~depth in
  let uind = enum ~reduce:(por_with_independence df) inst ~depth in
  check tint "plain por is bit-identical" (Universe.size u0)
    (Universe.size upor);
  check tint "por+independence reduces to 87 states" 87 (Universe.size uind);
  check
    Alcotest.(list (list string))
    "blocked computations preserved"
    (List.map (List.map Event.to_string) (blocked u0))
    (List.map (List.map Event.to_string) (blocked uind))

let test_quorum_independence_shape () =
  let _, _, df = List.find (fun (n, _, _) -> n = "quorum:5:2") (ported ()) in
  match Dataflow.independence df with
  | None -> Alcotest.fail "quorum has no independence relation"
  | Some ind ->
      check tint "total" 7 (Reduction.Independence.total ind);
      check tint "n" 5 (Reduction.Independence.n ind);
      check tbool "p0 not stable (it receives)" false
        (Reduction.Independence.stable ind 0);
      check tint "p0 bound" 3 (Reduction.Independence.bound ind 0);
      for p = 1 to 4 do
        check tbool
          (Printf.sprintf "p%d stable" p)
          true
          (Reduction.Independence.stable ind p);
        check tint (Printf.sprintf "p%d bound" p) 1
          (Reduction.Independence.bound ind p)
      done;
      check tbool "applicable at 7" true
        (Reduction.Independence.applicable ind ~depth:7);
      check tbool "not applicable at 6" false
        (Reduction.Independence.applicable ind ~depth:6)

(* on all-receive protocols the singleton restriction never fires: the
   universe stays bit-identical with the independence attached *)
let test_por_independence_bit_identity_when_inapplicable () =
  List.iter
    (fun name ->
      let _, inst, df = List.find (fun (n, _, _) -> n = name) (ported ()) in
      let depth = Protocol.depth_of inst in
      let u0 = enum ~reduce:Reduction.por inst ~depth in
      let u1 = enum ~reduce:(por_with_independence df) inst ~depth in
      check tint (name ^ ": size") (Universe.size u0) (Universe.size u1);
      Universe.iter
        (fun i z ->
          check tbool
            (Printf.sprintf "%s: comp %d" name i)
            true
            (Trace.equal z (Universe.comp u1 i)))
        u0)
    [ "ring:6:2"; "ping-pong" ]

(* -- the ample-set restriction on hand-built sorted candidate lists ------- *)

let restrict_ind =
  Reduction.Independence.make ~stable:[| true; false; true |]
    ~bound:[| 1; 1; 1 |]

let ev pid tag = Event.internal ~pid:(Pid.of_int pid) ~lseq:0 tag

let restrict_case name ~want cands () =
  check
    Alcotest.(list string)
    name
    (List.map Event.to_string want)
    (List.map Event.to_string (Reduction.restrict restrict_ind cands))

let restrict_cases =
  let a = ev 0 "a" and b = ev 0 "b" and c = ev 1 "c" and d = ev 2 "d" in
  let e3 = ev 3 "e" and e4 = ev 4 "f" in
  [
    ( "restrict: stable head alone on its process is a singleton",
      restrict_case "singleton" ~want:[ a ] [ a; c; d ] );
    ( "restrict: a second event on the head's process keeps all",
      restrict_case "unchanged" ~want:[ a; b; c ] [ a; b; c ] );
    ( "restrict: an unstable head keeps all",
      restrict_case "unchanged" ~want:[ c; d ] [ c; d ] );
    ( "restrict: a head pid beyond the relation keeps all",
      restrict_case "unchanged" ~want:[ e3; e4 ] [ e3; e4 ] );
    ( "restrict: lists of length <= 1 are unchanged",
      fun () ->
        restrict_case "empty" ~want:[] [] ();
        restrict_case "one" ~want:[ a ] [ a ] () );
  ]

(* -- findings: unreachable atoms and tautologies -------------------------- *)

let test_unreachable_atom_finding () =
  let l =
    load_inline
      "protocol \"inline-dead-atom\" {\n\
      \  processes 2\n\
      \  process 0 {\n\
      \    when sends == 0 => send \"ping\" to 1\n\
      \  }\n\
      \  process 1 {\n\
      \    when len == 0 => recv\n\
      \  }\n\
      \  atom ghost at 1 = recvs(\"pong\") > 0\n\
      }\n"
  in
  let df = flow_of_loaded l in
  check tbool "not clean" false (Dataflow.clean df);
  let fs = Dataflow.findings df ~expect:[] in
  check tbool "unreachable-message on the atom" true
    (List.exists
       (fun f -> f.Lint.rule = "unreachable-message" && f.Lint.target = "ghost")
       fs)

let test_tautology_finding () =
  let l =
    load_inline
      "protocol \"inline-taut\" {\n\
      \  processes 2\n\
      \  depth 3\n\
      \  process 0 {\n\
      \    when len >= 0 => send \"m\" to 1\n\
      \  }\n\
      \  process 1 {\n\
      \    when len == 0 => recv\n\
      \  }\n\
      }\n"
  in
  let df = flow_of_loaded l in
  let fs = Dataflow.findings df ~expect:[] in
  check tbool "guard-tautology reported at info" true
    (List.exists
       (fun f -> f.Lint.rule = "guard-tautology" && f.Lint.severity = Lint.Info)
       fs);
  (* info findings never gate *)
  check tbool "tautology does not gate" true
    (List.for_all
       (fun f -> f.Lint.severity = Lint.Info || f.Lint.expected)
       fs)

(* -- diagnostic spans ------------------------------------------------------ *)

let test_diag_spans () =
  let p l c = { Ast.line = l; col = c } in
  check Alcotest.string "point" "f.hpl:3:7: boom"
    (Diag.to_string (Diag.make ~file:"f.hpl" ~pos:(p 3 7) "boom"));
  let same = Diag.span ~file:"f.hpl" ~pos:(p 3 7) ~epos:(p 3 19) "boom" in
  check Alcotest.string "same-line span" "f.hpl:3:7-19: boom"
    (Diag.to_string same);
  check tbool "span recognized" true (Diag.is_span same);
  let multi = Diag.span ~file:"f.hpl" ~pos:(p 3 7) ~epos:(p 5 2) "boom" in
  check Alcotest.string "multi-line span" "f.hpl:3:7-5:2: boom"
    (Diag.to_string multi);
  (* a degenerate range collapses to a point *)
  let degen = Diag.span ~file:"f.hpl" ~pos:(p 3 7) ~epos:(p 3 7) "boom" in
  check Alcotest.string "degenerate span is a point" "f.hpl:3:7: boom"
    (Diag.to_string degen);
  check tbool "degenerate not a span" false (Diag.is_span degen)

let suite =
  [
    Alcotest.test_case "verdicts sound, registry-wide" `Quick
      test_registry_verdicts_sound;
    Alcotest.test_case "verdicts sound, corpus-wide" `Quick
      test_corpus_verdicts_sound;
    Alcotest.test_case "relay fixture: the dead rule is found" `Quick
      test_relay_dead_rule;
    Alcotest.test_case "static channels cover dynamic, registry" `Quick
      test_registry_channels;
    Alcotest.test_case "static channels cover dynamic, corpus" `Quick
      test_corpus_channels;
    Alcotest.test_case "por+independence preserves blocked computations"
      `Quick test_por_independence_blocked_preservation;
    Alcotest.test_case "quorum: por+independence strictly reduces" `Quick
      test_quorum_strict_reduction;
    Alcotest.test_case "quorum: independence relation shape" `Quick
      test_quorum_independence_shape;
    Alcotest.test_case "bit-identical where restriction never fires" `Quick
      test_por_independence_bit_identity_when_inapplicable;
    Alcotest.test_case "exactly the ported builtins are analyzed" `Quick
      test_ported_set;
    Alcotest.test_case "unreachable atom is reported" `Quick
      test_unreachable_atom_finding;
    Alcotest.test_case "guard tautology is reported at info" `Quick
      test_tautology_finding;
    Alcotest.test_case "diagnostic spans render" `Quick test_diag_spans;
  ]
  @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) restrict_cases
