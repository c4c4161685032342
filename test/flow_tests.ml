(* The abstract interpreter (lib/analysis/dataflow.ml, `hpl flow`).

   Every static claim is cross-validated against the dynamic baseline,
   registry- and corpus-wide:

   - soundness of verdicts: a reported-dead rule's guard is false on
     every reachable local history of the fully enumerated universe at
     the protocol's suggested depth (and a tautology's guard is true),
     via [Dataflow.guard_holds] — the exact concrete semantics;
   - the static channel graph covers every dynamic channel, and equals
     [Channel_graph.extract] exactly when both sides claim exactness.

   A registry protocol is analyzed through the embedded spec that
   defines it ([Builtins.port]); the registry cases below cover those
   five builtins along with the corpus files. *)
open Hpl_core
open Hpl_protocols
open Hpl_analysis

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

let enum inst ~depth = Universe.enumerate (Protocol.spec_of inst) ~depth

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

(* -- per-process event bounds, as `hpl flow -v` prints them ------------ *)

(* quorum: the collector p0 receives two votes and decides, each member
   votes once *)
let test_quorum_event_bounds () =
  let _, _, df = List.find (fun (n, _, _) -> n = "quorum:5:2") (ported ()) in
  let report = Format.asprintf "%a" Dataflow.pp df in
  let lines = String.split_on_char '\n' report in
  let bound p b =
    check tbool
      (Printf.sprintf "p%d <= %d" p b)
      true
      (List.mem (Printf.sprintf "  p%d: <= %d events" p b) lines)
  in
  bound 0 3;
  for p = 1 to 4 do
    bound p 1
  done

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
    Alcotest.test_case "quorum: event bounds" `Quick test_quorum_event_bounds;
    Alcotest.test_case "exactly the ported builtins are analyzed" `Quick
      test_ported_set;
    Alcotest.test_case "unreachable atom is reported" `Quick
      test_unreachable_atom_finding;
    Alcotest.test_case "guard tautology is reported at info" `Quick
      test_tautology_finding;
    Alcotest.test_case "diagnostic spans render" `Quick test_diag_spans;
  ]
