(* Observability cross-checks: the obs layer's numbers must agree with
   ground truth computed by the instrumented code itself, its JSON
   exporters must emit parseable output with the documented schema, and
   the disabled path must be fully transparent. The exporters are read
   back with the serve codec's parser, so the schema assertions are
   structural, not grep-shaped. *)
open Hpl_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Json = Hpl_serve.Json

let parse s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "bad JSON: %s" e

let arr = function Json.List xs -> Some xs | _ -> None

(* every enabled-path test must leave the global switch off for the
   rest of the suite, even when failing *)
let with_obs f =
  Hpl_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Hpl_obs.disable ();
      Hpl_obs.reset ())
    f

let chatter = Fixtures.chatter ~n:3 ~k:2

(* -- disabled path ----------------------------------------------------- *)

let test_disabled_transparent () =
  Hpl_obs.disable ();
  Hpl_obs.reset ();
  let r = Hpl_obs.span "t" (fun () -> 41 + 1) in
  check_int "span returns f ()" 42 r;
  Hpl_obs.instant "i";
  Hpl_obs.count "c" 7;
  Hpl_obs.set_gauge "g" 1.0;
  check_int "no spans recorded" 0 (Hpl_obs.span_count "t");
  check_int "no counters recorded" 0 (Hpl_obs.counter "c");
  check "no gauges recorded" true (Hpl_obs.gauge_max "g" = None);
  check "no names" true (Hpl_obs.span_names () = [])

let test_disabled_span_reraises () =
  Hpl_obs.disable ();
  let raised =
    try
      ignore (Hpl_obs.span "t" (fun () -> failwith "boom"));
      false
    with Failure _ -> true
  in
  check "exception propagates" true raised

(* -- counters vs. ground truth ---------------------------------------- *)

let test_states_counter_matches_size () =
  with_obs (fun () ->
      let u = Universe.enumerate ~mode:`Canonical chatter ~depth:4 in
      check_int "enumerate.states = Universe.size" (Universe.size u)
        (Hpl_obs.counter "enumerate.states"))

let test_extent_evals_counter () =
  with_obs (fun () ->
      let u = Universe.enumerate ~mode:`Canonical chatter ~depth:4 in
      Hpl_obs.reset ();
      let b = Prop.make "any" (fun _ -> true) in
      ignore (Prop.extent u b);
      check_int "prop.extent.evals = Universe.size" (Universe.size u)
        (Hpl_obs.counter "prop.extent.evals"))

(* every formula operator maps extents to extents, so [check] never
   builds the trace index nor looks a computation up by its trace *)
let test_check_no_lookups () =
  with_obs (fun () ->
      let u = Universe.enumerate ~mode:`Canonical chatter ~depth:4 in
      let sent =
        Prop.make "sent" (fun z -> Trace.send_count z (Pid.of_int 0) > 0)
      in
      let env = function "sent" -> Some sent | _ -> None in
      let f = Result.get_ok (Formula.parse "AG (sent -> EF (K p1 sent))") in
      (match Formula.check u ~env f with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      check "probes recorded the check" true
        (Hpl_obs.span_count "knowledge.knows_ext" > 0);
      check_int "universe.lookups" 0 (Hpl_obs.counter "universe.lookups");
      check_int "universe.index spans" 0 (Hpl_obs.span_count "universe.index"))

(* a snapshot body is the run tree: its parents come from the parent
   column, so saving a universe never builds the trace index *)
let test_serialize_no_index () =
  with_obs (fun () ->
      let u = Universe.enumerate ~mode:`Canonical chatter ~depth:4 in
      (match Universe.serialize u with
      | Ok body -> check "non-empty body" true (String.length body > 0)
      | Error e -> Alcotest.fail e);
      check_int "universe.index spans" 0 (Hpl_obs.span_count "universe.index"))

let test_lint_findings_counter () =
  Hpl_protocols.Builtins.init ();
  let inst =
    match Hpl_protocols.Protocol.Registry.parse "two-generals" with
    | Ok i -> i
    | Error e -> failwith e
  in
  with_obs (fun () ->
      let report = Hpl_analysis.Lint.lint_instance inst in
      check_int "lint.findings = |report.findings|"
        (List.length report.Hpl_analysis.Lint.findings)
        (Hpl_obs.counter "lint.findings"))

(* -- span aggregation -------------------------------------------------- *)

let test_lint_children_account_for_total () =
  Hpl_protocols.Builtins.init ();
  let inst =
    match Hpl_protocols.Protocol.Registry.parse "token-bus" with
    | Ok i -> i
    | Error e -> failwith e
  in
  with_obs (fun () ->
      ignore (Hpl_analysis.Lint.lint_instance inst);
      let total = Hpl_obs.span_total_us "lint" in
      let children =
        List.fold_left
          (fun acc name -> acc +. Hpl_obs.span_total_us name)
          0.0
          [
            "lint.extract";
            "lint.extract-faulty";
            "lint.locality";
            "lint.rules.hygiene";
            "lint.rules.atoms";
            "lint.rules.faults";
            "lint.rules.formulas";
          ]
      in
      check "lint ran long enough to compare" true (total > 0.0);
      (* the phases are sequential inside [lint], so their sum cannot
         exceed the parent beyond clock granularity, and they are the
         bulk of the work, so they cannot fall below half of it *)
      check
        (Printf.sprintf "children (%.1fus) <= total (%.1fus) + slack" children
           total)
        true
        (children <= (total *. 1.05) +. 10.0);
      check
        (Printf.sprintf "children (%.1fus) >= 0.5 * total (%.1fus)" children
           total)
        true
        (children >= total *. 0.5))

(* -- exporters --------------------------------------------------------- *)

let test_stats_json_schema () =
  with_obs (fun () ->
      ignore (Universe.enumerate ~mode:`Canonical chatter ~depth:4);
      let j = parse (Hpl_obs.stats_json ()) in
      let field name =
        match Json.member name j with
        | Some v -> (
            match arr v with
            | Some xs -> xs
            | None -> Alcotest.failf "%s is not an array" name)
        | None -> Alcotest.failf "missing %s" name
      in
      let spans = field "spans" in
      check "some spans" true (spans <> []);
      List.iter
        (fun sp ->
          List.iter
            (fun k ->
              check ("span has " ^ k) true (Json.member k sp <> None))
            [ "name"; "count"; "total_us"; "max_us" ])
        spans;
      List.iter
        (fun c ->
          check "counter has name" true (Json.member "name" c <> None);
          check "counter has value" true (Json.member "value" c <> None))
        (field "counters");
      List.iter
        (fun g ->
          List.iter
            (fun k -> check ("gauge has " ^ k) true (Json.member k g <> None))
            [ "name"; "last"; "max" ])
        (field "gauges"))

let test_chrome_trace_schema () =
  with_obs (fun () ->
      ignore (Universe.enumerate ~mode:`Canonical chatter ~depth:4);
      let j = parse (Hpl_obs.chrome_trace ()) in
      match arr j with
      | None -> Alcotest.fail "chrome trace is not an array"
      | Some events ->
          check "some events" true (events <> []);
          List.iter
            (fun ev ->
              List.iter
                (fun k ->
                  check ("event has " ^ k) true (Json.member k ev <> None))
                [ "name"; "ph"; "ts"; "pid"; "tid" ])
            events)

let test_profile_roundtrip () =
  with_obs (fun () ->
      ignore (Universe.enumerate ~mode:`Canonical chatter ~depth:3);
      let in_memory = Hpl_obs.chrome_trace () in
      let path = Filename.temp_file "hpl" ".profile.json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          (match Hpl_obs.write_profile path with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write_profile: %s" e);
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let on_disk = really_input_string ic len in
          close_in ic;
          let count s =
            match arr (parse s) with
            | Some xs -> List.length xs
            | None -> Alcotest.fail "profile is not an array"
          in
          check_int "same event count on disk" (count in_memory)
            (count on_disk)))

let test_profile_unwritable () =
  with_obs (fun () ->
      match Hpl_obs.write_profile "/nonexistent-dir/x/profile.json" with
      | Ok () -> Alcotest.fail "expected Error on unwritable path"
      | Error e -> check "one-line message" true (not (String.contains e '\n')))

let suite =
  [
    ("disabled probes are transparent", `Quick, test_disabled_transparent);
    ("disabled span re-raises", `Quick, test_disabled_span_reraises);
    ("states counter = universe size", `Quick, test_states_counter_matches_size);
    ("extent evals counter", `Quick, test_extent_evals_counter);
    ("lint findings counter", `Quick, test_lint_findings_counter);
    ("check never looks a trace up", `Quick, test_check_no_lookups);
    ("serialize never looks a trace up", `Quick, test_serialize_no_index);
    ("lint child spans sum to total", `Quick, test_lint_children_account_for_total);
    ("stats json schema", `Quick, test_stats_json_schema);
    ("chrome trace schema", `Quick, test_chrome_trace_schema);
    ("profile round-trips", `Quick, test_profile_roundtrip);
    ("profile unwritable path", `Quick, test_profile_unwritable);
  ]
