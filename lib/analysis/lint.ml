open Hpl_core
open Hpl_faults
open Hpl_protocols

type severity = Error | Warning | Info

type finding = {
  rule : string;
  severity : severity;
  target : string;
  message : string;
  witness : string option;
  hint : string option;
  expected : bool;
}

type report = {
  subject : string;
  depth : int;
  findings : finding list;
  graph : Channel_graph.t;
  locality : Locality.t;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* -- rendering helpers ---------------------------------------------------- *)

let pids_to_string = function
  | [ p ] -> Printf.sprintf "p%d" p
  | ps -> "{" ^ String.concat "," (List.map (Printf.sprintf "p%d") ps) ^ "}"

let chan_to_string (a, b) = Printf.sprintf "p%d->p%d" a b

(* Concatenate the witness hop paths into one route: consecutive paths
   share their junction process. *)
let route_of_witness chain paths =
  let full =
    List.fold_left
      (fun acc path ->
        match (acc, path) with
        | [], _ -> path
        | _, _ :: rest -> acc @ rest
        | _, [] -> acc)
      [] paths
  in
  let full = match full with [] -> chain | f -> f in
  String.concat " -> " (List.map (Printf.sprintf "p%d") full)

(* -- findings construction ------------------------------------------------ *)

let find_ ?witness ?hint ~expect rule severity target message =
  let expected =
    List.exists (fun e -> e = rule || e = rule ^ "@" ^ target) expect
  in
  { rule; severity; target; message; witness; hint; expected }

let hygiene_findings ~expect g =
  let f = find_ ~expect in
  let incomplete = Channel_graph.scope g = Channel_graph.Incomplete in
  let base =
    List.map
      (fun (p, e) ->
        f "rule-raises" Error (Printf.sprintf "p%d" p)
          (Printf.sprintf "the rule of p%d raised while being probed: %s" p e)
          ~hint:"rules must be total over their local histories")
      (Channel_graph.rule_errors g)
    @ List.map
        (fun (a, b, payload) ->
          f "bad-address" Error (chan_to_string (a, b))
            (Printf.sprintf
               "p%d sends %S to %s — no process can ever receive it" a payload
               (if a = b then "itself" else Printf.sprintf "p%d (outside the system)" b))
            ~hint:"fix the destination pid or grow the system")
        (Channel_graph.bad_sends g)
  in
  if incomplete then
    base
    @ [
        f "analysis-incomplete" Info "graph"
          (Printf.sprintf
             "state cap hit after %d explored histories — absence-based rules \
              were skipped"
             (Channel_graph.states g));
      ]
  else
    base
    @ List.map
        (fun (a, b, payload) ->
          f "dead-letter" Warning
            (Printf.sprintf "%s:%s" (chan_to_string (a, b)) payload)
            (Printf.sprintf
               "p%d sends %S to p%d but no receive of p%d ever accepts it" a
               payload b b)
            ~hint:"add a matching receive or remove the send")
        (Channel_graph.dead_letters g)
    @ List.concat_map
        (fun p ->
          List.filter_map
            (fun (shape, satisfied) ->
              if satisfied then None
              else
                let s =
                  match shape with
                  | Channel_graph.Any -> "any message"
                  | Channel_graph.From q -> Printf.sprintf "from p%d" q
                  | Channel_graph.Filtered name ->
                      Printf.sprintf "matching filter %S" name
                in
                Some
                  (f "recv-starved" Warning (Printf.sprintf "p%d" p)
                     (Printf.sprintf
                        "p%d is willing to receive %s but no message ever \
                         satisfies it"
                        p s)
                     ~hint:"add the matching send or drop the receive"))
            (Channel_graph.recv_shapes g p))
        (List.init (Channel_graph.n g) Fun.id)
    @ List.filter_map
        (fun p ->
          if Channel_graph.active g p then None
          else
            Some
              (f "inactive-process" Warning (Printf.sprintf "p%d" p)
                 (Printf.sprintf "p%d never takes any event" p)
                 ~hint:"remove the process or give it behaviour"))
        (List.init (Channel_graph.n g) Fun.id)

let atom_findings ~expect loc atoms =
  if not (Locality.exhaustive loc) then []
  else
    List.filter_map
      (fun (name, _) ->
        match Locality.local_pids loc name with
        | None -> None
        | Some [] ->
            Some
              (find_ ~expect "atom-global" Info name
                 (Printf.sprintf
                    "atom %S is not local to any single process (exact at \
                     depth %d)"
                    name (Locality.depth loc)))
        | Some ps ->
            Some
              (find_ ~expect "atom-local" Info name
                 (Printf.sprintf "atom %S is local to %s (exact at depth %d)"
                    name (pids_to_string ps) (Locality.depth loc))))
      atoms

(* Channels dropped by the scenario, expanded over the graph's actual
   channel list. *)
let dropped_channels scenario g =
  List.concat_map
    (function
      | Faults.Scenario.Drop Faults.Scenario.All_channels ->
          Channel_graph.channels g
      | Faults.Scenario.Drop (Faults.Scenario.Channel (a, b)) -> [ (a, b) ]
      | Faults.Scenario.Partition { group; _ } ->
          (* the exact engine over-approximates a partition window as
             whole-run lossiness on the crossing channels *)
          List.filter
            (fun (a, b) -> List.mem a group <> List.mem b group)
            (Channel_graph.channels g)
      | Faults.Scenario.Dup _ | Faults.Scenario.Crash_stop _
      | Faults.Scenario.Crash_any _ | Faults.Scenario.Recover _ ->
          [])
    scenario
  |> List.sort_uniq Stdlib.compare

let formula_findings ~expect ~env ~depth ~faults ~faulty_graph g loc
    (formula, asserted) =
  let f = find_ ~expect in
  let sev_major = if asserted then Warning else Info in
  let unbound =
    if not asserted then []
    else
      List.filter_map
        (fun name ->
          if Option.is_some (env name) then None
          else
            Some
              (f "unbound-atom" Error name
                 (Printf.sprintf "formula %s uses atom %S, which this spec \
                                  does not define"
                    (Formula.print formula) name)))
        (Formula.atoms formula)
  in
  let ck =
    if Formula.contains_common formula then
      [
        f "ck-constant" Info (Formula.print formula)
          "CK is a constant predicate (§4.2): it can never be gained or \
           lost, and over lossy channels this is exactly the \
           coordinated-attack impossibility";
      ]
    else []
  in
  let nest_findings (nest : Formula.nest) =
    let target = Formula.print nest.subformula in
    let origins = Locality.origins loc nest.body in
    let gain = Chain_check.gain g ~origins nest in
    match gain with
    | Chain_check.Feasible { chain; paths; min_hops } ->
        let witness =
          Printf.sprintf "chain %s (route %s, %d hop%s)"
            (String.concat " ⇝ " (List.map (Printf.sprintf "p%d") chain))
            (route_of_witness chain paths)
            min_hops
            (if min_hops = 1 then "" else "s")
        in
        [ f "chain-feasible" Info target
            (Printf.sprintf
               "a gain chain exists: knowledge can flow along delivered \
                channels (Theorem 5 necessary condition met)")
            ~witness ]
        @ (match Chain_check.min_depth gain with
          | Some md when md > depth ->
              [
                f "depth-insufficient" sev_major target
                  (Printf.sprintf
                     "the cheapest gain chain needs %d hops = %d events, but \
                      the analyzed depth is %d — the property cannot be \
                      exhibited at this depth"
                     min_hops md depth)
                  ~hint:(Printf.sprintf "use --depth %d or more" md);
              ]
          | _ -> [])
        @ (match Chain_check.loss g ~origins nest with
          | Chain_check.Infeasible _ ->
              [
                f "loss-infeasible" Info target
                  "no loss chain exists (Theorem 6): once gained, this \
                   knowledge is stable";
              ]
          | _ -> [])
        @ (match faults with
          | None -> []
          | Some scenario -> (
              let dropped = dropped_channels scenario g in
              (if dropped = [] then []
               else
                 match
                   Chain_check.gain
                     (Channel_graph.without_channels g dropped)
                     ~origins nest
                 with
                 | Chain_check.Infeasible _ ->
                     [
                       f "lossy-gain-chain" sev_major target
                         (Printf.sprintf
                            "every gain chain crosses a dropped channel (%s): \
                             gain is at the daemon's mercy, and no protocol \
                             over such channels attains common knowledge"
                            (String.concat ", "
                               (List.map chan_to_string dropped)))
                         ~hint:"this is the coordinated-attack situation of \
                                §4.2";
                     ]
                 | _ -> [])
              @
              match faulty_graph with
              | None -> []
              | Some g' -> (
                  match Chain_check.gain g' ~origins nest with
                  | Chain_check.Infeasible { detail; _ } ->
                      [
                        f "fault-severs-chain" sev_major target
                          (Printf.sprintf
                             "feasible in the fault-free spec, infeasible \
                              under %s: %s"
                             (Faults.Scenario.to_string scenario)
                             detail);
                      ]
                  | _ -> [])))
    | Chain_check.Infeasible { level; detail } ->
        let never =
          Chain_check.never_holds g ~env ~depth:(Some depth) nest ~gain
        in
        let at_level =
          match level with
          | Some l -> Printf.sprintf " (breaks at nesting level %d)" l
          | None -> " (the body's home process is cut off)"
        in
        if never && asserted then
          [
            f "chain-infeasible" Error target
              (Printf.sprintf
                 "provably holds at no computation of depth <= %d: the body \
                  is false initially and no gain chain exists (Theorems 4-5, \
                  veridicality)%s"
                 depth at_level)
              ~witness:detail
              ~hint:"the formula is unsatisfiable here — fix the formula or \
                     add the missing channel path";
          ]
        else
          [
            f "chain-infeasible" sev_major target
              (Printf.sprintf "cannot be gained at depth <= %d%s" depth
                 at_level)
              ~witness:detail;
          ]
    | Chain_check.Unknown msg -> [ f "chain-unknown" Info target msg ]
  in
  unbound @ ck @ List.concat_map nest_findings (Formula.nests formula)

let fault_findings ~expect g scenario ~label =
  let f = find_ ~expect in
  match
    Faults.Scenario.validate_channels scenario
      ~channels:(Channel_graph.channels g)
  with
  | Ok () -> []
  | Error msg ->
      let sev =
        match Channel_graph.scope g with
        | Channel_graph.Exact -> Error
        | Channel_graph.Up_to_depth _ | Channel_graph.Incomplete -> Warning
      in
      [ f "fault-unknown-channel" sev label msg
          ~hint:"name a channel the spec actually uses, or drop:*" ]

(* -- drivers -------------------------------------------------------------- *)

let lint_spec ?fuel ?(max_states = 60_000) ?(max_probes = 20_000)
    ?(atoms = []) ?(formulas = []) ?(derive = true) ?faults ?(expect = [])
    ~depth ~subject spec =
  Hpl_obs.span "lint" ~args:(fun () -> [ ("subject", subject) ]) @@ fun () ->
  (* fuel = depth suffices for depth-relative claims: a depth-d
     computation contains no local history longer than d, and deeper
     fuel explodes on unbounded specs (the pool keeps growing) *)
  let fuel = match fuel with Some f -> f | None -> max 1 depth in
  let g =
    Hpl_obs.span "lint.extract" (fun () ->
        Channel_graph.extract ~fuel ~max_states spec)
  in
  let loc =
    Hpl_obs.span "lint.locality" (fun () ->
        Locality.probe ~max_probes spec ~depth ~atoms)
  in
  let env name = List.assoc_opt name atoms in
  let asserted = List.map (fun f -> (f, true)) formulas in
  let derived =
    if formulas <> [] || not derive then []
    else
      List.concat_map
        (fun (name, _) ->
          match Locality.local_pids loc name with
          | Some (_ :: _ as ps) when Locality.exhaustive loc ->
              List.filter_map
                (fun q ->
                  if List.mem q ps || not (Channel_graph.active g q) then None
                  else Some (Formula.Know ([ q ], Formula.Atom name), false))
                (List.init (Channel_graph.n g) Fun.id)
          | _ -> [])
        atoms
  in
  let faulty_graph =
    match faults with
    | None -> None
    | Some scenario -> (
        match Faults.Scenario.apply scenario spec with
        | Ok spec' ->
            Some
              (Hpl_obs.span "lint.extract-faulty" (fun () ->
                   Channel_graph.extract ~fuel ~max_states spec'))
        | Error _ -> None)
  in
  (* per-rule-group timing: the cross-check test asserts these child
     spans account for (almost all of) the parent [lint] span *)
  let findings =
    Hpl_obs.span "lint.rules.hygiene" (fun () -> hygiene_findings ~expect g)
    @ Hpl_obs.span "lint.rules.atoms" (fun () -> atom_findings ~expect loc atoms)
    @ Hpl_obs.span "lint.rules.faults" (fun () ->
          match faults with
          | None -> []
          | Some scenario -> (
              fault_findings ~expect g scenario
                ~label:(Faults.Scenario.to_string scenario)
              @
              match Faults.Scenario.apply scenario spec with
              | Ok _ -> []
              | Error msg ->
                  [
                    find_ ~expect "fault-invalid" Error
                      (Faults.Scenario.to_string scenario)
                      (Printf.sprintf "scenario cannot be applied: %s" msg);
                  ]))
    @ Hpl_obs.span "lint.rules.formulas" (fun () ->
          List.concat_map
            (formula_findings ~expect ~env ~depth ~faults ~faulty_graph g loc)
            (asserted @ derived))
  in
  Hpl_obs.count "lint.findings" (List.length findings);
  { subject; depth; findings; graph = g; locality = loc }

let lint_instance ?fuel ?max_states ?max_probes ?(formulas = []) ?faults
    ?depth inst =
  let proto = Protocol.proto inst in
  let depth =
    match depth with Some d -> d | None -> Protocol.depth_of inst
  in
  let expect = Protocol.lint_expect proto in
  let base =
    lint_spec ?fuel ?max_states ?max_probes ~atoms:(Protocol.atoms_of inst)
      ~formulas ?faults ~expect ~depth
      ~subject:(Protocol.instance_name inst)
      (Protocol.spec_of inst)
  in
  (* symmetry hygiene (DESIGN.md §10): declared generators must be spec
     automorphisms — an invalid generator makes symmetry-reduced
     enumeration silently unsound — and a spec that *is* invariant
     under an obvious pid permutation (ring rotation, member swap)
     but declares none is leaving the reduction on the table *)
  let symmetry =
    let spec = Protocol.spec_of inst in
    let n = Spec.n spec in
    let probe = Symmetry.is_automorphism ~depth:3 ~max_states:5_000 spec in
    match Protocol.generators_of inst with
    | _ :: _ as gens ->
        List.filter_map
          (fun pi ->
            if Array.length pi = n && probe pi then None
            else
              Some
                (find_ ~expect "invalid-symmetry" Error (Symmetry.to_string pi)
                   (Printf.sprintf
                      "declared symmetry generator %s is not an automorphism \
                       of the spec: [enabled] fails equivariance at some \
                       computation of depth <= 3"
                      (Symmetry.to_string pi))
                   ~hint:"fix the generator or the spec — an invalid \
                          generator makes --reduce sym unsound"))
          gens
    | [] ->
        if n < 2 then []
        else
          let candidates =
            (if n >= 2 then [ ("ring rotation", Symmetry.rotation n) ] else [])
            @ (if n >= 3 then
                 [ ("member swap", Symmetry.transposition n 1 2) ]
               else [])
            @ [ ("process swap", Symmetry.transposition n 0 1) ]
          in
          let hit =
            List.find_opt (fun (_, pi) -> probe pi) candidates
          in
          (match hit with
          | Some (what, pi) ->
              [
                find_ ~expect "undeclared-symmetry" Warning
                  (Protocol.instance_name inst)
                  (Printf.sprintf
                     "the spec is invariant under the %s %s (probed to depth \
                      3) but declares no symmetry generators"
                     what (Symmetry.to_string pi))
                  ~hint:"declare it via Protocol.make ~symmetry to unlock \
                         --reduce sym";
              ]
          | None -> [])
  in
  (* registry metadata check: every declared fault scenario must parse
     and name real channels *)
  let declared =
    List.concat_map
      (fun s ->
        match Faults.Scenario.parse s with
        | Error msg ->
            [
              find_ ~expect "fault-unparseable" Error s
                (Printf.sprintf "declared fault scenario does not parse: %s"
                   msg);
            ]
        | Ok scenario ->
            fault_findings ~expect base.graph scenario ~label:s)
      (Protocol.fault_scenarios proto)
  in
  { base with findings = base.findings @ symmetry @ declared }

(* -- reporting ------------------------------------------------------------ *)

let gate f = (f.severity = Error || f.severity = Warning) && not f.expected
let clean r = not (List.exists gate r.findings)
let exit_code reports = if List.for_all clean reports then 0 else 1

let pp_finding fmt f =
  Format.fprintf fmt "@[<v2>%-7s %-18s %s: %s%s@]"
    (severity_to_string f.severity)
    f.rule f.target f.message
    (if f.expected then "  [expected]" else "");
  Option.iter (fun w -> Format.fprintf fmt "@,        witness: %s" w) f.witness;
  Option.iter (fun h -> Format.fprintf fmt "@,        hint: %s" h) f.hint

let pp_report fmt r =
  let errs, warns, infos =
    List.fold_left
      (fun (e, w, i) f ->
        match f.severity with
        | Error -> (e + 1, w, i)
        | Warning -> (e, w + 1, i)
        | Info -> (e, w, i + 1))
      (0, 0, 0) r.findings
  in
  let scope =
    match Channel_graph.scope r.graph with
    | Channel_graph.Exact -> "exact"
    | Channel_graph.Up_to_depth d -> Printf.sprintf "sound to depth %d" d
    | Channel_graph.Incomplete -> "incomplete"
  in
  Format.fprintf fmt "@[<v>%s: %d error(s), %d warning(s), %d info — depth %d, graph %s, %d states + %d probes%s@,"
    r.subject errs warns infos r.depth scope
    (Channel_graph.states r.graph)
    (Locality.probes r.locality)
    (if clean r then " — clean" else "");
  List.iter (fun f -> Format.fprintf fmt "  %a@," pp_finding f) r.findings;
  Format.fprintf fmt "@]"
