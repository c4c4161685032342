(* CTL over computation universes. *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool

let p0 = Fixtures.p0
let p1 = Fixtures.p1
let u = Universe.enumerate ~mode:`Full Fixtures.ping_pong ~depth:4

let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0)

let received =
  Prop.make "received" (fun z -> List.exists Event.is_receive (Trace.proj z p1))

let s_sent = Prop.extent u sent
let s_received = Prop.extent u received
let full u = Bitset.create_full (Universe.size u)
let none u = Bitset.create (Universe.size u)
let valid u s = Bitset.equal s (full u)
let holds_at u s z = Bitset.mem s (Universe.find_exn u z)
let initially u s = holds_at u s Trace.empty

let test_boolean_layer () =
  let env = function
    | "sent" -> Some sent
    | "received" -> Some received
    | _ -> None
  in
  let eval s =
    match Formula.eval u ~env (Result.get_ok (Formula.parse s)) with
    | Ok ext -> ext
    | Error e -> Alcotest.failf "eval %S: %s" s e
  in
  check tbool "tt valid" true (valid u (eval "true"));
  check tbool "ff nowhere" true (Bitset.is_empty (eval "false"));
  check tbool "not ff = tt" true (valid u (eval "~false"));
  check tbool "and" true (valid u (eval "sent | ~sent"))

let test_ef_initial () =
  (* from the start, the send is eventually possible *)
  check tbool "EF sent" true (initially u (Temporal.ef u s_sent));
  check tbool "EF received" true (initially u (Temporal.ef u s_received));
  (* but not yet true *)
  check tbool "¬sent initially" false (initially u s_sent)

let test_af_initial () =
  (* ping-pong has a single maximal behaviour: the send is inevitable *)
  check tbool "AF sent" true (initially u (Temporal.af u s_sent));
  check tbool "AF received" true (initially u (Temporal.af u s_received))

let test_ag_stability () =
  (* 'sent' is stable: once true, always true — AG(sent ⇒ AG sent) *)
  check tbool "sent stable" true
    (Bitset.subset s_sent (Temporal.ag u s_sent));
  (* knowledge of a stable local fact is stable here too *)
  let k1 = Knowledge.knows_ext u (Pset.singleton p1) s_sent in
  check tbool "p1 knowledge stable" true (Bitset.subset k1 (Temporal.ag u k1))

let test_ex_ax () =
  (* at ε the only extension is the send *)
  check tbool "EX sent at ε" true (initially u (Temporal.ex u s_sent));
  check tbool "AX sent at ε" true (initially u (Temporal.ax u s_sent));
  (* at a leaf, AX ff is vacuously true and EX tt false *)
  let leaf =
    Universe.fold
      (fun _ z acc -> if Trace.length z = 4 then Some z else acc)
      u None
  in
  match leaf with
  | None -> Alcotest.fail "expected a depth-4 computation"
  | Some z ->
      check tbool "AX ff at leaf" true (holds_at u (Temporal.ax u (none u)) z);
      check tbool "EX tt at leaf" false (holds_at u (Temporal.ex u (full u)) z)

let test_until () =
  (* ¬received holds until sent — along every path *)
  check tbool "A[¬recv U sent]" true
    (initially u (Temporal.au u (Bitset.complement s_received) s_sent));
  (* E[tt U received] = EF received *)
  check tbool "EU = EF" true
    (Bitset.equal
       (Temporal.eu u (full u) s_received)
       (Temporal.ef u s_received))

let test_eg () =
  (* some path keeps ¬received forever? no: the only maximal run
     delivers — wait, the message may stay in flight only if the run
     stalls, but maximal paths here deliver; EG ¬received must fail at
     computations where delivery is inevitable. At ε the single run
     reaches received, so EG ¬received fails... only if every maximal
     path hits received. After the send, the only enabled event is the
     receive, so yes. *)
  check tbool "EG ¬received fails at ε" false
    (initially u (Temporal.eg u (Bitset.complement s_received)))

let test_token_bus_ag_claim () =
  (* the paper's §4.1 claim as a CTL invariant *)
  let ub = Universe.enumerate ~mode:`Canonical (Hpl_protocols.Token_bus.spec ~n:5) ~depth:8 in
  let r_holds = Prop.extent ub (Hpl_protocols.Token_bus.holds (Pid.of_int 2)) in
  let assertion = Hpl_protocols.Token_bus.paper_assertion ub in
  check tbool "AG (r holds ⇒ assertion)" true
    (valid ub (Bitset.union (Bitset.complement r_holds) assertion));
  (* and r can actually get the token: EF r_holds *)
  check tbool "EF r holds" true (initially ub (Temporal.ef ub r_holds))

let test_canonical_dag () =
  (* CTL works on the canonical quotient too (prefix DAG) *)
  let uc = Universe.enumerate ~mode:`Canonical Fixtures.indep ~depth:4 in
  let a_done =
    Prop.extent uc (Prop.make "both moved" (fun z -> Trace.length z = 2))
  in
  check tbool "AF both" true (initially uc (Temporal.af uc a_done))

(* -- the extension relation against its definition ------------------------

   [Universe.successors] reads the edges off the projection trie in
   canonical mode; here every variant of every registry universe is held
   to the definition read literally: the stored class of (z;e) for every
   e in Spec.enabled z. *)

let definitional_successors u =
  let spec = Universe.spec u in
  Array.init (Universe.size u) (fun i ->
      let z = Universe.comp u i in
      List.filter_map
        (fun e -> Universe.find u (Trace.snoc z e))
        (Spec.enabled spec z)
      |> List.sort_uniq Int.compare |> Array.of_list)

let check_successors what u =
  check
    Alcotest.(array (array int))
    (what ^ ": successors = definition")
    (definitional_successors u) (Universe.successors u)

let query_universe ?faults ?max_states ?(mode = `Canonical) ?(reduce = "none")
    ?(indep = false) proto ~depth =
  let get = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" proto e
  in
  let st =
    get
      (Hpl_serve.Query.resolve ~proto ~depth:(string_of_int depth) ?faults
         ?max_states ())
  in
  let reduce = get (Hpl_serve.Query.resolve_reduce st ~mode ~indep reduce) in
  (st, Hpl_serve.Query.enumerate ~mode st ~reduce)

let roundtrip st u =
  match Universe.serialize u with
  | Error e -> Alcotest.failf "serialize: %s" e
  | Ok body -> (
      match Universe.deserialize st.Hpl_serve.Query.spec body with
      | Ok u' -> u'
      | Error e -> Alcotest.failf "deserialize: %s" e)

let test_successors_registry () =
  Hpl_protocols.Builtins.init ();
  List.iter
    (fun proto ->
      let inst = Hpl_protocols.Protocol.default_instance proto in
      let name = Hpl_protocols.Protocol.instance_name inst in
      let depth = min 5 (Hpl_protocols.Protocol.depth_of inst) in
      let variant what ?faults ?max_states ?mode ?reduce ?indep () =
        let st, u =
          query_universe ?faults ?max_states ?mode ?reduce ?indep name ~depth
        in
        check_successors (Printf.sprintf "%s %s" name what) u;
        (st, u)
      in
      let st, u = variant "unreduced" () in
      check_successors (name ^ " round-tripped") (roundtrip st u);
      ignore (variant "por" ~reduce:"por" ());
      ignore (variant "por+indep" ~reduce:"por" ~indep:true ());
      ignore (variant "full mode" ~mode:`Full ~max_states:"3000" ());
      let half = string_of_int (max 1 (Universe.size u / 2)) in
      let st, ut = variant "truncated" ~max_states:half () in
      check_successors (name ^ " truncated, round-tripped") (roundtrip st ut);
      List.iter
        (fun f -> ignore (variant f ~faults:f ~max_states:"3000" ()))
        [ "crash-any:1"; "drop:*"; "dup:*" ])
    (Hpl_protocols.Protocol.Registry.list ())

(* por+indep at a depth where the static independence relation applies
   and really prunes (DESIGN.md §13: quorum:5:2 goes from 144 to 87) *)
let test_successors_indep_pruned () =
  Hpl_protocols.Builtins.init ();
  let _, u0 = query_universe "quorum:5:2" ~depth:9 in
  let _, u = query_universe "quorum:5:2" ~depth:9 ~reduce:"por" ~indep:true in
  check tbool "independence pruned" true (Universe.size u < Universe.size u0);
  check_successors "quorum:5:2 por+indep" u

(* A state budget cuts ring mid-level: a stored computation below the
   depth bound whose extensions were never stored is a leaf of the
   universe, so EX true fails first exactly there. *)
let test_truncated_missing_successor () =
  Hpl_protocols.Builtins.init ();
  let _, u = query_universe "ring" ~depth:6 ~max_states:"40" in
  let succ = Universe.successors u in
  let leaf =
    let rec first i = if Array.length succ.(i) = 0 then i else first (i + 1) in
    first 0
  in
  let z = Universe.comp u leaf in
  check tbool "cut below the depth bound" true (Trace.length z < 6);
  check tbool "its extensions exist but are not stored" true
    (Spec.enabled (Universe.spec u) z <> []
    && (definitional_successors u).(leaf) = [||]);
  let f = Result.get_ok (Formula.parse "EX true") in
  match Formula.check u ~env:(fun _ -> None) f with
  | Ok (`Fails_at w) ->
      check tbool "EX true fails at the cut" true (Trace.equal w z)
  | Ok `Valid -> Alcotest.fail "EX true valid on a truncated universe"
  | Error e -> Alcotest.fail e

let suite =
  [
    ("boolean layer", `Quick, test_boolean_layer);
    ("EF from start", `Quick, test_ef_initial);
    ("AF inevitability", `Quick, test_af_initial);
    ("AG stability", `Quick, test_ag_stability);
    ("EX/AX and leaves", `Quick, test_ex_ax);
    ("until operators", `Quick, test_until);
    ("EG", `Quick, test_eg);
    ("token bus as AG invariant", `Quick, test_token_bus_ag_claim);
    ("canonical DAG", `Quick, test_canonical_dag);
    ("successors = definition, registry-wide", `Quick, test_successors_registry);
    ("successors under por+indep pruning", `Quick, test_successors_indep_pruned);
    ("truncated: missing successor is a leaf", `Quick,
      test_truncated_missing_successor);
  ]
