(* The knowledge debugger (Explain) and CTL expansion-law properties. *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let p0 = Fixtures.p0
let p1 = Fixtures.p1
let s0 = Pset.singleton p0
let s1 = Pset.singleton p1

let u = Universe.enumerate ~mode:`Full Fixtures.ping_pong ~depth:4
let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0)

let ping = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"ping"
let pong = Msg.make ~src:p1 ~dst:p0 ~seq:0 ~payload:"pong"
let z_sent = Trace.of_list [ Event.send ~pid:p0 ~lseq:0 ping ]
let z_received = Trace.snoc z_sent (Event.receive ~pid:p1 ~lseq:0 ping)

let z_done =
  Trace.snoc
    (Trace.snoc z_received (Event.send ~pid:p1 ~lseq:1 pong))
    (Event.receive ~pid:p0 ~lseq:1 pong)

let test_gain_report () =
  match Explain.gain u [ s1 ] sent ~x:z_sent ~y:z_received with
  | None -> Alcotest.fail "expected a gain report"
  | Some r ->
      check tbool "gained" true r.Explain.gained;
      check tint "one step" 1 (List.length r.Explain.steps);
      check tbool "step is the receive" true
        (Event.is_receive (List.hd r.Explain.steps).Explain.event);
      check tbool "narrative nonempty" true (List.length r.Explain.narrative >= 2);
      (* the narrative mentions the payload *)
      let text = String.concat "\n" r.Explain.narrative in
      let contains_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check tbool "mentions ping" true (contains_sub text "ping")

let test_gain_nested_report () =
  match Explain.gain u [ s0; s1 ] sent ~x:Trace.empty ~y:z_done with
  | None -> Alcotest.fail "expected nested gain"
  | Some r ->
      check tbool "gained" true r.Explain.gained;
      (* chain <p1 p0>: first step on p1, last on p0 *)
      let first = List.hd r.Explain.steps and last = List.nth r.Explain.steps (List.length r.Explain.steps - 1) in
      check tbool "starts at p1" true (Pid.equal first.Explain.event.Event.pid p1);
      check tbool "ends at p0" true (Pid.equal last.Explain.event.Event.pid p0)

let test_no_report_without_premise () =
  check tbool "no gain to explain" true
    (Explain.gain u [ s1 ] sent ~x:Trace.empty ~y:z_sent = None)

let test_learning_moments () =
  let moments = Explain.learning_moments u s1 sent z_done in
  (* p1 learns 'sent' exactly once, at its receive (position 1) *)
  check Alcotest.(list (pair int bool)) "one gain at the receive" [ (1, true) ]
    moments;
  (* p0 knows from its own send: moment at position 0 *)
  let m0 = Explain.learning_moments u s0 sent z_done in
  check Alcotest.(list (pair int bool)) "p0 at the send" [ (0, true) ] m0

let test_pp_smoke () =
  match Explain.gain u [ s1 ] sent ~x:z_sent ~y:z_received with
  | Some r ->
      let str = Format.asprintf "%a" Explain.pp r in
      check tbool "renders" true (String.length str > 10)
  | None -> Alcotest.fail "expected report"

(* -- CTL expansion laws (property checks) ------------------------------- *)

let received =
  Prop.make "received" (fun z -> List.exists Event.is_receive (Trace.proj z p1))

let props = [ sent; received; Prop.and_ sent received ]

let test_ctl_ef_expansion () =
  (* EF φ = φ ∨ EX EF φ *)
  List.iter
    (fun b ->
      let phi = Prop.extent u b in
      let lhs = Temporal.ef u phi in
      let rhs = Bitset.union phi (Temporal.ex u (Temporal.ef u phi)) in
      check tbool "EF expansion" true (Bitset.equal lhs rhs))
    props

let test_ctl_af_expansion () =
  (* AF φ = φ ∨ (has-successor ∧ AX AF φ); on finite trees leaves must
     satisfy φ itself *)
  List.iter
    (fun b ->
      let phi = Prop.extent u b in
      let lhs = Temporal.af u phi in
      let has_succ = Temporal.ex u (Bitset.create_full (Universe.size u)) in
      let rhs =
        Bitset.union phi
          (Bitset.inter has_succ (Temporal.ax u (Temporal.af u phi)))
      in
      check tbool "AF expansion" true (Bitset.equal lhs rhs))
    props

let test_ctl_ag_duality () =
  List.iter
    (fun b ->
      let phi = Prop.extent u b in
      let lhs = Temporal.ag u phi in
      let rhs = Bitset.complement (Temporal.ef u (Bitset.complement phi)) in
      check tbool "AG = ¬EF¬" true (Bitset.equal lhs rhs))
    props

let test_ctl_monotonicity () =
  (* φ ⊆ ψ pointwise ⇒ EF φ ⊆ EF ψ and AG φ ⊆ AG ψ *)
  let phi = Prop.extent u (Prop.and_ sent received) in
  let psi = Prop.extent u sent in
  check tbool "EF monotone" true
    (Bitset.subset (Temporal.ef u phi) (Temporal.ef u psi));
  check tbool "AG monotone" true
    (Bitset.subset (Temporal.ag u phi) (Temporal.ag u psi))

let suite =
  [
    ("gain report", `Quick, test_gain_report);
    ("nested gain report", `Quick, test_gain_nested_report);
    ("no premise, no report", `Quick, test_no_report_without_premise);
    ("learning moments", `Quick, test_learning_moments);
    ("pp smoke", `Quick, test_pp_smoke);
    ("CTL EF expansion", `Quick, test_ctl_ef_expansion);
    ("CTL AF expansion", `Quick, test_ctl_af_expansion);
    ("CTL AG duality", `Quick, test_ctl_ag_duality);
    ("CTL monotonicity", `Quick, test_ctl_monotonicity);
  ]
