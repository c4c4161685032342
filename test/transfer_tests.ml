(* Knowledge transfer: Theorems 4, 5, 6 and Lemma 4 (§4.3). *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool

let p0 = Fixtures.p0
let p1 = Fixtures.p1
let s0 = Pset.singleton p0
let s1 = Pset.singleton p1

let u = Universe.enumerate ~mode:`Full Fixtures.ping_pong ~depth:4
let spec = Fixtures.ping_pong

let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0)

let ping = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"ping"
let pong = Msg.make ~src:p1 ~dst:p0 ~seq:0 ~payload:"pong"
let z_sent = Trace.of_list [ Event.send ~pid:p0 ~lseq:0 ping ]
let z_received = Trace.snoc z_sent (Event.receive ~pid:p1 ~lseq:0 ping)
let z_ponged = Trace.snoc z_received (Event.send ~pid:p1 ~lseq:1 pong)
let z_done = Trace.snoc z_ponged (Event.receive ~pid:p0 ~lseq:1 pong)

let pset_sequences = [ [ s0 ]; [ s1 ]; [ s0; s1 ]; [ s1; s0 ]; [ s0; s1; s0 ] ]
let predicates = [ sent; Prop.not_ sent; Prop.tt; Prop.ff ]

let all_pairs f =
  Universe.iter
    (fun _ x -> Universe.iter (fun _ y -> f x y) u)
    u

let test_theorem4_exhaustive () =
  all_pairs (fun x y ->
      List.iter
        (fun psets ->
          List.iter
            (fun b ->
              check tbool "theorem 4" true (Transfer.theorem4 u psets b ~x ~y))
            predicates)
        pset_sequences)

let test_theorem4_sure_exhaustive () =
  all_pairs (fun x y ->
      List.iter
        (fun psets ->
          check tbool "theorem 4 (sure)" true
            (Transfer.theorem4_sure u psets sent ~x ~y))
        pset_sequences)

let test_theorem5_gain_exhaustive () =
  all_pairs (fun x y ->
      List.iter
        (fun psets ->
          List.iter
            (fun b ->
              check tbool "theorem 5" true (Transfer.theorem5_gain u psets b ~x ~y))
            predicates)
        pset_sequences)

let test_theorem6_loss_exhaustive () =
  all_pairs (fun x y ->
      List.iter
        (fun psets ->
          List.iter
            (fun b ->
              check tbool "theorem 6" true (Transfer.theorem6_loss u psets b ~x ~y))
            predicates)
        pset_sequences)

let test_gain_witness_direction () =
  (* p1 gains knowledge of 'sent' between z_sent and z_received; the
     chain must run <P1> = <p1>... for nested [p0;p1] between ε-ish
     points use the full exchange: ¬(p1 knows sent) at z_sent, and
     (p0 knows p1 knows sent) at z_done ⇒ chain <p1 p0> in the gap. *)
  let r = Transfer.explain_gain u [ s0; s1 ] sent ~x:z_sent ~y:z_done in
  check tbool "premise" true r.Transfer.premise;
  (match r.Transfer.chain with
  | None -> Alcotest.fail "expected chain witness"
  | Some events ->
      (* chain is <Pn ... P1> = <p1 p0> *)
      check tbool "first on p1" true
        (Event.on (List.hd events) s1);
      check tbool "last on p0" true
        (Event.on (List.nth events (List.length events - 1)) s0))

let test_gain_requires_message () =
  (* between z_sent and z_received, p1 learns 'sent': the witness chain
     <p1> is just p1's receive *)
  let r = Transfer.explain_gain u [ s1 ] sent ~x:z_sent ~y:z_received in
  check tbool "premise" true r.Transfer.premise;
  match r.Transfer.chain with
  | Some [ e ] -> check tbool "receive event" true (Event.is_receive e)
  | _ -> Alcotest.fail "expected single-event chain"

let test_sure_literal_replacement_unsound () =
  (* regression: the literal all-sure nesting of Theorem 4 is false.
     At ε, p0 knows p1 is unsure of 'sent', so "p0 sure (p1 sure sent)"
     holds — yet p1 is not sure at ε. *)
  let sure1 = Knowledge.sure_ext u s1 (Prop.extent u sent) in
  let nested_all_sure = Knowledge.sure_ext u s0 sure1 in
  let eps = Universe.find_exn u Trace.empty in
  check tbool "premise holds at ε" true (Bitset.mem nested_all_sure eps);
  check tbool "conclusion fails at ε" false (Bitset.mem sure1 eps)

let test_no_premature_knowledge () =
  (* knowledge gain premise fails when y still lacks the knowledge *)
  let r = Transfer.explain_gain u [ s1 ] sent ~x:Trace.empty ~y:z_sent in
  check tbool "no premise" false r.Transfer.premise

(* -- lemma 4 ----------------------------------------------------------- *)

let test_lemma4_locality_premise () =
  check tbool "sent local to p̄1" true (Transfer.Lemma4.requires_locality u s1 sent);
  check tbool "tt local trivially" true (Transfer.Lemma4.requires_locality u s1 Prop.tt)

let test_lemma4_exhaustive () =
  Universe.iter
    (fun _ x ->
      List.iter
        (fun e ->
          List.iter
            (fun p ->
              List.iter
                (fun b ->
                  check tbool "receive no loss" true
                    (Transfer.Lemma4.receive_no_loss u ~p ~b ~x ~e);
                  check tbool "send no gain" true
                    (Transfer.Lemma4.send_no_gain u ~p ~b ~x ~e);
                  check tbool "internal no change" true
                    (Transfer.Lemma4.internal_no_change u ~p ~b ~x ~e))
                predicates)
            [ s0; s1 ])
        (Spec.enabled spec x))
    u

let test_corollaries_exhaustive () =
  all_pairs (fun x y ->
      List.iter
        (fun (p, b) ->
          check tbool "gain ⇒ receive" true
            (Transfer.corollary_gain_receives u ~p ~b ~x ~y);
          check tbool "loss ⇒ send" true
            (Transfer.corollary_loss_sends u ~p ~b ~x ~y))
        [ (s1, sent); (s0, Prop.make "received" (fun z ->
              List.exists Event.is_receive (Trace.proj z p1))) ])

let test_corollary_gain_concrete () =
  (* p1 gains knowledge of 'sent' (local to p̄1 = {p0}) between z_sent
     and z_received — p1 indeed receives in the gap *)
  check tbool "holds" true
    (Transfer.corollary_gain_receives u ~p:s1 ~b:sent ~x:z_sent ~y:z_received);
  let suffix = Trace.suffix ~prefix:z_sent z_received in
  check tbool "witness receive present" true
    (List.exists (fun e -> Event.is_receive e && Event.on e s1) suffix)

let suite =
  [
    ("theorem 4 exhaustive", `Slow, test_theorem4_exhaustive);
    ("theorem 4 sure", `Slow, test_theorem4_sure_exhaustive);
    ("theorem 5 gain exhaustive", `Slow, test_theorem5_gain_exhaustive);
    ("theorem 6 loss exhaustive", `Slow, test_theorem6_loss_exhaustive);
    ("gain witness direction", `Quick, test_gain_witness_direction);
    ("gain single message", `Quick, test_gain_requires_message);
    ("no premature knowledge", `Quick, test_no_premature_knowledge);
    ("sure literal replacement unsound", `Quick, test_sure_literal_replacement_unsound);
    ("lemma 4 locality", `Quick, test_lemma4_locality_premise);
    ("lemma 4 exhaustive", `Slow, test_lemma4_exhaustive);
    ("corollaries exhaustive", `Slow, test_corollaries_exhaustive);
    ("corollary gain concrete", `Quick, test_corollary_gain_concrete);
  ]
