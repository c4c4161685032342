(* Knowledge, local predicates and common knowledge (§4.1–4.2). *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let p0 = Fixtures.p0
let p1 = Fixtures.p1
let s0 = Pset.singleton p0
let s1 = Pset.singleton p1
let d = Pset.all 2

let u = Universe.enumerate ~mode:`Full Fixtures.ping_pong ~depth:4

(* "ping has been sent" — local to p0 (it is p0's own action) *)
let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0)

(* "ping has been received by p1" — local to p1 *)
let received =
  Prop.make "received" (fun z ->
      List.exists (fun e -> Event.is_receive e) (Trace.proj z p1))

let ping = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"ping"
let pong = Msg.make ~src:p1 ~dst:p0 ~seq:0 ~payload:"pong"
let z_sent = Trace.of_list [ Event.send ~pid:p0 ~lseq:0 ping ]
let z_received = Trace.snoc z_sent (Event.receive ~pid:p1 ~lseq:0 ping)
let z_ponged = Trace.snoc z_received (Event.send ~pid:p1 ~lseq:1 pong)
let z_done = Trace.snoc z_ponged (Event.receive ~pid:p0 ~lseq:1 pong)

let sent_ext = Prop.extent u sent

(* "b at z" for [ext] the extent of b *)
let at ext z = Bitset.mem ext (Universe.find_exn u z)

let test_knows_progression () =
  let k0 = Knowledge.knows_ext u s0 sent_ext in
  let k1 = Knowledge.knows_ext u s1 sent_ext in
  (* p0 knows it sent, immediately *)
  check tbool "p0 knows at z_sent" true (at k0 z_sent);
  (* p1 does not know yet *)
  check tbool "p1 ignorant at z_sent" false (at k1 z_sent);
  (* after receiving, p1 knows *)
  check tbool "p1 knows at z_received" true (at k1 z_received);
  (* nobody knows at the start (it is false) *)
  check tbool "not known at ε" false (at k0 Trace.empty)

let test_nested_knowledge () =
  (* after the pong returns, p0 knows p1 knows the ping was sent *)
  let k01 = Knowledge.nested_ext u [ s0; s1 ] sent_ext in
  check tbool "¬ nested at z_received" false (at k01 z_received);
  check tbool "nested at z_done" true (at k01 z_done);
  (* and p1 knows p0 knows it — that already holds when p1 receives,
     because the ping's existence implies p0 sent it *)
  let k10 = Knowledge.nested_ext u [ s1; s0 ] sent_ext in
  check tbool "p1 knows p0 knows at z_received" true (at k10 z_received)

let test_nested_empty_is_b () =
  let n = Knowledge.nested_ext u [] sent_ext in
  Universe.iter
    (fun i z -> check tbool "identity" (Prop.eval sent z) (Bitset.mem n i))
    u

let test_sure_unsure () =
  let sure0 = Knowledge.sure_ext u s0 sent_ext in
  let sure1 = Knowledge.sure_ext u s1 sent_ext in
  (* p0 always sure about its own action *)
  Universe.iter (fun i _ -> check tbool "p0 sure" true (Bitset.mem sure0 i)) u;
  (* p1 unsure right after the send *)
  check tbool "p1 unsure at z_sent" false (at sure1 z_sent);
  check tbool "p1 sure at z_received" true (at sure1 z_received);
  let unsure1 = Bitset.complement sure1 in
  check tbool "unsure is negation" true (at unsure1 z_sent)

let test_naive_agrees () =
  List.iter
    (fun ps ->
      List.iter
        (fun b ->
          let ext = Prop.extent u b in
          check tbool "naive = indexed" true
            (Bitset.equal (Knowledge.knows_ext u ps ext)
               (Knowledge.knows_ext_naive u ps ext)))
        [ sent; received; Prop.tt; Prop.ff ])
    [ s0; s1; d; Pset.empty ]

let test_nested_naive_agrees () =
  (* past the first level the indexed operator is fed knowledge extents,
     not predicate extents; the naive one must agree at every level *)
  List.iter
    (fun b ->
      let ext = Prop.extent u b in
      List.iter
        (fun chain ->
          check tbool "nested naive = indexed" true
            (Bitset.equal (Knowledge.nested_ext u chain ext)
               (List.fold_right
                  (fun ps acc -> Knowledge.knows_ext_naive u ps acc)
                  chain ext)))
        [ [ s0; s1 ]; [ s1; s0 ]; [ s1; s0; s1 ]; [ d; s0 ]; [ Pset.empty; s1 ] ])
    [ sent; received; Prop.and_ sent received ]

(* -- the twelve knowledge facts -------------------------------------- *)

let props = [ sent; received; Prop.tt; Prop.ff; Prop.and_ sent received ]
let psets = [ s0; s1; d; Pset.empty ]

let forall_ps f = List.iter (fun ps -> List.iter (f ps) props) psets

let test_fact1 () =
  forall_ps (fun ps b ->
      check tbool "fact1" true (Knowledge.Laws.fact1_class_invariant u ps b))

let test_fact3 () =
  List.iter
    (fun b ->
      check tbool "fact3" true (Knowledge.Laws.fact3_monotone_union u s0 s1 b))
    props

let test_fact4 () =
  forall_ps (fun ps b ->
      check tbool "fact4" true (Knowledge.Laws.fact4_veridical u ps b))

let test_fact5 () =
  forall_ps (fun ps b -> check tbool "fact5" true (Knowledge.Laws.fact5_total u ps b))

let test_fact6 () =
  forall_ps (fun ps b ->
      check tbool "fact6" true (Knowledge.Laws.fact6_conjunction u ps b received))

let test_fact7 () =
  forall_ps (fun ps b ->
      check tbool "fact7" true (Knowledge.Laws.fact7_disjunction u ps b received))

let test_fact8 () =
  forall_ps (fun ps b ->
      check tbool "fact8" true (Knowledge.Laws.fact8_consistency u ps b))

let test_fact9 () =
  forall_ps (fun ps b ->
      check tbool "fact9" true
        (Knowledge.Laws.fact9_closure u ps b (Prop.or_ b received)))

let test_fact10 () =
  forall_ps (fun ps b ->
      check tbool "fact10" true (Knowledge.Laws.fact10_positive_introspection u ps b))

let test_fact11 () =
  forall_ps (fun ps b ->
      check tbool "fact11 (lemma 2)" true
        (Knowledge.Laws.fact11_negative_introspection u ps b))

let test_fact12 () =
  List.iter
    (fun ps ->
      check tbool "fact12 true" true (Knowledge.Laws.fact12_constants u ps true);
      check tbool "fact12 false" true (Knowledge.Laws.fact12_constants u ps false))
    psets

(* -- local predicates -------------------------------------------------- *)

let test_locality () =
  check tbool "sent local to p0" true (Local_pred.is_local u s0 sent);
  check tbool "received local to p1" true (Local_pred.is_local u s1 received);
  check tbool "sent not local to p1" false (Local_pred.is_local u s1 sent);
  check tbool "everything local to D" true (Local_pred.is_local u d sent);
  check tbool "constants local to anyone" true (Local_pred.is_local u Pset.empty Prop.tt)

let test_local_facts () =
  let pairs = [ (s0, sent); (s1, received); (d, sent) ] in
  List.iter
    (fun (ps, b) ->
      check tbool "fact1" true (Local_pred.Facts.fact1_iso_invariant u ps b);
      check tbool "fact2" true (Local_pred.Facts.fact2_known u ps b);
      check tbool "fact3" true (Local_pred.Facts.fact3_negation u ps b);
      check tbool "fact5" true (Local_pred.Facts.fact5_knows_is_local u ps b);
      check tbool "fact8" true (Local_pred.Facts.fact8_sure_is_local u ps b))
    pairs;
  check tbool "fact4 collapse" true
    (Local_pred.Facts.fact4_knowledge_collapse u s0 s1 sent);
  check tbool "fact7 constants" true
    (Local_pred.Facts.fact7_constants_local u s0 true)

let test_lemma3 () =
  (* non-constant predicate local to disjoint sets cannot exist; the
     checker must hold on every (P, Q, b) instance *)
  List.iter
    (fun b ->
      check tbool "lemma3" true (Local_pred.lemma3_constant u s0 s1 b))
    props;
  (* positive instance: constants are local to both *)
  check tbool "lemma3 constant" true (Local_pred.lemma3_constant u s0 s1 Prop.tt)

let test_identical_knowledge () =
  List.iter
    (fun b ->
      check tbool "identical knows" true
        (Local_pred.identical_knowledge_constant u s0 s1 b);
      check tbool "identical sure" true
        (Local_pred.identical_sure_constant u s0 s1 b))
    props

(* -- common knowledge -------------------------------------------------- *)

let test_common_knowledge_constant () =
  List.iter
    (fun b ->
      check tbool "CK constant" true (Common_knowledge.constancy_holds u b))
    props

let test_common_knowledge_of_tt () =
  let ck = Common_knowledge.common_ext u (Prop.extent u Prop.tt) in
  Universe.iter (fun i _ -> check tbool "CK(true) holds" true (Bitset.mem ck i)) u

let test_common_knowledge_of_contingent_is_false () =
  (* 'sent' is contingent, so its CK must be constantly false *)
  let ck = Common_knowledge.common_ext u sent_ext in
  Universe.iter (fun i _ -> check tbool "CK(sent) false" false (Bitset.mem ck i)) u

let test_level_approximations () =
  (* E^k chain is decreasing and contains the fixpoint *)
  let ck = Common_knowledge.common_ext u sent_ext in
  let prev = ref (Group.e_iterate u d 0 sent_ext) in
  for k = 1 to 4 do
    let cur = Group.e_iterate u d k sent_ext in
    check tbool "decreasing" true (Bitset.subset cur !prev);
    check tbool "contains gfp" true (Bitset.subset ck cur);
    prev := cur
  done

let test_iterations_reported () =
  check tbool "≥1 iteration for contingent" true
    (Common_knowledge.iterations_to_fixpoint u sent >= 1);
  check tint "tt converges immediately" 0
    (Common_knowledge.iterations_to_fixpoint u Prop.tt)

let suite =
  [
    ("knows progression", `Quick, test_knows_progression);
    ("nested knowledge", `Quick, test_nested_knowledge);
    ("nested [] = b", `Quick, test_nested_empty_is_b);
    ("sure/unsure", `Quick, test_sure_unsure);
    ("nested naive = indexed", `Quick, test_nested_naive_agrees);
    ("naive = indexed", `Quick, test_naive_agrees);
    ("fact 1+2", `Quick, test_fact1);
    ("fact 3", `Quick, test_fact3);
    ("fact 4", `Quick, test_fact4);
    ("fact 5", `Quick, test_fact5);
    ("fact 6", `Quick, test_fact6);
    ("fact 7", `Quick, test_fact7);
    ("fact 8", `Quick, test_fact8);
    ("fact 9", `Quick, test_fact9);
    ("fact 10", `Quick, test_fact10);
    ("fact 11 (lemma 2)", `Quick, test_fact11);
    ("fact 12", `Quick, test_fact12);
    ("locality", `Quick, test_locality);
    ("local facts", `Quick, test_local_facts);
    ("lemma 3", `Quick, test_lemma3);
    ("identical knowledge corollaries", `Quick, test_identical_knowledge);
    ("CK constancy", `Quick, test_common_knowledge_constant);
    ("CK of true", `Quick, test_common_knowledge_of_tt);
    ("CK of contingent", `Quick, test_common_knowledge_of_contingent_is_false);
    ("CK level approximations", `Quick, test_level_approximations);
    ("CK iterations", `Quick, test_iterations_reported);
  ]
