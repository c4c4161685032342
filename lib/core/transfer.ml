type gain_report = { premise : bool; chain : Event.t list option }
type loss_report = { premise : bool; chain : Event.t list option }

let last_pset psets =
  match List.rev psets with
  | [] -> invalid_arg "Transfer: empty process-set list"
  | pn :: _ -> pn

(* "b at x" for [ext] the extent of b; raises [Not_found] outside [u] *)
let at u ext x = Bitset.mem ext (Universe.find_exn u x)

let nested_at u psets b x =
  at u (Knowledge.nested_ext u psets (Prop.extent u b)) x

let knows_at u ps b x = nested_at u [ ps ] b x

let theorem4 u psets b ~x ~y =
  let pn = last_pset psets in
  let premise =
    nested_at u psets b x
    && Relations.related u psets (Universe.find_exn u x) (Universe.find_exn u y)
  in
  (not premise) || knows_at u pn b y

(* The paper says Theorem 4 "holds with knows replaced by sure". The
   literal replacement of every level is false: at a computation where
   P1 *knows* that P2 is unsure, "P1 sure (P2 sure b)" holds via the
   negative branch while P2 stays unsure (see transfer_tests for the
   concrete counterexample). The sound — and used in §5 — reading keeps
   the outer levels as knowledge and replaces the innermost:
   P1 knows … P(n-1) knows (Pn sure b). *)
let theorem4_sure u psets b ~x ~y =
  let pn = last_pset psets in
  let outer = List.filteri (fun i _ -> i < List.length psets - 1) psets in
  let sure = Knowledge.sure_ext u pn (Prop.extent u b) in
  let premise =
    at u (Knowledge.nested_ext u outer sure) x
    && Relations.related u psets (Universe.find_exn u x) (Universe.find_exn u y)
  in
  (not premise) || at u sure y

let gain_premise u psets b x y =
  let pn = last_pset psets in
  Trace.is_prefix x y
  && (not (knows_at u pn b x))
  && nested_at u psets b y

let explain_gain u psets b ~x ~y =
  let premise = gain_premise u psets b x y in
  let n = Spec.n (Universe.spec u) in
  let chain =
    if premise then Chain.find ~n ~x ~z:y (List.rev psets) else None
  in
  ({ premise; chain } : gain_report)

let theorem5_gain u psets b ~x ~y =
  let r = explain_gain u psets b ~x ~y in
  (not r.premise) || r.chain <> None

let loss_premise u psets b x y =
  let pn = last_pset psets in
  Trace.is_prefix x y
  && nested_at u psets b x
  && not (knows_at u pn b y)

let explain_loss u psets b ~x ~y =
  let premise = loss_premise u psets b x y in
  let n = Spec.n (Universe.spec u) in
  let chain = if premise then Chain.find ~n ~x ~z:y psets else None in
  ({ premise; chain } : loss_report)

let theorem6_loss u psets b ~x ~y =
  let r = explain_loss u psets b ~x ~y in
  (not r.premise) || r.chain <> None

module Lemma4 = struct
  let requires_locality u p b =
    let all = Spec.all (Universe.spec u) in
    Local_pred.is_local u (Pset.compl ~all p) b

  let clause u p b x e ~kind_ok ~implication =
    if not (Event.on e p) then true
    else if not (kind_ok e) then true
    else if not (requires_locality u p b) then true
    else
      let xe = Trace.snoc x e in
      match Universe.find u xe with
      | None -> true (* extension outside the universe: vacuous *)
      | Some _ -> implication (knows_at u p b x) (knows_at u p b xe)

  let receive_no_loss u ~p ~b ~x ~e =
    clause u p b x e ~kind_ok:Event.is_receive ~implication:(fun before after ->
        (not before) || after)

  let send_no_gain u ~p ~b ~x ~e =
    clause u p b x e ~kind_ok:Event.is_send ~implication:(fun before after ->
        (not after) || before)

  let internal_no_change u ~p ~b ~x ~e =
    clause u p b x e ~kind_ok:Event.is_internal ~implication:Bool.equal
end

let corollary_gain_receives u ~p ~b ~x ~y =
  let premise =
    Lemma4.requires_locality u p b && Trace.is_prefix x y
    && (not (knows_at u p b x))
    && knows_at u p b y
  in
  (not premise)
  || List.exists
       (fun e -> Event.on e p && Event.is_receive e)
       (Trace.suffix ~prefix:x y)

let corollary_loss_sends u ~p ~b ~x ~y =
  let premise =
    Lemma4.requires_locality u p b && Trace.is_prefix x y
    && knows_at u p b x
    && not (knows_at u p b y)
  in
  (not premise)
  || List.exists
       (fun e -> Event.on e p && Event.is_send e)
       (Trace.suffix ~prefix:x y)
