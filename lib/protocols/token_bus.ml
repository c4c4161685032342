open Hpl_core

let token = "token"

(* p's token balance from its own history: +1 initial for p0, +1 per
   receive, -1 per send. p holds iff balance = 1. *)
let balance_of_history p history =
  let init = if Pid.to_int p = 0 then 1 else 0 in
  List.fold_left
    (fun bal e ->
      match e.Event.kind with
      | Event.Send _ -> bal - 1
      | Event.Receive _ -> bal + 1
      | Event.Internal _ -> bal)
    init history

let spec ~n =
  if n < 2 then invalid_arg "Token_bus.spec: need at least two processes";
  Spec.make ~n (fun p history ->
      let i = Pid.to_int p in
      let holds = balance_of_history p history = 1 in
      let passes =
        if not holds then []
        else
          let neighbours =
            (if i > 0 then [ i - 1 ] else []) @ if i < n - 1 then [ i + 1 ] else []
          in
          List.map (fun j -> Spec.Send_to (Pid.of_int j, token)) neighbours
      in
      Spec.Recv_any :: passes)

let holds p =
  Prop.make
    (Printf.sprintf "%s holds token" (Pid.to_string p))
    (fun z -> balance_of_history p (Trace.proj z p) = 1)

let token_in_flight =
  Prop.make "token in flight" (fun z -> Trace.in_flight z <> [])

let exactly_one_holder_or_flight ~n =
  Prop.make "bus invariant" (fun z ->
      let holders =
        List.filter
          (fun i -> balance_of_history (Pid.of_int i) (Trace.proj z (Pid.of_int i)) = 1)
          (List.init n (fun i -> i))
      in
      match (holders, Trace.in_flight z) with
      | [ _ ], [] -> true
      | [], [ _ ] -> true
      | _ -> false)

let holder_at ~n z =
  let holders =
    List.filter
      (fun i -> balance_of_history (Pid.of_int i) (Trace.proj z (Pid.of_int i)) = 1)
      (List.init n (fun i -> i))
  in
  match holders with [ i ] -> Some (Pid.of_int i) | _ -> None

let paper_assertion u =
  if Spec.n (Universe.spec u) <> 5 then
    invalid_arg "Token_bus.paper_assertion: needs the 5-process bus";
  let knows i ext = Knowledge.knows_ext u (Pset.singleton (Pid.of_int i)) ext in
  let not_holds i = Bitset.complement (Prop.extent u (holds (Pid.of_int i))) in
  (* r knows ((q knows ¬(p holds)) ∧ (s knows ¬(t holds))) *)
  knows 2 (Bitset.inter (knows 1 (not_holds 0)) (knows 3 (not_holds 4)))

let check_paper_claim u =
  Bitset.subset (Prop.extent u (holds (Pid.of_int 2))) (paper_assertion u)

(* -- registry ----------------------------------------------------------- *)

let first_pass _ =
  let m =
    Msg.make ~src:(Pid.of_int 0) ~dst:(Pid.of_int 1) ~seq:0 ~payload:token
  in
  Trace.of_list
    [
      Event.send ~pid:(Pid.of_int 0) ~lseq:0 m;
      Event.receive ~pid:(Pid.of_int 1) ~lseq:0 m;
    ]

let protocol =
  Protocol.make ~name:"token-bus"
    ~doc:"\xc2\xa74.1 linear token passing; the paper's nested-knowledge showcase"
    ~params:[ Protocol.param ~lo:2 "n" 5 "bus length" ]
    ~atoms:(fun vs ->
      let n = Protocol.get vs "n" in
      List.init n (fun i -> (Printf.sprintf "holds%d" i, holds (Pid.of_int i)))
      @ [ ("inflight", token_in_flight) ])
    ~canonical_trace:first_pass ~suggested_depth:6
    (fun vs -> spec ~n:(Protocol.get vs "n"))
