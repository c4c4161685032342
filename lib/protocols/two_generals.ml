open Hpl_core

let a = Pid.of_int 0
let b = Pid.of_int 1
let decide_tag = "decide"

(* A: decide, then send "attack"; thereafter acknowledge each received
   message once. B: acknowledge each received message once. A process
   has "pending acknowledgements" when it has received more messages
   than it has replied to (beyond A's initial attack). *)
let spec =
  Spec.make ~n:2 (fun p history ->
      let decided =
        List.exists
          (fun e ->
            match e.Event.kind with
            | Event.Internal t -> String.equal t decide_tag
            | _ -> false)
          history
      in
      let sends =
        List.length (List.filter Event.is_send history)
      in
      let recvs = List.length (List.filter Event.is_receive history) in
      if Pid.equal p a then
        if not decided then [ Spec.Do decide_tag ]
        else if sends = 0 then
          (* first send is the attack order *)
          [ Spec.Send_to (b, "attack"); Spec.Recv_any ]
        else begin
          (* afterwards reply once per received ack *)
          let replies_owed = recvs - (sends - 1) in
          (if replies_owed > 0 then [ Spec.Send_to (b, "ack") ] else [])
          @ [ Spec.Recv_any ]
        end
      else begin
        let replies_owed = recvs - sends in
        (if replies_owed > 0 then [ Spec.Send_to (a, "ack") ] else [])
        @ [ Spec.Recv_any ]
      end)

let attack_decided =
  Prop.make "attack decided" (fun z ->
      List.exists
        (fun e ->
          match e.Event.kind with
          | Event.Internal t -> String.equal t decide_tag
          | _ -> false)
        (Trace.proj z a))

(* rung [k] of the ladder from rung [k - 1]: B knows at odd rungs, A at
   even ones *)
let rung u k inner =
  Knowledge.knows_ext u (Pset.singleton (if k mod 2 = 1 then b else a)) inner

let knowledge_ladder u ~depth =
  let rec build k =
    if k = 0 then Prop.extent u attack_decided else rung u k (build (k - 1))
  in
  build depth

let ladder_trace ~rounds =
  (* decide; attack delivered; then alternating acks, all delivered *)
  let rec go k trace a_sends b_sends a_recvs b_recvs =
    if k >= rounds then trace
    else if k mod 2 = 0 then begin
      (* A -> B *)
      let payload = if k = 0 then "attack" else "ack" in
      let m = Msg.make ~src:a ~dst:b ~seq:a_sends ~payload in
      let lseq_a = 1 + a_sends + a_recvs in
      let lseq_b = b_sends + b_recvs in
      let trace =
        Trace.append trace
          [ Event.send ~pid:a ~lseq:lseq_a m; Event.receive ~pid:b ~lseq:lseq_b m ]
      in
      go (k + 1) trace (a_sends + 1) b_sends a_recvs (b_recvs + 1)
    end
    else begin
      (* B -> A *)
      let m = Msg.make ~src:b ~dst:a ~seq:b_sends ~payload:"ack" in
      let lseq_b = b_sends + b_recvs in
      let lseq_a = 1 + a_sends + a_recvs in
      let trace =
        Trace.append trace
          [ Event.send ~pid:b ~lseq:lseq_b m; Event.receive ~pid:a ~lseq:lseq_a m ]
      in
      go (k + 1) trace a_sends (b_sends + 1) (a_recvs + 1) b_recvs
    end
  in
  go 0 (Trace.of_list [ Event.internal ~pid:a ~lseq:0 decide_tag ]) 0 0 0 0

let max_depth_at u z =
  let i = Universe.find_exn u z in
  let rec go k inner =
    if k > Universe.depth u then k - 1
    else
      let ladder = rung u k inner in
      if Bitset.mem ladder i then go (k + 1) ladder else k - 1
  in
  go 1 (knowledge_ladder u ~depth:0)

let common_knowledge_never u =
  Bitset.is_empty (Common_knowledge.common_ext u (Prop.extent u attack_decided))

(* -- registry ----------------------------------------------------------- *)

let protocol =
  Protocol.make ~name:"two-generals"
    ~doc:"coordinated attack: a knowledge ladder that never reaches CK"
    ~atoms:(fun _ -> [ ("attack", attack_decided) ])
    ~canonical_trace:(fun _ -> ladder_trace ~rounds:2)
    ~suggested_depth:6
    ~fault_scenarios:[ "drop:p0->p1"; "drop:*"; "crash:p1@2" ]
    (fun _ -> spec)
