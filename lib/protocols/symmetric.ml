open Hpl_core

(* Four protocols whose topology is genuinely invariant under a
   pid-permutation group, declared via [Protocol.make ~symmetry] — the
   registry's exercise ground for the reduction layer (DESIGN.md §10).

   Symmetry is easy to break by accident: a hub that contacts members
   in pid order, or an initiator holding a token, distinguishes
   processes and admits no non-trivial automorphism (that is exactly
   what [hpl lint]'s symmetry rules check). The specs here use only
   relative addressing (ring) or unordered choice over interchangeable
   peers (quorum, star-flood, mesh), so the declared generators are
   true automorphisms — validated by [Symmetry.is_automorphism] in the
   registry test suite. *)

let sent_to history q =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Send m -> Pid.to_int m.Msg.dst = q
      | Event.Receive _ | Event.Internal _ -> false)
    history

(* -- ring: rotation symmetry Z_n ---------------------------------------- *)

let ring_spec ~n ~rounds =
  Spec.make ~n (fun p history ->
      let s = Protocol.sends history and r = Protocol.recvs history in
      let right = Pid.of_int ((Pid.to_int p + 1) mod n) in
      (if s < rounds && s <= r then [ Spec.Send_to (right, "r") ] else [])
      @ if r < rounds then [ Spec.Recv_any ] else [])

let all_sent n =
  Prop.make "all_sent" (fun z ->
      List.for_all
        (fun i -> Trace.send_count z (Pid.of_int i) > 0)
        (List.init n Fun.id))

let p_sent name i = Prop.make name (fun z -> Trace.send_count z (Pid.of_int i) > 0)

let ring =
  Protocol.make ~name:"ring"
    ~doc:"each process relays one message per round to its right neighbour"
    ~params:
      [
        Protocol.param ~lo:2 "n" 6 "ring size";
        Protocol.param "rounds" 2 "messages each process sends";
      ]
    ~atoms:(fun vs ->
      [
        ("all_sent", all_sent (Protocol.get vs "n"));
        ("p0_sent", p_sent "p0_sent" 0);
      ])
    ~symmetry:(fun vs -> [ Symmetry.rotation (Protocol.get vs "n") ])
    ~suggested_depth:6
    (fun vs ->
      ring_spec ~n:(Protocol.get vs "n") ~rounds:(Protocol.get vs "rounds"))

(* -- quorum: members interchangeable, S_{n-1} --------------------------- *)

let quorum_spec ~n ~q =
  let collector = Pid.of_int 0 in
  Spec.make ~n (fun p history ->
      if Pid.equal p collector then
        if Protocol.did history "decide" then []
        else if Protocol.recvs history >= q then [ Spec.Do "decide" ]
        else [ Spec.Recv_any ]
      else if Protocol.sends history = 0 then
        [ Spec.Send_to (collector, "yes") ]
      else [])

(* generators of the symmetric group on pids 1..n-1, fixing the
   distinguished process 0 *)
let member_generators n =
  let members = List.init (n - 1) (fun i -> i + 1) in
  match members with
  | [] | [ _ ] -> []
  | [ a; b ] -> [ Symmetry.transposition n a b ]
  | a :: b :: _ -> [ Symmetry.cycle n members; Symmetry.transposition n a b ]

let quorum =
  Protocol.make ~name:"quorum"
    ~doc:"members vote for a fixed collector; decision after q votes"
    ~params:
      [
        Protocol.param ~lo:2 "n" 5 "processes (collector + members)";
        Protocol.param "q" 2 "votes needed to decide";
      ]
    ~atoms:(fun _ ->
      [
        ("decided", Protocol.did_prop "decided" (Pid.of_int 0) "decide");
        ("p1_voted", p_sent "p1_voted" 1);
      ])
    ~symmetry:(fun vs -> member_generators (Protocol.get vs "n"))
    ~suggested_depth:6
    (fun vs ->
      let n = Protocol.get vs "n" in
      let q = min (Protocol.get vs "q") (n - 1) in
      quorum_spec ~n ~q)

(* -- star-flood: hub broadcasts in any order, S_{n-1} ------------------- *)

(* Unlike [Protocol.star_spec] (whose hub contacts members in pid
   order, breaking interchangeability), the hub here offers a send to
   every not-yet-contacted member simultaneously — the enabled set is
   equivariant under member permutations. *)
let star_flood_spec ~n =
  let hub = Pid.of_int 0 in
  Spec.make ~n (fun p history ->
      if Pid.equal p hub then
        let pending =
          List.filter
            (fun q -> not (sent_to history q))
            (List.init (n - 1) (fun i -> i + 1))
        in
        List.map (fun q -> Spec.Send_to (Pid.of_int q, "go")) pending
        @ (if Protocol.recvs history < n - 1 then [ Spec.Recv_any ] else [])
      else if Protocol.recvs history = 0 then [ Spec.Recv_any ]
      else if Protocol.sends history = 0 then [ Spec.Send_to (hub, "ack") ]
      else [])

let star_flood =
  Protocol.make ~name:"star-flood"
    ~doc:"hub floods members in any order; members ack — unordered star"
    ~params:[ Protocol.param ~lo:2 "n" 5 "hub + members" ]
    ~atoms:(fun vs ->
      let n = Protocol.get vs "n" in
      [
        ( "all_acked",
          Prop.make "all_acked" (fun z ->
              Protocol.recvs (Trace.proj z (Pid.of_int 0)) = n - 1) );
        ("p1_acked", p_sent "p1_acked" 1);
      ])
    ~symmetry:(fun vs -> member_generators (Protocol.get vs "n"))
    ~suggested_depth:6
    (fun vs -> star_flood_spec ~n:(Protocol.get vs "n"))

(* -- mesh: full symmetric group S_n ------------------------------------- *)

let mesh_spec ~n =
  Spec.make ~n (fun p history ->
      (if Protocol.sends history = 0 then
         List.filter_map
           (fun q ->
             if q = Pid.to_int p then None
             else Some (Spec.Send_to (Pid.of_int q, "hi")))
           (List.init n Fun.id)
       else [])
      @ if Protocol.recvs history < n - 1 then [ Spec.Recv_any ] else [])

let mesh =
  Protocol.make ~name:"mesh"
    ~doc:"every process greets any one peer; no process distinguished"
    ~params:[ Protocol.param ~lo:2 "n" 4 "processes" ]
    ~atoms:(fun vs ->
      [
        ("all_sent", all_sent (Protocol.get vs "n"));
        ("p0_sent", p_sent "p0_sent" 0);
      ])
    ~symmetry:(fun vs ->
      let n = Protocol.get vs "n" in
      if n = 2 then [ Symmetry.transposition n 0 1 ]
      else
        [ Symmetry.cycle n (List.init n Fun.id); Symmetry.transposition n 0 1 ])
    ~suggested_depth:4
    (fun vs -> mesh_spec ~n:(Protocol.get vs "n"))
