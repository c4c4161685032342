(* Small systems shared across test suites. *)
open Hpl_core

let p0 = Pid.of_int 0
let p1 = Pid.of_int 1
let p2 = Pid.of_int 2

(* One message: p0 sends "m" to p1 once; p1 is always willing to receive. *)
let one_msg =
  Spec.make ~n:2 (fun p history ->
      if Pid.equal p p0 then
        if history = [] then [ Spec.Send_to (p1, "m") ] else []
      else [ Spec.Recv_any ])

(* Two independent internal events: p0 does "a" once, p1 does "b" once. *)
let indep =
  Spec.make ~n:2 (fun p history ->
      if history <> [] then []
      else if Pid.equal p p0 then [ Spec.Do "a" ]
      else [ Spec.Do "b" ])

(* Each of [n] processes performs [k] internal ticks. *)
let ticks ~n ~k =
  Spec.make ~n (fun _ history ->
      if List.length history < k then [ Spec.Do "tick" ] else [])

(* A ping-pong: p0 sends "ping", p1 replies "pong" after receiving. *)
let ping_pong =
  Spec.make ~n:2 (fun p history ->
      if Pid.equal p p0 then
        match history with
        | [] -> [ Spec.Send_to (p1, "ping") ]
        | _ -> [ Spec.Recv_any ]
      else
        match history with
        | [] -> [ Spec.Recv_any ]
        | [ _ ] -> [ Spec.Send_to (p0, "pong") ]
        | _ -> [])

(* -- reference readings of the builtins defined by .hpl text ------------

   The registry's ping-pong, ring, quorum, star-flood and mesh are
   elaborated from corpus/specs. [ping_pong] above and the rules and
   atoms below are an independent hand-written reading of the same five
   protocols; dsl_tests compares every registry entry against them. *)

let sends history = List.length (List.filter Event.is_send history)
let recvs history = List.length (List.filter Event.is_receive history)

let did history tag =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Internal t -> String.equal t tag
      | Event.Send _ | Event.Receive _ -> false)
    history

let sent_to history q =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Send m -> Pid.to_int m.Msg.dst = q
      | Event.Receive _ | Event.Internal _ -> false)
    history

(* ring: each process relays [rounds] messages to its right neighbour,
   never more sends than receives *)
let ring ~n ~rounds =
  Spec.make ~n (fun p history ->
      let s = sends history and r = recvs history in
      let right = Pid.of_int ((Pid.to_int p + 1) mod n) in
      (if s < rounds && s <= r then [ Spec.Send_to (right, "r") ] else [])
      @ if r < rounds then [ Spec.Recv_any ] else [])

(* quorum: members vote once for collector 0, which decides after [q]
   votes *)
let quorum ~n ~q =
  Spec.make ~n (fun p history ->
      if Pid.equal p p0 then
        if did history "decide" then []
        else if recvs history >= q then [ Spec.Do "decide" ]
        else [ Spec.Recv_any ]
      else if sends history = 0 then [ Spec.Send_to (p0, "yes") ]
      else [])

(* star-flood: hub 0 offers a "go" to every member it has not contacted
   yet, in any order; each member acks once *)
let star_flood ~n =
  Spec.make ~n (fun p history ->
      if Pid.equal p p0 then
        List.filter_map
          (fun q ->
            if sent_to history q then None
            else Some (Spec.Send_to (Pid.of_int q, "go")))
          (List.init (n - 1) (fun i -> i + 1))
        @ if recvs history < n - 1 then [ Spec.Recv_any ] else []
      else if recvs history = 0 then [ Spec.Recv_any ]
      else if sends history = 0 then [ Spec.Send_to (p0, "ack") ]
      else [])

(* mesh: every process greets any one peer, and receives up to n - 1 *)
let mesh ~n =
  Spec.make ~n (fun p history ->
      (if sends history = 0 then
         List.filter_map
           (fun q ->
             if q = Pid.to_int p then None
             else Some (Spec.Send_to (Pid.of_int q, "hi")))
           (List.init n Fun.id)
       else [])
      @ if recvs history < n - 1 then [ Spec.Recv_any ] else [])

(* "process i has sent / received / done [tag]"; local to i *)
let has_sent name i =
  Prop.make name (fun z -> Trace.send_count z (Pid.of_int i) > 0)

let has_received name i =
  Prop.make name (fun z -> recvs (Trace.proj z (Pid.of_int i)) > 0)

let has_done name i tag =
  Prop.make name (fun z -> did (Trace.proj z (Pid.of_int i)) tag)

let all_sent n =
  Prop.make "all_sent" (fun z ->
      List.for_all
        (fun i -> Trace.send_count z (Pid.of_int i) > 0)
        (List.init n Fun.id))

(* Nondeterministic chatter among n processes: every process may send a
   message to its right neighbour or do an internal step, up to [k]
   local events. Produces rich universes for property tests. *)
let chatter ~n ~k =
  Spec.make ~n (fun p history ->
      if List.length history >= k then []
      else
        let right = Pid.of_int ((Pid.to_int p + 1) mod n) in
        [ Spec.Send_to (right, "c"); Spec.Do "idle"; Spec.Recv_any ])

(* A family of random finite systems: each process follows a seeded
   script of intent menus — at local step k it may offer a send to a
   random peer, an internal action, and/or a receive. All processes
   stop after [k] events, so the systems are inherently finite and
   bounded universes are exact. Used to fuzz the §3/§4 laws beyond the
   handwritten systems. *)
let random_spec ~n ~k ~seed =
  let menu p step =
    (* cheap deterministic hash *)
    let h = Hashtbl.hash (seed, Pid.to_int p, step) in
    let opts = ref [] in
    if h land 1 = 1 then begin
      let dst = Pid.of_int ((Pid.to_int p + 1 + (h lsr 3 mod (n - 1))) mod n) in
      opts := Spec.Send_to (dst, Printf.sprintf "m%d" (h lsr 5 mod 3)) :: !opts
    end;
    if h land 2 = 2 then
      opts := Spec.Do (Printf.sprintf "t%d" (h lsr 7 mod 2)) :: !opts;
    if h land 4 = 4 then opts := Spec.Recv_any :: !opts;
    (* never leave a process with an empty menu on step 0, to keep the
       universes interesting *)
    if !opts = [] then [ Spec.Do "idle" ] else !opts
  in
  Spec.make ~n (fun p history ->
      let step = List.length history in
      if step >= k then [] else menu p step)

let trace_of_events es = Trace.of_list es

let msg ~src ~dst ~seq ~payload = Msg.make ~src ~dst ~seq ~payload
