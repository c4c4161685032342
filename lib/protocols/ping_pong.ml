open Hpl_core

let p0 = Pid.of_int 0
let p1 = Pid.of_int 1

(* Hoisted from bin/hpl.ml: the smallest interesting system — one
   request, one reply — used throughout the docs as the first universe
   to enumerate. *)
let spec =
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

let sent =
  Prop.make "sent" (fun z -> Trace.send_count z p0 > 0)

let received =
  Prop.make "received" (fun z ->
      List.exists Event.is_receive (Trace.proj z p1))

let round_trip =
  let ping = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"ping" in
  let pong = Msg.make ~src:p1 ~dst:p0 ~seq:0 ~payload:"pong" in
  Trace.of_list
    [
      Event.send ~pid:p0 ~lseq:0 ping;
      Event.receive ~pid:p1 ~lseq:0 ping;
      Event.send ~pid:p1 ~lseq:1 pong;
      Event.receive ~pid:p0 ~lseq:1 pong;
    ]

let protocol =
  Protocol.make ~name:"ping-pong"
    ~doc:"p0 pings, p1 pongs — the smallest request/reply universe"
    ~atoms:(fun _ -> [ ("sent", sent); ("received", received) ])
    ~canonical_trace:(fun _ -> round_trip)
    ~suggested_depth:4
    ~fault_scenarios:[ "drop:p0->p1"; "dup:p1->p0"; "crash:p1@1" ]
    (fun _ -> spec)
