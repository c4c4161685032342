open Hpl_core

let flip_tag = "flip"
let p0 = Pid.of_int 0
let p1 = Pid.of_int 1

let flips_in history =
  List.length
    (List.filter
       (fun e ->
         match e.Event.kind with
         | Event.Internal t -> String.equal t flip_tag
         | Event.Send _ | Event.Receive _ -> false)
       history)

let silent_spec ~n ~flips ~ticks =
  Spec.make ~n (fun p history ->
      if Pid.equal p p0 then
        if flips_in history < flips then [ Spec.Do flip_tag ] else []
      else if List.length history < ticks then [ Spec.Do "tick"; Spec.Recv_any ]
      else [])

(* p0 flips, then notifies p1 and waits for the ack before the next
   flip; p1 acknowledges every notification. *)
let notify_spec ~flips =
  Spec.make ~n:2 (fun p history ->
      if Pid.equal p p0 then begin
        let f = flips_in history in
        let sends = List.length (List.filter Event.is_send history) in
        let acks = List.length (List.filter Event.is_receive history) in
        if sends < f then [ Spec.Send_to (p1, "flipped") ]
        else if acks < sends then [ Spec.Recv_any ]
        else if f < flips then [ Spec.Do flip_tag ]
        else []
      end
      else begin
        let recvs = List.length (List.filter Event.is_receive history) in
        let sends = List.length (List.filter Event.is_send history) in
        (if sends < recvs then [ Spec.Send_to (p0, "ack") ] else [])
        @ [ Spec.Recv_any ]
      end)

let bit =
  Prop.make "bit" (fun z -> flips_in (Trace.proj z p0) mod 2 = 1)

(* the extent of "p is unsure of bit" *)
let unsure u p =
  Bitset.complement (Knowledge.sure_ext u (Pset.singleton p) (Prop.extent u bit))

let tracker_always_unsure_after_flip u =
  let flipped =
    Prop.make "p0 flipped" (fun z -> flips_in (Trace.proj z p0) > 0)
  in
  Bitset.subset (Prop.extent u flipped) (unsure u p1)

let flip_enabled u z =
  List.filter
    (fun e ->
      Pid.equal e.Event.pid p0
      &&
      match e.Event.kind with
      | Event.Internal t -> String.equal t flip_tag
      | _ -> false)
    (Spec.enabled (Universe.spec u) z)

let unsure_while_changing u =
  let unsure = unsure u p1 in
  let ok = ref true in
  Universe.iter
    (fun i z ->
      if Trace.length z < Universe.depth u then
        List.iter
          (fun e ->
            let ze = Trace.snoc z e in
            if not (Bitset.mem unsure i || Bitset.mem unsure (Universe.find_exn u ze))
            then ok := false)
          (flip_enabled u z))
    u;
  !ok

let change_requires_known_unsureness u ~tracker =
  let changing =
    Prop.make "flip enabled" (fun z ->
        Trace.length z < Universe.depth u && flip_enabled u z <> [])
  in
  Bitset.subset (Prop.extent u changing)
    (Knowledge.knows_ext u (Pset.singleton p0) (unsure u tracker))

(* -- registry ----------------------------------------------------------- *)

let protocol =
  Protocol.make ~name:"tracking"
    ~doc:"remote tracking, silent flipper: trackers stay unsure forever"
    ~params:
      [
        Protocol.param ~lo:2 "n" 2 "processes (p0 flips, the rest track)";
        Protocol.param ~lo:0 "flips" 2 "bit flips available to p0";
        Protocol.param ~lo:0 "ticks" 2 "internal ticks per tracker";
      ]
    ~atoms:(fun _ -> [ ("bit", bit) ])
    ~suggested_depth:4
      (* the starved receive IS the impossibility: trackers listen on a
         channel the silent flipper never uses *)
    ~lint_expect:[ "recv-starved" ]
    (fun vs ->
      silent_spec ~n:(Protocol.get vs "n") ~flips:(Protocol.get vs "flips")
        ~ticks:(Protocol.get vs "ticks"))

let notify_protocol =
  Protocol.make ~name:"tracking-notify"
    ~doc:"remote tracking with notify+ack: the tightest tracking allowed"
    ~params:[ Protocol.param ~lo:0 "flips" 1 "bit flips by p0" ]
    ~atoms:(fun _ -> [ ("bit", bit) ])
    ~suggested_depth:5
    (fun vs -> notify_spec ~flips:(Protocol.get vs "flips"))
