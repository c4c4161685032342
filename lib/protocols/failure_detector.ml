open Hpl_core
open Hpl_sim

(* -- impossibility ----------------------------------------------------- *)

let crash_tag = "crash"

let has_crashed history =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Internal tag -> String.equal tag crash_tag
      | Event.Send _ | Event.Receive _ -> false)
    history

let crashable_spec ~n =
  Spec.make ~n (fun p history ->
      if has_crashed history then []
      else
        let next = Pid.of_int ((Pid.to_int p + 1) mod n) in
        [ Spec.Do "tick"; Spec.Do crash_tag; Spec.Send_to (next, "ping"); Spec.Recv_any ])

let crashed p =
  Prop.make
    (Printf.sprintf "%s crashed" (Pid.to_string p))
    (fun z -> has_crashed (Trace.proj z p))

let nobody_ever_knows u ~observer ~subject =
  if Pid.equal observer subject then
    invalid_arg "Failure_detector.nobody_ever_knows: observer = subject";
  Bitset.is_empty
    (Knowledge.knows_ext u (Pset.singleton observer)
       (Prop.extent u (crashed subject)))

(* -- heartbeat detector ------------------------------------------------ *)

type params = {
  n : int;
  heartbeat_period : float;
  timeout : float;
  check_period : float;
  crash_time : float option;
  horizon : float;
}

let default =
  {
    n = 4;
    heartbeat_period = 5.0;
    timeout = 20.0;
    check_period = 2.0;
    crash_time = Some 100.0;
    horizon = 300.0;
  }

type outcome = {
  suspected : bool array;
  crashed : bool array;
  false_suspicions : int;
  missed : int;
  detection_time : float option;
}

let hb_tag = "hb"
let beat_timer = "beat"
let check_timer = "check"

type state = {
  params : params;
  is_monitor : bool;
  last_heard : float array;  (** monitor: last heartbeat per process *)
  suspect : bool array;
  mutable suspicion_log : (float * int) list;  (** (time, pid) suspicions *)
  first_detection : float option;
}

let monitor_pid = Pid.of_int 0

let init params p =
  let is_monitor = Pid.to_int p = 0 in
  let st =
    {
      params;
      is_monitor;
      last_heard = Array.make params.n 0.0;
      suspect = Array.make params.n false;
      suspicion_log = [];
      first_detection = None;
    }
  in
  let actions =
    if is_monitor then [ Engine.Set_timer (params.check_period, check_timer) ]
    else [ Engine.Set_timer (params.heartbeat_period, beat_timer) ]
  in
  (st, actions)

let on_message st ~self:_ ~src ~payload ~now =
  if st.is_monitor && Wire.is hb_tag payload then begin
    st.last_heard.(Pid.to_int src) <- now;
    if st.suspect.(Pid.to_int src) then st.suspect.(Pid.to_int src) <- false;
    (st, [])
  end
  else (st, [])

let on_timer st ~self:_ ~tag ~now =
  if String.equal tag beat_timer then
    ( st,
      [
        Engine.Send (monitor_pid, Wire.enc hb_tag []);
        Engine.Set_timer (st.params.heartbeat_period, beat_timer);
      ] )
  else if String.equal tag check_timer then begin
    let newly_detected = ref false in
    for i = 1 to st.params.n - 1 do
      if (not st.suspect.(i)) && now -. st.last_heard.(i) > st.params.timeout then begin
        st.suspect.(i) <- true;
        st.suspicion_log <- (now, i) :: st.suspicion_log;
        newly_detected := true
      end
    done;
    let st =
      if !newly_detected && st.first_detection = None then
        { st with first_detection = Some now }
      else st
    in
    (st, [ Engine.Set_timer (st.params.check_period, check_timer) ])
  end
  else (st, [])

let run ?(config = Engine.default) params =
  let crashes =
    match params.crash_time with
    | Some t -> [ (t, params.n - 1) ]
    | None -> []
  in
  let config =
    { config with Engine.n = params.n; crashes; max_time = params.horizon }
  in
  let result =
    Engine.run config { Engine.init = init params; on_message; on_timer }
  in
  let monitor = result.Engine.states.(0) in
  let crashed = result.Engine.crashed in
  (* a suspicion is false when the process had not crashed by then;
     transient suspicions that were later cleared still count *)
  let crash_time_of i =
    List.fold_left
      (fun acc (t, pid) -> if pid = i then Some t else acc)
      None crashes
  in
  let false_suspicions =
    List.length
      (List.filter
         (fun (t, i) ->
           match crash_time_of i with None -> true | Some tc -> t < tc)
         monitor.suspicion_log)
  in
  let missed = ref 0 in
  for i = 1 to params.n - 1 do
    if (not monitor.suspect.(i)) && crashed.(i) then incr missed
  done;
  let detection_time =
    List.fold_left
      (fun acc (t, i) ->
        match crash_time_of i with
        | Some tc when t >= tc -> (
            match acc with Some best -> Some (min best t) | None -> Some t)
        | _ -> acc)
      None monitor.suspicion_log
  in
  {
    suspected = Array.copy monitor.suspect;
    crashed = Array.copy crashed;
    false_suspicions;
    missed = !missed;
    detection_time;
  }

(* -- registry ----------------------------------------------------------- *)

let protocol =
  Protocol.make ~name:"failure-detector"
    ~doc:"crashable processes: nobody ever knows a crash (no timeouts)"
    ~params:[ Protocol.param ~lo:2 "n" 2 "processes" ]
    ~atoms:(fun vs ->
      let n = Protocol.get vs "n" in
      List.init n (fun i ->
          (Printf.sprintf "crashed%d" i, crashed (Pid.of_int i))))
    ~symmetry:(fun vs -> [ Symmetry.rotation (Protocol.get vs "n") ])
    ~suggested_depth:4
    (fun vs -> crashable_spec ~n:(Protocol.get vs "n"))
