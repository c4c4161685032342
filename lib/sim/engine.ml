open Hpl_core

type config = {
  n : int;
  seed : int64;
  fifo : bool;
  min_delay : float;
  max_delay : float;
  drop_prob : float;
  partitions : (float * float * int list) list;
  crashes : (float * int) list;
  max_steps : int;
  max_time : float;
}

let default =
  {
    n = 4;
    seed = 1L;
    fifo = true;
    min_delay = 1.0;
    max_delay = 10.0;
    drop_prob = 0.0;
    partitions = [];
    crashes = [];
    max_steps = 100_000;
    max_time = 1e6;
  }

type action =
  | Send of Pid.t * string
  | Set_timer of float * string
  | Log_internal of string

type 's handlers = {
  init : Pid.t -> 's * action list;
  on_message :
    's -> self:Pid.t -> src:Pid.t -> payload:string -> now:float -> 's * action list;
  on_timer : 's -> self:Pid.t -> tag:string -> now:float -> 's * action list;
}

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  timers_fired : int;
  end_time : float;
  steps : int;
  latency_avg : float;  (** mean delivery latency of delivered messages *)
  latency_max : float;
}

type 's result = {
  trace : Trace.t;
  states : 's array;
  stats : stats;
  crashed : bool array;
}

type item =
  | Deliver of {
      src : Pid.t;
      dst : Pid.t;
      msg_seq : int;
      payload : string;
      sent_at : float;
    }
  | Timer of { pid : Pid.t; tag : string }
  | Crash_at of { pid : Pid.t }

let run cfg handlers =
  if cfg.n < 1 then invalid_arg "Engine.run: need at least one process";
  if cfg.min_delay < 0.0 || cfg.max_delay < cfg.min_delay then
    invalid_arg "Engine.run: delays must satisfy 0 <= min_delay <= max_delay";
  List.iter
    (fun (_, pid) ->
      if pid < 0 || pid >= cfg.n then
        invalid_arg (Printf.sprintf "Engine.run: crash pid %d out of range" pid))
    cfg.crashes;
  if cfg.drop_prob < 0.0 || cfg.drop_prob > 1.0 then
    invalid_arg "Engine.run: drop_prob must be within [0, 1]";
  let rng = Rng.create cfg.seed in
  let queue : item Pqueue.t = Pqueue.create () in
  let seqno = ref 0 in
  let schedule time item =
    incr seqno;
    Pqueue.push queue ~time ~seqno:!seqno item
  in
  let inits = Array.init cfg.n (fun i -> handlers.init (Pid.of_int i)) in
  let states = Array.map fst inits in
  let crashed = Array.make cfg.n false in
  (* trace bookkeeping: per-process lseq, per-process send count *)
  let lseq = Array.make cfg.n 0 in
  let send_seq = Array.make cfg.n 0 in
  let trace = ref Trace.empty in
  let now = ref 0.0 in
  let record pid mk =
    let i = Pid.to_int pid in
    trace := Trace.snoc !trace (mk ~lseq:lseq.(i));
    lseq.(i) <- lseq.(i) + 1
  in
  let sent = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let timers_fired = ref 0 in
  (* messages scheduled but not yet delivered; tracked unconditionally
     (two int ops per message) so the observability layer can report
     the high-water mark without touching the hot loop *)
  let inflight = ref 0 and inflight_max = ref 0 in
  let latency_sum = ref 0.0 and latency_max = ref 0.0 in
  let last_delivery = Hashtbl.create 16 (* (src,dst) -> latest delivery time *) in
  let partitioned src dst t =
    List.exists
      (fun (t0, t1, group) ->
        t0 <= t && t < t1
        && List.mem (Pid.to_int src) group <> List.mem (Pid.to_int dst) group)
      cfg.partitions
  in
  let do_send self dst payload =
    let i = Pid.to_int self in
    let m = Msg.make ~src:self ~dst ~seq:send_seq.(i) ~payload in
    send_seq.(i) <- send_seq.(i) + 1;
    record self (fun ~lseq -> Event.send ~pid:self ~lseq m);
    incr sent;
    if partitioned self dst !now then incr dropped
    else if cfg.drop_prob > 0.0 && Rng.float rng 1.0 < cfg.drop_prob then
      incr dropped
    else begin
      let fifo_slot t =
        if cfg.fifo then begin
          let key = (Pid.to_int self, Pid.to_int dst) in
          let t' =
            match Hashtbl.find_opt last_delivery key with
            | Some prev when prev >= t -> prev +. 1e-9
            | _ -> t
          in
          Hashtbl.replace last_delivery key t';
          t'
        end
        else t
      in
      let delay () =
        cfg.min_delay +. Rng.float rng (max 0.0 (cfg.max_delay -. cfg.min_delay))
      in
      let t = fifo_slot (!now +. delay ()) in
      schedule t
        (Deliver { src = self; dst; msg_seq = m.Msg.seq; payload; sent_at = !now });
      incr inflight;
      if !inflight > !inflight_max then inflight_max := !inflight
    end
  in
  let apply self actions =
    List.iter
      (fun a ->
        if not crashed.(Pid.to_int self) then
          match a with
          | Send (dst, payload) -> do_send self dst payload
          | Set_timer (delay, tag) ->
              schedule (!now +. delay) (Timer { pid = self; tag })
          | Log_internal tag ->
              record self (fun ~lseq -> Event.internal ~pid:self ~lseq tag))
      actions
  in
  let step_handler self f =
    let i = Pid.to_int self in
    if not crashed.(i) then begin
      let state', actions = f states.(i) in
      states.(i) <- state';
      apply self actions
    end
  in
  (* scheduled crashes *)
  List.iter
    (fun (t, pid) -> schedule t (Crash_at { pid = Pid.of_int pid }))
    cfg.crashes;
  (* initial actions at time 0 *)
  Array.iteri (fun i (_, actions) -> apply (Pid.of_int i) actions) inits;
  let steps = ref 0 in
  let rec loop () =
    if !steps >= cfg.max_steps then ()
    else
      match Pqueue.pop queue with
      | None -> ()
      | Some (t, _, item) ->
          if t > cfg.max_time then ()
          else begin
            now := t;
            incr steps;
            (match item with
            | Deliver { src; dst; msg_seq; payload; sent_at } ->
                decr inflight;
                let i = Pid.to_int dst in
                if not crashed.(i) then begin
                  let m = Msg.make ~src ~dst ~seq:msg_seq ~payload in
                  record dst (fun ~lseq -> Event.receive ~pid:dst ~lseq m);
                  incr delivered;
                  let lat = t -. sent_at in
                  latency_sum := !latency_sum +. lat;
                  if lat > !latency_max then latency_max := lat;
                  step_handler dst (fun s ->
                      handlers.on_message s ~self:dst ~src ~payload ~now:t)
                end
            | Timer { pid; tag } ->
                let i = Pid.to_int pid in
                if not crashed.(i) then begin
                  incr timers_fired;
                  step_handler pid (fun s ->
                      handlers.on_timer s ~self:pid ~tag ~now:t)
                end
            | Crash_at { pid } ->
                let i = Pid.to_int pid in
                if not crashed.(i) then begin
                  crashed.(i) <- true;
                  record pid (fun ~lseq -> Event.internal ~pid ~lseq "crash")
                end);
            loop ()
          end
  in
  Hpl_obs.span "sim.run"
    ~args:(fun () ->
      [ ("n", string_of_int cfg.n); ("steps", string_of_int !steps) ])
    loop;
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "sim.sent" !sent;
    Hpl_obs.count "sim.delivered" !delivered;
    Hpl_obs.count "sim.dropped" !dropped;
    Hpl_obs.count "sim.timers_fired" !timers_fired;
    Hpl_obs.count "sim.steps" !steps;
    Hpl_obs.set_gauge "sim.in_flight" (float_of_int !inflight);
    Hpl_obs.set_gauge "sim.in_flight_max" (float_of_int !inflight_max)
  end;
  {
    trace = !trace;
    states;
    stats =
      {
        sent = !sent;
        delivered = !delivered;
        dropped = !dropped;
        timers_fired = !timers_fired;
        end_time = !now;
        steps = !steps;
        latency_avg =
          (if !delivered = 0 then 0.0
           else !latency_sum /. float_of_int !delivered);
        latency_max = !latency_max;
      };
    crashed;
  }
