(** Deterministic discrete-event simulator.

    The bounded-universe engine of {!Hpl_core.Universe} is exact but
    exponential; the §5 experiments (termination detection at thousands
    of messages, failure detection, gossip) need runs far beyond it.
    This engine executes a protocol once, at scale, under a seeded
    random schedule, and records the run as a well-formed
    {!Hpl_core.Trace.t} so every causality/chain/clock tool applies to
    it directly.

    Protocols are written as message/timer handlers returning actions.
    The network delays messages (uniform in [min_delay, max_delay]),
    optionally drops them, and optionally enforces FIFO channels.
    A crash from the config's schedule silences a node: no further
    handler runs on it, and it sends nothing more (matching §5's
    failure model: "the process does not send messages after its
    failure"). *)

type config = {
  n : int;  (** number of processes *)
  seed : int64;
  fifo : bool;  (** per-channel FIFO delivery *)
  min_delay : float;
  max_delay : float;
  drop_prob : float;  (** probability a message is lost *)
  partitions : (float * float * int list) list;
      (** [(t0, t1, group)]: during \[t0, t1), messages crossing the
          boundary between [group] and its complement are lost *)
  crashes : (float * int) list;  (** scheduled (time, pid) crashes *)
  max_steps : int;  (** hard event budget *)
  max_time : float;  (** simulated-time horizon *)
}

val default : config
(** 4 processes, seed 1, FIFO, delays in [1, 10], no faults (no drops,
    partitions, or crashes), 100_000 steps, horizon 1e6. *)

type action =
  | Send of Hpl_core.Pid.t * string  (** send payload to a process *)
  | Set_timer of float * string  (** fire [on_timer] after a delay *)
  | Log_internal of string  (** record an internal event in the trace *)

type 's handlers = {
  init : Hpl_core.Pid.t -> 's * action list;
      (** state and initial actions of each node (runs at time 0) *)
  on_message :
    's ->
    self:Hpl_core.Pid.t ->
    src:Hpl_core.Pid.t ->
    payload:string ->
    now:float ->
    's * action list;
  on_timer :
    's -> self:Hpl_core.Pid.t -> tag:string -> now:float -> 's * action list;
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
  trace : Hpl_core.Trace.t;  (** the run as a §2 system computation *)
  states : 's array;  (** final node states *)
  stats : stats;
  crashed : bool array;
}

val run : config -> 's handlers -> 's result
