(** Causally ordered broadcast (Birman–Schiper–Stephenson style).

    Every process broadcasts application messages stamped with its
    vector clock; receivers buffer arrivals until all causal
    predecessors have been delivered. Over a reordering network the
    arrival order violates causality (measurably — the engine's
    non-FIFO mode supplies the adversary); the delivery order never
    does.

    This is the operational complement to [Hpl_clocks.Causal_order]:
    the checker says whether a run happened to be causal, this protocol
    {e makes} it causal — paying buffering (reported) instead of
    messages, a different point on the paper's information-flow
    trade-off. *)

type params = {
  n : int;
  broadcasts_per_process : int;
  period : float;
  seed : int64;
}

val default : params

type outcome = {
  trace : Hpl_core.Trace.t;
  delivered_total : int;
  buffered_arrivals : int;
      (** arrivals that had to wait for causal predecessors *)
  causal_delivery_ok : bool;
      (** every process's delivery order respects the causal order of
          broadcasts (vector-clock comparison) *)
  all_delivered : bool;
  messages : int;
}

val run : ?config:Hpl_sim.Engine.config -> params -> outcome

val protocol : Protocol.t
(** Registry entry (see {!Protocol.Registry}); for simulation-first
    modules this carries the bounded knowledge-view spec. *)
