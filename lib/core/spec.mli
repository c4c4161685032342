(** System specifications.

    The paper characterizes a process by a prefix-closed set of process
    computations (§2). We specify that set {e generatively}: a process
    is a {!rule} mapping its local history (the events on it so far) to
    the set of steps it is willing to take next. This enforces the
    model's locality by construction — what a process can do depends
    only on its own computation — which is exactly the hypothesis behind
    the principle of computation extension (§3.4) and all knowledge
    results.

    A receive is enabled when the process is willing {e and} the message
    is in flight (sent, not yet received): condition (2) of the
    definition of system computations. *)

type intent =
  | Send_to of Pid.t * string
      (** willing to send a message with this payload to that process *)
  | Recv_any  (** willing to receive any in-flight message addressed here *)
  | Recv_from of Pid.t  (** …only from the given sender *)
  | Recv_if of string * (Msg.t -> bool)
      (** …only messages satisfying the predicate (named for display) *)
  | Do of string  (** willing to perform an internal event with this tag *)

type rule = Event.t list -> intent list
(** A process's behaviour: local history ↦ enabled intents. The history
    is the process's computation so far, in order. Must be
    deterministic (a function); nondeterminism is expressed by returning
    several intents. Enumeration runs a rule once per distinct local
    history ({!stage}), not once per computation, so a rule must have no
    side effects, counters included. *)

type t

val make : n:int -> (Pid.t -> rule) -> t
(** [make ~n rule] is a system of processes [p0 … p(n-1)], each behaving
    as [rule pi]. Raises [Invalid_argument] if [n < 1]. *)

val n : t -> int
val all : t -> Pset.t
(** The process set [D]. *)

val pids : t -> Pid.t list

val rule_of : t -> Pid.t -> rule

val intent_events :
  Pid.t -> history:Event.t list -> pool:Msg.t list -> intent -> Event.t list
(** [intent_events p ~history ~pool intent] is the alphabet of one
    intent: the events process [p] would perform next for it, given its
    local history and a pool of candidate deliverable messages. Sequence
    numbers and local positions are derived from [history], exactly as
    {!stage} derives them. The static analyzer ([lib/analysis]) passes
    an over-approximate pool, which is what makes channel-graph
    extraction sound without enumerating interleavings. *)

val stage : t -> Pid.t -> history:Event.t list -> Msg.t list -> Event.t list
(** [stage s p ~history] runs [p]'s rule on [history] once and returns
    the function from a pool of deliverable messages to the sorted,
    deduplicated set of events [p] is willing to perform next. Sends and
    internal events are built once, here; receives are built from each
    pool. A process's next steps are a function of its own history (§2),
    so {!Universe.enumerate} stages each distinct local history once and
    applies the result to every computation that shares it. *)

val enabled : t -> Trace.t -> Event.t list
(** [enabled s z] is the set of events [e] such that [(z; e)] is a
    system computation of [s], sorted by {!Event.compare} and
    deduplicated: each process's {!stage} applied to the messages in
    flight after [z]. *)

val enabled_on : t -> Trace.t -> Pid.t -> Event.t list
(** Enabled events on one process. *)

val extensions : t -> Trace.t -> Trace.t list
(** All one-event extensions [(z; e)] of [z]. *)

val valid : t -> Trace.t -> bool
(** [valid s z]: [z] is a system computation of [s] — well-formed and
    buildable step by step from the empty computation via {!enabled}. *)

val validity_error : t -> Trace.t -> string option
(** [None] when valid, otherwise the first offending step. *)
