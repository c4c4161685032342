(** Fault models as system transformers.

    The paper's sharpest corollaries are about failure: common knowledge
    is constant (§4.2), so over unreliable channels it can never be
    gained — the coordinated-attack impossibility. The base engine only
    models perfect executions; this layer injects faults {e without
    changing the engine}: every fault model is a [Spec.t -> Spec.t]
    transformer producing an ordinary generative spec whose universes
    stay prefix-closed, so {!Hpl_core.Universe.enumerate} and the whole
    knowledge stack apply unmodified.

    {2 Semantics choices}

    - {b Crashes} ({!crash_stop}, {!crash_any}) silence a process: once
      crashed it enables nothing, matching §5's failure model ("the
      process does not send messages after its failure").
      Nondeterministic crashes are made {e visible} as internal
      ["crash"] events so traces record when the failure happened.
      Because a spec rule sees only the process's local history (the
      locality hypothesis behind every knowledge result), a {e global}
      crash budget ("at most k of the n processes fail") is not
      expressible; {!crash_any} instead makes the first [upto] processes
      crash-prone, which bounds failures per computation by [upto] while
      staying local.
    - {b Channel faults} ({!lossy}, {!duplicating}, {!route}) reroute
      each faulty channel through an explicit {e network daemon}
      process — one per channel, pids [n, n+1, …] in channel order. The
      daemon receives the message and nondeterministically forwards it,
      drops it (an internal ["drop:…"] event — losses are visible in
      traces, and universes remain prefix-closed because the drop is
      just one more enabled event), or — on duplicating channels —
      forwards it a second time. Routing is what keeps the epistemics
      honest: a drop event lives on the daemon, not on the sender or
      receiver, so {e neither endpoint can distinguish} a lost message
      from one still in flight — exactly the uncertainty the
      coordinated-attack argument needs. One daemon {e per channel}
      (rather than one shared daemon) matters too: message sequence
      numbers are per-sender, so a shared daemon's forwards would leak
      cross-channel activity into a receiver's local history; with
      per-channel daemons a forward's sequence number reveals only
      prior traffic on that same channel — exactly what the base
      model's sequence numbers already reveal. The transformed
      processes see translated local histories (routed sends and
      forwarded receives are presented to the underlying rule in their
      original form), so protocol code is unaware of the daemons.

    Routed channels double the hop count of a delivery (send→daemon,
    daemon→receiver), so enumeration depth must roughly double to see
    the same protocol progress — and branching multiplies. Pair fault
    scenarios with {!Hpl_core.Universe.budget}. *)

open Hpl_core

val crash_tag : string
(** ["crash"] — the internal-event tag recording a nondeterministic
    crash (same tag the simulation engine uses). *)

val recover_tag : string
(** ["recover"] — the internal-event tag recording a crash-recovery
    (see {!crash_recover}; same tag the simulation engine uses). *)

val crash_stop : pid:Pid.t -> after:int -> Spec.t -> Spec.t
(** [crash_stop ~pid ~after s]: as [s], except that [pid] enables
    nothing once it has performed [after] local events — a scheduled
    crash-stop failure, silent in the trace (the process simply stops).
    Raises [Invalid_argument] if [pid] is outside [s] or [after < 0]. *)

val crash_any : upto:int -> Spec.t -> Spec.t
(** [crash_any ~upto s]: the first [upto] processes are crash-prone —
    whenever such a process could take a step it may instead perform an
    internal {!crash_tag} event, after which it enables nothing. At
    most [upto] processes crash in any computation. A process that
    already enables nothing gains no crash event (an unobservable
    crash), which keeps finite systems finite. Raises
    [Invalid_argument] unless [0 <= upto <= n]. *)

val crash_recover : pid:Pid.t -> after:int -> upto:int -> Spec.t -> Spec.t
(** [crash_recover ~pid ~after ~upto s]: crash-recovery failures for
    [pid]. Each "life" of the process ends with a visible internal
    {!crash_tag} event once it has performed [after] events since its
    last recovery (the first life counts from the start); while down it
    enables only a visible {!recover_tag} event, after which its rule
    resumes — the underlying rule sees its local history with the fault
    bookkeeping (crash/recover events) filtered out, so protocol code is
    unaware of the failures. State survives recovery (the rule is a
    function of the filtered history, which persists). At most [upto]
    recoveries; after the last one the next crash is final. Raises
    [Invalid_argument] if [pid] is outside [s], [after < 0], or
    [upto < 1]. *)

type channel_fault = { drop : bool; dup : bool }

val route : Spec.t -> ((Pid.t * Pid.t) * channel_fault) list -> Spec.t
(** [route s faults] is [s] with every channel [(src, dst)] listed in
    [faults] redirected through its own fresh network-daemon process;
    daemons take pids [n, n+1, …] in the order channels are listed, so
    the result has [n + length faults] processes. For each routed
    message, in arrival order, the channel's daemon may forward it; if
    the channel has [drop = true] it may instead swallow it with a
    visible internal ["drop:psrc->pdst:payload"] event; if [dup = true]
    it may forward the most recently forwarded message a second time
    (one duplicate per delivery, recognizable at the receiver as a
    second copy of the same original message). Raises
    [Invalid_argument] on an out-of-range or self-loop channel, or a
    duplicate channel entry. *)

val lossy : ?channels:(Pid.t * Pid.t) list -> Spec.t -> Spec.t
(** [lossy s] routes the given channels (default: every ordered pair)
    with [drop] faults: every send on them may nondeterministically be
    swallowed by the daemon. *)

val duplicating : ?channels:(Pid.t * Pid.t) list -> Spec.t -> Spec.t
(** Same, with [dup] faults: every delivery may be repeated once. *)

val view : n:int -> Trace.t -> Trace.t
(** [view ~n z] is the fault-free observation of a routed-universe
    computation [z] ([n] = process count {e before} routing): daemon
    events are erased and routed sends / forwarded receives are
    rewritten to their original form, so predicates written against the
    fault-free system evaluate directly on faulty computations.
    Dropped messages appear as sent-but-never-received; a duplicated
    delivery appears as a second receive of the same message (the view
    is for predicate evaluation, not re-enumeration — it need not be
    intrinsically well-formed). *)

val delivery_channel : n:int -> Event.t -> (int * int) option
(** [delivery_channel ~n e] is the fault-free [(src, dst)] channel of a
    delivery event in a (possibly routed) system with [n] real
    processes: [Some] for a receive by a real process — decoding a
    daemon forward back to its original sender — and [None] for
    anything else, including a daemon's own pickup of a routed message
    (the message is then still inside the network). The Monte Carlo
    sampler uses this to block boundary-crossing deliveries during a
    partition window. *)

(** {1 Scenarios — compact fault descriptions}

    A scenario is a parsed, composable list of fault items with the
    concrete syntax used by the CLI's [--faults] flag:

    {v crash:p1@2,drop:p0->p1,dup:p2->p0,crash-any:1,drop:* v}

    - [crash:pN@K] — {!crash_stop} of process [N] after [K] events
    - [crash-any:K] — {!crash_any} with [upto = K]
    - [drop:pA->pB] / [drop:*] — {!lossy} on one channel / all channels
    - [dup:pA->pB] / [dup:*] — {!duplicating} likewise
    - [partition:pA|pB|…@t0-t1] — a network partition: during the
      window [\[t0, t1)] messages crossing the boundary between the
      listed group and the rest of the system do not get through. The
      three engines interpret the window at their own granularity: the
      sim engine as simulated-time instants (crossing sends are lost),
      the Monte Carlo sampler as global step indices (crossing
      deliveries are delayed until the window closes), and the exact
      engine — which has no global clock — over-approximates the window
      as whole-run lossiness on the crossing channels.
    - [recover:pN@K] — process [N] recovers from its scheduled crash,
      at most [K] times ({!crash_recover}); requires a matching
      [crash:pN@…] item.

    Pids may be written with or without the leading [p]. *)

module Scenario : sig
  type item =
    | Crash_stop of { pid : int; after : int }
    | Crash_any of { upto : int }
    | Drop of channel_pat
    | Dup of channel_pat
    | Partition of { group : int list; t0 : int; t1 : int }
    | Recover of { pid : int; upto : int }

  and channel_pat = All_channels | Channel of int * int

  type t = item list

  val parse : string -> (t, string) result
  (** Parse the comma-separated syntax above. The empty string is an
      error. Pid ranges are checked at {!apply} time (a scenario is
      system-independent until applied). *)

  val to_string : t -> string
  (** Round-trips through {!parse}. *)

  val routes_channels : t -> bool
  (** True when the scenario contains channel faults — including
      partitions, whose crossing channels the exact engine routes — and
      {!apply} will add daemon processes. *)

  val partition_windows : t -> (int * int * int list) list
  (** The scenario's partition items as [(t0, t1, group)] windows, in
      scenario order — what the Monte Carlo sampler consumes (it blocks
      crossing deliveries while the global step index is inside a
      window). *)

  val without_partitions : t -> t
  (** The scenario with partition items removed. The Monte Carlo
      sampler applies this and handles the windows itself, instead of
      the exact engine's whole-run over-approximation. The result may
      be the empty list, which {!apply} treats as the identity. *)

  val validate_channels :
    t -> channels:(int * int) list -> (unit, string) result
  (** [validate_channels t ~channels] checks every explicitly named
      [drop:pA->pB] / [dup:pA->pB] item against the system's actual
      channel list (as integer [src, dst] pairs — extracted by
      [Hpl_analysis.Channel_graph], which sits above this library).
      The error names the spec's real channels. [drop:*]/[dup:*]
      quantify over existing channels and always pass. *)

  val apply : t -> Spec.t -> (Spec.t, string) result
  (** Compose the scenario onto a spec: channel faults first (one
      daemon per channel; a partition contributes its crossing channels
      as lossy — the whole-run over-approximation), then crash
      transformers ([crash:pN@K] with a matching [recover:pN@R] becomes
      {!crash_recover}). [Error] on out-of-range pids or channels for
      this spec, on a partition group that is not a proper nonempty
      subset, or on a [recover:] item without its [crash:]. *)

  val apply_exn : t -> Spec.t -> Spec.t
  (** Raises [Invalid_argument] where {!apply} returns [Error]. *)

  val suggested_depth : t -> int -> int
  (** [suggested_depth t d] scales a fault-free enumeration depth [d]
      for this scenario: routed channels double the hops per delivery,
      crash events consume extra depth. *)

  val view : t -> n:int -> Trace.t -> Trace.t
  (** {!Faults.view} when the scenario routes channels, identity
      otherwise ([n] = process count before the scenario). *)

  val to_sim_config : t -> Hpl_sim.Engine.config -> Hpl_sim.Engine.config
  (** Interpret the same scenario for the random-walk simulation
      engine: [drop:…] becomes per-channel message loss, [dup:…]
      per-channel duplication, [crash:pN@K] a crash after [K] local
      events, [crash-any:K] makes the first [K] processes crash-prone
      with a small per-step crash probability, [partition:…@t0-t1] a
      timed entry in [config.partitions] (window bounds read as
      simulated-time instants), and [recover:pN@K] an entry in
      [config.recoveries]. Probabilistic fields are only raised, never
      lowered, so a config that already injects faults keeps its
      settings. *)
end
