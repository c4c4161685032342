(** Static channel-graph extraction.

    A {!Hpl_core.Spec.t} is generative — each process is a rule from
    local history to intents — so its communication structure is not
    written down anywhere. This module recovers it {e without
    enumerating the universe}: it explores each process's local
    behaviour tree in isolation (histories, not interleavings), feeding
    receives from an over-approximate pool of every message any
    explored history could send, iterated to a fixpoint.

    {2 Soundness}

    The exploration over-approximates: every local history a process
    can exhibit in a real system computation of depth ≤ d is visited,
    provided [fuel ≥ d] (a real history's receives consume messages
    whose senders' histories are themselves real, hence visited, hence
    pooled — induction on depth). Consequently

    - a channel absent from {!sends} carries no message in any
      computation within the soundness {!scope};
    - a pair absent from the {!reach} closure of {!delivered} admits no
      causal message path within the scope.

    The converse direction is approximate by design: an edge in the
    graph may be unrealizable (the pool ignores in-flight timing), so
    the analyzer only ever derives {e negative} facts from absence,
    never positive guarantees from presence.

    Exploration cost is per-process local branching — exponentially
    cheaper than the interleaving universe, and bounded by [fuel] and
    [max_states] regardless. *)

open Hpl_core

type t

type scope =
  | Exact  (** exploration saturated: the graph is exact at every depth *)
  | Up_to_depth of int
      (** fuel-limited: sound for enumerations up to this depth *)
  | Incomplete
      (** the state cap stopped exploration — no negative fact is sound *)

val extract : ?fuel:int -> ?max_states:int -> Spec.t -> t
(** [extract spec] explores every process's bounded local behaviour.
    [fuel] (default 16) caps local-history length; [max_states]
    (default 60_000) caps total explored histories. Raising either
    widens the {!scope}. Rule exceptions are caught and reported via
    {!rule_errors}, never raised. *)

val n : t -> int
val fuel : t -> int
val scope : t -> scope
val states : t -> int
(** Total explored local histories, for cost reporting. *)

val channels : t -> (int * int) list
(** Channels with at least one send, sorted. *)

val channel_payloads : t -> int -> int -> string list
(** Payloads ever sent on a channel, sorted; empty if no such channel. *)

val delivered : t -> (int * int) list
(** Channels on which some sent message is also accepted by an explored
    receive of the destination — the edges knowledge can flow along. *)

val active : t -> int -> bool
(** Whether the process has any possible event at all. *)

val internal_tags : t -> int -> string list

type recv_shape = Any | From of int | Filtered of string

val recv_shapes : t -> int -> (recv_shape * bool) list
(** Receive willingness the process ever exhibits, with whether any
    explored candidate message satisfied it. *)

val dead_letters : t -> (int * int * string) list
(** [(src, dst, payload)] triples sent on a real channel but never
    accepted by any explored receive of [dst]. *)

val bad_sends : t -> (int * int * string) list
(** Sends addressed outside the system or to the sender itself. *)

val rule_errors : t -> (int * string) list
(** Rules that raised during probing, with the exception text. *)

val without_channels : t -> (int * int) list -> t
(** The graph with the given delivered edges removed — "what if these
    channels delivered nothing". Feasibility on the result answers
    whether a knowledge chain survives losing them. *)

val reach : t -> int -> int -> bool
(** Reflexive-transitive closure of {!delivered}. *)

val path : t -> int -> int -> int list option
(** A shortest delivered-channel path [src; …; dst] (inclusive), or
    [None]. [Some [p]] when [src = dst]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human dump: per-channel payloads, per-process tags and
    receive shapes, scope. *)
