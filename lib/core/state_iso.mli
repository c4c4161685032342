(** State-based isomorphism — the first generalization sketched in §6.

    "We can define isomorphism based on states of processes, rather
    than computations … Most of the results in this paper are
    applicable in the first case."

    A {!view} abstracts a process's local computation into a {e state};
    two system computations are state-isomorphic w.r.t. [P] when every
    [p ∈ P] is in the same state in both. Computation-based isomorphism
    is the special case {!full} (the state is the whole history); any
    other view is coarser, so a process knows {e less} under it — made
    precise by {!Laws.coarser_knows_less}.

    What survives the generalization (and is checked by tests/bench):
    state-knowledge is still S5 (an equivalence does all the work), the
    twelve §4.1 facts hold verbatim, and {!Laws.full_coincides} ties the
    construction back to {!Knowledge}. What does {e not} survive in
    general: predicates local-to-[P] under a forgetful view need not
    determine [b] ({!Laws} exposes checkers so the boundary can be
    mapped empirically). *)

type view = {
  name : string;
  observe : Pid.t -> Event.t list -> string;
      (** the process's state, encoded; equality of encodings is
          equality of states *)
}

val full : view
(** State = the entire local computation: coincides with [\[p\]]. *)

val counters : view
(** State = (sends, receives, internals) counts — forgets order and
    content. *)

val last_event : view
(** State = the most recent local event (or "init") — forgets depth. *)

val message_log : view
(** State = the multiset of message payloads sent and received —
    forgets internal events and ordering. *)

type t
(** A view bound to a universe, with its partitions precomputed. *)

val make : Universe.t -> view -> t
val universe : t -> Universe.t
val view_name : t -> string

val iso : t -> Pset.t -> int -> int -> bool
(** State-isomorphism between computations, by universe index. *)

val iso_traces : view -> Trace.t -> Trace.t -> Pset.t -> bool
(** Trace-level test (no universe needed). *)

val class_of : t -> Pset.t -> int -> Bitset.t

val knows_ext : t -> Pset.t -> Bitset.t -> Bitset.t
(** [P] state-knows [b]: [b] holds at every state-indistinguishable
    computation. Maps the extent of [b] to the extent of the
    knowledge, like {!Knowledge.knows_ext}. *)

module Laws : sig
  val s5_veridical : t -> Pset.t -> Prop.t -> bool
  val s5_positive_introspection : t -> Pset.t -> Prop.t -> bool
  val s5_negative_introspection : t -> Pset.t -> Prop.t -> bool
  val conjunction : t -> Pset.t -> Prop.t -> Prop.t -> bool

  val full_coincides : Universe.t -> Pset.t -> Prop.t -> bool
  (** Under {!full}, state-knowledge = the paper's knowledge. *)

  val coarser_knows_less : t -> t -> Pset.t -> Prop.t -> bool
  (** If the first view refines the second (finer partitions on every
      process), the second yields a subset of the first's knowledge.
      Vacuously true when there is no refinement. *)

  val refines : t -> t -> bool
  (** Per-process partition refinement over the whole universe. *)
end
