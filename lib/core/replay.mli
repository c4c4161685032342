(** Post-mortem exact analysis: a recorded run as a system.

    [spec_of_trace] turns one computation [z] into a specification
    whose process rules follow exactly their local computations in [z].
    The resulting system's computations are precisely the downward
    closed portions of [z]'s event partial order, in every interleaving
    — so the {e exact} knowledge engine can be pointed at a {e recorded}
    run: "given only what actually happened, what could each process
    have known, and when?"

    Two structural identities make this more than a convenience, and
    the tests verify both:

    - the canonical universe of the replay spec has exactly one
      computation per {e consistent cut} of [z] (a [\[D\]]-class of a
      fixed event set {e is} a consistent cut), so
      [Universe.size = Cut.count_consistent];
    - evaluating [possibly b] over the replay universe coincides with
      {!Detect.possibly} over the cut lattice.

    Knowledge over a replay universe is knowledge {e relative to the
    observed partial order} — an observer who knows the run's events
    but not their interleaving. It is coarser than ground truth and
    finer than the full protocol universe, which is exactly the
    epistemic state of a log analyst. *)

val spec_of_trace : n:int -> Trace.t -> Spec.t
(** Raises [Invalid_argument] if the trace is not well-formed. *)

val universe_of_trace : ?mode:Universe.mode -> n:int -> Trace.t -> Universe.t
(** [spec_of_trace] enumerated to depth [Trace.length z] — the complete
    replay universe (default mode [`Canonical]). *)

val knew_at :
  n:int -> Trace.t -> Pset.t -> Prop.t -> int option
(** [knew_at ~n z ps b]: the first position of [z] after which [P]
    knows [b] relative to the replay universe, if any — "when could the
    log analyst first conclude that P knew". [Some (-1)] when [P]
    already knows [b] at the empty computation; otherwise the first
    gain {!Explain.learning_moments} reports. *)
