(** Branching-time properties of computation universes.

    A bounded universe is a prefix tree: each computation's successors
    are its one-event extensions within the universe. CTL over that
    tree makes statements like "whenever r holds the token, r knows …"
    ([ag (implies r_holds assertion)]) or "knowledge, once gained, is
    kept unless the knower sends" directly checkable — the temporal
    glue the paper leaves implicit when it says "and later, p knows…".

    Semantics note: leaves (computations with no extension inside the
    universe) have no successors; [ax φ] is vacuously true there and
    [ex φ] false, the standard finite-tree reading. For systems that
    terminate within the depth bound the semantics is exact; otherwise
    the horizon behaves like livelock at the frontier — the same
    caveat as for knowledge quantifiers (DESIGN.md). *)

type t

val atom : Prop.t -> t
val tt : t
val ff : t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t

val ex : t -> t
(** Some one-event extension satisfies φ. *)

val ax : t -> t
(** Every one-event extension satisfies φ. *)

val ef : t -> t
(** Some reachable extension (reflexive) satisfies φ. *)

val af : t -> t
(** Every maximal path hits φ (reflexive). *)

val eg : t -> t
(** Some maximal path satisfies φ everywhere. *)

val ag : t -> t
(** All reachable extensions satisfy φ — invariants. *)

val eu : t -> t -> t
(** E[φ U ψ]. *)

val au : t -> t -> t
(** A[φ U ψ]. *)

val check : Universe.t -> t -> Bitset.t
(** The set of computations satisfying the formula (extensional, like
    {!Prop.extent}). The branching relation is {!Universe.successors},
    memoized on the universe, so only the first temporal operator
    evaluated on a universe pays for it. Raises [Invalid_argument] on a
    symmetry-reduced universe, whose representatives' stored
    extensions are not their branching structure (DESIGN.md §10). *)

val holds_at : Universe.t -> t -> Trace.t -> bool
(** Satisfaction at one computation. Raises [Not_found] outside the
    universe. *)

val valid : Universe.t -> t -> bool
(** Holds at every computation. *)

val holds_initially : Universe.t -> t -> bool
(** Holds at the empty computation. *)

val pp : Format.formatter -> t -> unit
