(** Branching-time operators on extents.

    A bounded universe is a prefix tree: each computation's successors
    are its one-event extensions within the universe. CTL over that
    tree makes statements like "whenever r holds the token, r knows …"
    ([AG (r_holds -> assertion)]) or "knowledge, once gained, is kept
    unless the knower sends" directly checkable — the temporal glue the
    paper leaves implicit when it says "and later, p knows…".

    Each operator maps extents (sets of universe indices, like
    {!Prop.extent}) to the extent of the operator applied to them;
    {!Formula} is the syntax that composes them. The branching relation
    is {!Universe.successors}, memoized on the universe, so only the
    first operator evaluated on a universe pays for it. Every operator
    raises [Invalid_argument] on a symmetry-reduced universe, whose
    representatives' stored extensions are not their branching
    structure (DESIGN.md §10).

    Semantics note: leaves (computations with no extension inside the
    universe) have no successors; [ax φ] is vacuously true there and
    [ex φ] false, the standard finite-tree reading. For systems that
    terminate within the depth bound the semantics is exact; otherwise
    the horizon behaves like livelock at the frontier — the same
    caveat as for knowledge quantifiers (DESIGN.md). *)

val ex : Universe.t -> Bitset.t -> Bitset.t
(** EX φ: some one-event extension satisfies φ. *)

val ax : Universe.t -> Bitset.t -> Bitset.t
(** AX φ: every one-event extension satisfies φ. *)

val eu : Universe.t -> Bitset.t -> Bitset.t -> Bitset.t
(** [eu u φ ψ] is E[φ U ψ] (least fixpoint). *)

val au : Universe.t -> Bitset.t -> Bitset.t -> Bitset.t
(** [au u φ ψ] is A[φ U ψ] (least fixpoint); a leaf satisfies it only
    through ψ. *)

val ef : Universe.t -> Bitset.t -> Bitset.t
(** EF φ: some reachable extension (reflexive) satisfies φ. *)

val af : Universe.t -> Bitset.t -> Bitset.t
(** AF φ: every maximal path hits φ (reflexive). *)

val eg : Universe.t -> Bitset.t -> Bitset.t
(** EG φ: some maximal path satisfies φ everywhere. *)

val ag : Universe.t -> Bitset.t -> Bitset.t
(** AG φ: all reachable extensions satisfy φ — invariants. *)
