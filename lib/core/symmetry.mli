(** Process-permutation symmetry.

    Registry protocols with interchangeable processes (rings under
    rotation, star/quorum members under swaps) induce automorphisms of
    the specification: pid permutations [π] under which the computation
    set is closed. Enumeration can then store one representative per
    {e orbit} of [\[D\]]-classes instead of one per class
    (DESIGN.md §10).

    A permutation is an [int array] [a] with [a.(i)] the image of pid
    [i]. Groups are materialized explicitly (closure of the declared
    generators); registry symmetry groups are tiny, so the explicit
    representation keeps orbit computations simple and deterministic. *)

type perm = int array

val rotation : int -> perm
(** [rotation n] maps [i ↦ i+1 mod n] — the ring rotation. *)

val transposition : int -> int -> int -> perm
(** [transposition n a b] swaps [a] and [b], fixing everything else. *)

val cycle : int -> int list -> perm
(** [cycle n members] cyclically permutes [members] (each to the next,
    the last to the first), fixing all other pids — e.g.
    [cycle n [1; …; n-1]] rotates the members of a star, fixing the
    hub. *)

val to_string : perm -> string
(** Disjoint-cycle notation, e.g. ["(0 1 2)"]; ["id"] for the
    identity. *)

(** {2 Groups} *)

type group

val of_generators : ?max_order:int -> n:int -> perm list -> group
(** Closure of the generators under composition. The identity is always
    element 0. If the closure would exceed [max_order] (default 10080 =
    7!·2), trailing generators are dropped until it fits — any subgroup
    gives a sound, merely weaker, reduction. Raises [Invalid_argument]
    if a generator is not a permutation of [0 .. n-1]. *)

val order : group -> int
val is_trivial : group -> bool

val elements : group -> perm list
(** All elements, identity first. *)

(** {2 Action on the model} *)

val permute_event : perm -> Event.t -> Event.t
(** Renames the event's process and its message's [src] and [dst];
    [seq] and [payload] are label-independent (the sequence number
    counts the sender's sends, which renaming preserves). *)

(** {2 Orbit keys} *)

type key = Event.t list array
(** Per-process projections, each component newest-first (extension =
    cons). Two computations are [\[D\]]-equivalent iff their vectors
    are equal. *)

val orbit_key : group -> Trace.t -> key
(** The minimum over the group of the renamed projection vectors of
    [z]: equal for [x] and [y] iff [x] is interleaving-equivalent to
    [π·y] for some group element [π]. This is the canonical form
    symmetry-reduced enumeration interns. *)

val compare_key : key -> key -> int

module KeyTbl : Hashtbl.S with type key = key

(** {2 Validation} *)

val is_automorphism : ?depth:int -> ?max_states:int -> Spec.t -> perm -> bool
(** Bounded equivariance probe: checks [enabled (π·z) = π·(enabled z)]
    over every computation up to [depth] (default 4), visiting at most
    [max_states] (default 20000) interleavings. By induction this is
    exactly closure of the depth-bounded computation set under [π]; the
    property tests cross-validate the unbounded claim per protocol. *)
