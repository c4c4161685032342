(** Bounded computation universes.

    The paper's definitions quantify over all system computations ("for
    all y: x \[P\] y : b at y"). For a finite system we make those
    quantifiers executable by enumerating every computation up to a
    depth bound.

    Two modes:
    - [`Full] enumerates every computation (every interleaving);
    - [`Canonical] enumerates one representative per [\[D\]]-equivalence
      class — the lexicographically least linearization of the induced
      event partial order. Since predicates are required to be
      interleaving-invariant ([x \[D\] y ⇒ b at x = b at y], §4.1) and
      [x \[P\] y] depends only on projections, evaluating knowledge over
      canonical representatives is exact while the universe is usually
      exponentially smaller (ablation P2 in DESIGN.md).

    A universe indexes its computations [0 .. size-1] and stores them as
    their run tree: per computation, its parent's index, the process of
    its one event, and the class id that process reaches; per process
    and class id, the class's parent class and its one event. Per
    process, the partition of indices by local computation is one pass
    over that tree ({!class_ids}); this is what makes [knows] evaluation
    linear in the universe size. The computations' traces are derived
    data too: no trace is built until one is read ({!comp}). *)

type mode = [ `Full | `Canonical ]

type budget = { max_states : int option; max_seconds : float option }
(** Resource ceiling for {!enumerate}. Fault transformers multiply
    branching, so an unbounded enumeration of a fault-blown state space
    can exhaust memory or time; a budget turns that failure mode
    into graceful degradation — a valid, prefix-closed universe plus a
    {!status} saying it is incomplete. *)

val budget : ?max_states:int -> ?max_seconds:float -> unit -> budget
(** Smart constructor. Raises [Invalid_argument] on [max_states < 1] or
    [max_seconds <= 0]. Omitted fields are unlimited. *)

val no_budget : budget

type trunc_reason = Max_states of int | Max_seconds of float

type status = Complete | Truncated of trunc_reason

val reason_to_string : trunc_reason -> string

type t

val enumerate :
  ?mode:mode ->
  ?budget:budget ->
  ?reduce:Reduction.t ->
  Spec.t ->
  depth:int ->
  t
(** [enumerate spec ~depth] explores breadth-first from the empty
    computation. Default mode is [`Canonical]. A node's enabled events
    come from {!Spec.stage}, run once per process and distinct local
    history (projection class) and applied to the node's in-flight
    messages, so each rule runs once per class, not once per
    computation (DESIGN.md §6).

    [reduce] (default {!Reduction.none}) applies the reduction layer
    (DESIGN.md §10); requires [`Canonical] mode. With a symmetry group
    the universe stores one representative per {e orbit} of
    [\[D\]]-classes: it can be counted, listed, and searched with
    {!find}, which resolves any computation to its orbit's
    representative, and {!Prop.extent} ranges over the representatives;
    the knowledge and temporal operators refuse it (see
    {!pset_class_ids}). Plain [por] runs the unreduced enumeration; only
    an attached {!Reduction.Independence.t} restricts it.

    [budget] (default {!no_budget}) bounds the enumeration. When a
    ceiling is hit the BFS stops cleanly and the universe carries
    [Truncated reason] as its {!status}; the stored computations are
    still prefix-closed (children are only kept after their parent), so
    every query below remains sound — it just quantifies over fewer
    computations than the depth bound implies. [max_states] truncation
    is deterministic (checks happen in frontier order, then per-parent
    order); [max_seconds] bounds the CPU time the enumeration takes
    ([Sys.time]), so where it cuts depends on the machine and its load;
    it is detected between parent expansions. *)

val spec : t -> Spec.t
val mode : t -> mode
val depth : t -> int

val reduction : t -> Reduction.t
val symmetry : t -> Symmetry.group option
(** The group the universe was reduced under, if any. *)

val status : t -> status
(** [Complete] unless a {!budget} ceiling stopped the enumeration. A
    truncated universe underapproximates: [knows]/CK verdicts computed
    on it are relative to the explored prefix of the state space. *)

val size : t -> int

val comp : t -> int -> Trace.t
(** [comp u i] is computation number [i]. The first [comp], {!iter},
    {!fold}, {!index} or {!find} on a universe builds its trace column:
    one [Trace.snoc] per computation in index order, onto its parent's
    trace, with each class's event shared by every computation that
    reaches the class (the [universe.traces] span). The column is kept,
    so every later [comp] is an array read. {!enumerate},
    {!serialize}, {!deserialize}, {!class_ids}, {!prefixes_of} and
    [`Canonical] {!successors} build no trace. *)

val index : t -> Trace.t -> int option
(** Exact lookup of a trace (as stored — canonical form in
    [`Canonical] mode). The trace → index table is built on the first
    [index] or {!find} of a universe (the [universe.index] span), after
    the trace column if that is not built yet, and kept on it:
    enumeration, {!serialize}, {!prefixes_of}, {!Prop.extent}, the
    counting answers and {!Formula.check} (which evaluates on extents)
    never look a trace up, so they never pay for it. *)

val find : t -> Trace.t -> int option
(** Like {!index} (and, like it, builds the trace column and the index
    on first use) but canonicalizes first in [`Canonical] mode, so any
    valid interleaving of a stored class is found. On a
    symmetry-reduced universe the lookup goes through the orbit key, so
    any interleaving of any permuted image of a stored class is found,
    and no trace column is built. *)

val find_exn : t -> Trace.t -> int
(** @raise Not_found when the trace's class is outside the universe
    (e.g. longer than [depth]). *)

val canon : t -> Trace.t -> Trace.t
(** [canon u z] is the canonical (lexicographically least) linearization
    of [z]'s event partial order. Identity in [`Full] mode semantics:
    still computes the canonical form, callers in full mode rarely need
    it. *)

val iter : (int -> Trace.t -> unit) -> t -> unit
(** [iter f u] applies [f] to every index and trace in index order,
    building the trace column first if no trace was read yet (see
    {!comp}). *)

val fold : (int -> Trace.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Like {!iter}, with an accumulator; builds the trace column likewise. *)

val class_ids : t -> Pid.t -> int array
(** [class_ids u p] assigns to each computation index the id of its
    [\[p\]]-class: [x \[p\] y ⟺ ids.(ix) = ids.(iy)]. Ids are the
    projection trie's, numbered in first-occurrence order. The column is
    built on the first call for [p], in one pass over the run tree
    (computation [i] is in its parent's class unless its event is on
    [p]), and memoized; enumeration and {!Prop.extent} build none. The
    array is shared; do not mutate it. *)

val pset_class_ids : t -> Pset.t -> int array
(** Same for a process set [P] (intersection of the per-process
    partitions). For a one-process set it is {!class_ids} itself, whose
    ids are already dense and numbered in first-occurrence order; a
    larger set combines the per-process ids into fresh ones, memoized
    per set. For the empty set all computations share class 0, matching
    [x \[{}\] y] for all x, y. The array is shared; do not mutate it.

    Raises [Invalid_argument] on a symmetry-reduced universe. Every
    knowledge operator ([K], [E], [S], [sure], [CK]) reads the
    partitions through here, and over orbit representatives they would
    quantify over the representatives rather than over every
    computation; {!successors} refuses such a universe likewise. *)

val class_members : t -> Pset.t -> int -> Bitset.t
(** [class_members u ps i] is the set of indices [\[P\]]-equivalent to
    [i] (always contains [i]). *)

val classes : t -> Pset.t -> Bitset.t array
(** All [\[P\]]-classes, indexed by class id; memoized. *)

val prefixes_of : t -> int -> int list
(** Indices of all stored computations that are prefixes of computation
    [i] (in [`Canonical] mode: whose class representative is a prefix),
    shortest first: [0], then down the run tree to [i]. It walks the
    parent indices, since a stored computation extends its parent by
    one event and a prefix of a canonical trace is canonical, so no
    trace is built or looked up. *)

val successors : t -> int array array
(** [(successors u).(i)] are the indices of computation [i]'s one-event
    extensions that the universe stores, ascending and distinct — the
    branching relation of {!Temporal}'s operators: [{find u (z;e) |
    e ∈ Spec.enabled z}] for [z = comp u i]. A leaf (including a
    computation whose extensions a budget cut off) has none.

    Computed once per universe and memoized beside the class
    partitions, so a cached universe answers every later temporal
    query without recomputing it; the arrays are shared, do not
    mutate them. In [`Canonical] mode the edges are read off the
    projection trie — [i → j] iff [j]'s class-id vector with one
    process stepped back to its trie parent is [i]'s — with no trace
    built or canonicalized (DESIGN.md §6); [`Full] mode evaluates the
    definition through {!find}. Recorded as the [universe.successors]
    span. Raises [Invalid_argument] on a symmetry-reduced universe: a
    representative's stored extensions are not its branching
    structure. *)

val serialize : t -> (string, string) result
(** Compact binary body of the universe's stored form: each process's
    projection trie written once (per class id, its parent class and
    its one event, payloads and tags through a first-occurrence string
    table), then one (parent index, pid, class id) triple per
    computation. Each class's parent and event are read off the trie,
    and parents and class ids off the run tree, so no trace is built
    and no trace index either. The spec
    itself is {e not} stored; pair the body with a cache key that pins
    down (protocol, params, depth, faults, reduce, mode) and hand the
    same spec back to {!deserialize}. [Error] for symmetry-reduced
    universes, whose orbit tables have no serialized form. The body
    carries no framing — version stamp, key and checksum belong to the
    snapshot container layered on top (DESIGN.md §14). *)

val deserialize : Spec.t -> string -> (t, string) result
(** Rebuild a universe from a {!serialize} body: one event per class,
    then the run tree from the triples, so [class_ids], [find] and
    every knowledge query answer bit-identically to the originally
    enumerated universe. No class-id column and no trace column is
    built here: the depth check reads a depth column kept only for the
    load, and the [Spec.valid] spot check builds the deepest
    computation's trace alone, from its parent chain. Every read
    is bounds-checked and cross-validated: per class, its parent class
    comes earlier, it is no other class's step, and its process's rule
    allows its event; per computation, its parent comes earlier, its
    class extends its process's class at the parent, class ids are
    first reached in increasing order, a receive's message is in
    flight, and it is no deeper than the depth; at the end, every
    class is reached and the deepest computation satisfies
    [Spec.valid]. Any violation — truncation, bit flips, a body for a
    different spec — yields [Error], never a wrong universe. The
    per-computation checks walk up the run tree to the nearest ancestor
    that decides them, rather than scanning the parent trace. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: size, depth, mode. *)
