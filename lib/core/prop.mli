(** Predicates on system computations (§4.1).

    A predicate assigns a truth value to every computation. The paper
    requires predicates to be interleaving-invariant:
    [x \[D\] y ⇒ (b at x = b at y)] — values depend on the component
    processes' computations, not the linear order of independent events.
    {!respects_interleaving} checks this on a universe, and every
    combinator preserves it.

    Predicates carry a name for printing (e.g. ["¬(p0 holds token)"]).
    The knowledge operators ({!Knowledge}, {!Group},
    {!Common_knowledge}) take and return a predicate's {!extent}, not a
    [t]. *)

type t

val make : string -> (Trace.t -> bool) -> t
val name : t -> string
val eval : t -> Trace.t -> bool
(** [eval b x] is the paper's "b at x". *)

val tt : t
(** The constant [true] predicate. *)

val ff : t
(** The constant [false] predicate. *)

val const : bool -> t

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val conj : t list -> t
val disj : t list -> t

val local_event_count : Pid.t -> (int -> bool) -> string -> t
(** [local_event_count p f name] holds at [x] iff [f (|x|_p)] — a
    typical local predicate: depends only on [p]'s computation. *)

val extent : Universe.t -> t -> Bitset.t
(** [extent u b] is the set of universe indices where [b] holds —
    the extensional form used by the knowledge engine. *)

val respects_interleaving : Universe.t -> t -> bool
(** Checks [x \[D\] y ⇒ b at x = b at y] over all pairs in [u]
    (meaningful on [`Full] universes; trivially true on canonical
    ones). *)

val is_constant : Universe.t -> t -> bool
(** The paper's "b is a constant": same value at every computation. *)

val pp : Format.formatter -> t -> unit
