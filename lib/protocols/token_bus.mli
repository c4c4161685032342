(** The token bus of §4.1.

    "A linear sequence of processes among which a token is passed back
    and forth; processes at the left or right boundary have only a
    right or left neighbor to whom they may pass the token … There is
    only one token in the system and initially it is at the leftmost
    process."

    The system is given as a {!Hpl_core.Spec.t}, so the exact knowledge
    engine applies. [holds p] is a predicate local to [p]; the module
    builds the paper's showcase assertion — with five processes
    p,q,r,s,t, whenever r holds the token:

    {v r knows ((q knows ¬(p holds)) ∧ (s knows ¬(t holds))) v} *)

val spec : n:int -> Hpl_core.Spec.t
(** Raises [Invalid_argument] if [n < 2]. *)

val holds : Hpl_core.Pid.t -> Hpl_core.Prop.t
(** [holds p] — "p holds the token": initially true of p0; thereafter
    determined by p's own sends/receives of the token (local to p). *)

val token_in_flight : Hpl_core.Prop.t
(** True when the token has been sent and not yet received. *)

val exactly_one_holder_or_flight : n:int -> Hpl_core.Prop.t
(** The bus invariant: exactly one process holds the token, unless it
    is in flight. *)

val paper_assertion : Hpl_core.Universe.t -> Hpl_core.Bitset.t
(** The extent of the nested-knowledge formula above, over a universe
    of the 5-process bus. Raises [Invalid_argument] on other sizes. *)

val check_paper_claim : Hpl_core.Universe.t -> bool
(** Verifies over the whole universe: whenever r (= p2) holds the
    token, {!paper_assertion} holds. *)

val holder_at : n:int -> Hpl_core.Trace.t -> Hpl_core.Pid.t option
(** Who holds the token (None while in flight). *)

val protocol : Protocol.t
(** Registry entry (see {!Protocol.Registry}); for simulation-first
    modules this carries the bounded knowledge-view spec. *)
