(** The two generals, as a knowledge ladder.

    General A decides to attack and messages B; acknowledgements bounce
    back and forth. Message loss needs no extra machinery in the §2
    model: a computation in which a sent message is simply never
    received is already a valid computation, so every rung of the
    acknowledgement ladder is optional.

    The knowledge content, verified exactly on the bounded universe:
    after [k] successfully delivered messages the chain
    [A knows B knows A knows … (k alternations) … attack] holds and the
    [k+1]-st alternation does not — each additional level of mutual
    knowledge costs one more message (Theorem 5 instantiated) — and
    common knowledge of the attack is never attained (the corollary to
    Lemma 3: it is constant, and it is false initially). *)

val spec : Hpl_core.Spec.t
(** Two processes: A = p0, B = p1. A may decide (internal "decide") and
    then send "attack"; each side acknowledges the latest message it
    received; any message may remain undelivered forever. *)

val attack_decided : Hpl_core.Prop.t
(** "A has decided to attack" — local to A. *)

val knowledge_ladder : Hpl_core.Universe.t -> depth:int -> Hpl_core.Bitset.t
(** [knowledge_ladder u ~depth:k] is the extent of the alternating
    chain with [k] knowledge operators:
    [A knows B knows A knows … attack_decided]
    (outermost is A for odd positions from the top; depth 0 is the
    predicate itself; depth 1 is [B knows attack]). *)

val ladder_trace : rounds:int -> Hpl_core.Trace.t
(** The canonical run in which the attack message and [rounds − 1]
    acknowledgements are all delivered. *)

val max_depth_at : Hpl_core.Universe.t -> Hpl_core.Trace.t -> int
(** The largest [k] for which [knowledge_ladder ~depth:k] holds at the
    given computation (bounded by the universe depth). Raises
    [Not_found] if the computation is outside the universe. *)

val common_knowledge_never : Hpl_core.Universe.t -> bool
(** CK(attack_decided) is false at every computation of the universe. *)

val protocol : Protocol.t
(** Registry entry (see {!Protocol.Registry}); for simulation-first
    modules this carries the bounded knowledge-view spec. *)
