(** Common knowledge (§4.2), on extents.

    [b is common knowledge] is the greatest fixpoint of
    [ck = b ∧ ⋀p (p knows ck)]: [b] holds, everyone knows it, everyone
    knows everyone knows it, and so on. Its depth-[k] approximations
    are {!Group.e_iterate} over [D]. The paper's corollary to Lemma 3:
    in a system with more than one process, common knowledge is
    {e constant} — it can be neither gained nor lost. Experiment E7
    exhibits this on concrete systems. *)

val common_ext : Universe.t -> Bitset.t -> Bitset.t
(** [common_ext u ext] is the extent of ["b is CK"] for [ext] the
    extent of [b]: the greatest fixpoint, computed by iterating the
    (monotone, shrinking) operator to stability. *)

val attainable : ?level:int -> Universe.t -> Prop.t -> bool
(** [attainable u b]: does ["b is CK"] hold at {e some} computation of
    [u]? With [~level:k] it asks about the [E^k] approximation instead
    (everyone knows … [k] deep). By the constancy corollary, full CK is
    attainable iff it holds at the empty computation — so over a lossy
    channel a fact that is not initially common knowledge never becomes
    so, while [E^k] levels can still climb as messages are delivered. *)

val constancy_holds : Universe.t -> Prop.t -> bool
(** The corollary checker: with ≥ 2 processes, ["b is CK"] is constant
    over the universe. *)

val iterations_to_fixpoint : Universe.t -> Prop.t -> int
(** Number of operator applications until stability — a measure used by
    experiment E7. *)
