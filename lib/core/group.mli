(** Group knowledge operators, on extents.

    The paper's [P knows b] quantifies over [\[P\]] — the {e pooled}
    indistinguishability of the group, which epistemic logic calls
    {e distributed knowledge}: {!Knowledge.knows_ext} of the group. Two
    other group modalities are standard and definable in the same model:

    - [everyone]: each member individually knows ([E_G b = ⋀ p knows b]);
    - [someone]: at least one member knows ([S_G b = ⋁ p knows b]).

    Like {!Knowledge.knows_ext}, each maps the extent of [b] to the
    extent of the modality. Their relationships are theorems of the
    model (checked in the test suite): [someone ⊆ everyone-on-singletons],
    [everyone ⊆ distributed] (pooling can only help), and iterating
    [everyone] strictly descends to common knowledge
    ({!Common_knowledge}). *)

val everyone_ext : Universe.t -> Pset.t -> Bitset.t -> Bitset.t
(** [everyone_ext u g ext]: every process in [g] knows [b], for [ext]
    the extent of [b]. For the empty group this is every computation
    (empty conjunction). *)

val someone_ext : Universe.t -> Pset.t -> Bitset.t -> Bitset.t
(** [someone_ext u g ext]: some process in [g] knows [b]. Empty group:
    no computation. *)

val e_iterate : Universe.t -> Pset.t -> int -> Bitset.t -> Bitset.t
(** [e_iterate u g k ext] is the extent of [E_G^k b] — "everyone knows"
    iterated [k] times ([k = 0] is [ext]). Decreasing in [k]; for
    [g = D] its limit is common knowledge
    ({!Common_knowledge.common_ext}). *)

(** Decidable relationships, for the tests. *)
module Laws : sig
  val everyone_implies_distributed : Universe.t -> Pset.t -> Prop.t -> bool
  (** [E_G b ⇒ D_G b] (pooling refines). *)

  val someone_of_singleton : Universe.t -> Pid.t -> Prop.t -> bool
  (** On singletons all three operators coincide. *)

  val distributed_monotone : Universe.t -> Pset.t -> Pset.t -> Prop.t -> bool
  (** [G ⊆ H ⇒ (D_G b ⇒ D_H b)] — the paper's fact 3. *)

  val e_chain_decreasing : Universe.t -> Pset.t -> int -> Prop.t -> bool
  (** [E^{k+1} b ⊆ E^k b] for all k below the bound. *)
end
