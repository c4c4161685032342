(** Knowledge predicates (§4.1).

    [(P knows b) at x ≡ ∀y. x \[P\] y ⇒ b at y]: [P] knows [b] when [b]
    holds at every computation [P] cannot distinguish from the actual
    one. Over a bounded universe the quantifier is effective, and a
    predicate is exactly its extent ({!Prop.extent}): [knows_ext] maps
    the extent of [b] to the extent of [P knows b], a class-wise AND
    over the [\[P\]]-partition computed in O(universe) per
    application. Nesting ([P knows Q knows b]) is composition of these
    maps ({!nested_ext}); "b at x" is membership of [x]'s index.

    The quantifier ranges over the stored computations. On a
    symmetry-reduced universe those are orbit representatives only, so
    every operator here raises [Invalid_argument] there (through
    {!Universe.pset_class_ids}) rather than quantify over them
    (DESIGN.md §10).

    The {!Laws} submodule makes the paper's twelve knowledge facts and
    Lemma 2 decidable; tests and experiment E6 drive them over random
    universes and predicates. *)

val knows_ext : Universe.t -> Pset.t -> Bitset.t -> Bitset.t
(** [knows_ext u p ext] is the extent of "[P] knows [b]" for [ext] the
    extent of [b]: the indices whose whole [\[P\]]-class lies in
    [ext]. *)

val knows_ext_naive : Universe.t -> Pset.t -> Bitset.t -> Bitset.t
(** Reference implementation scanning all pairs with the trace-level
    [\[P\]] test — O(size² · |P| · len) against {!knows_ext}'s
    O(size). Same answers (property-tested); kept for the P1 ablation
    bench. *)

val nested_ext : Universe.t -> Pset.t list -> Bitset.t -> Bitset.t
(** [nested_ext u \[P1;…;Pn\] ext] is the extent of "[P1] knows [P2]
    knows … [Pn] knows [b]" for [ext] the extent of [b]; with the empty
    list it is [ext] itself. *)

val sure_ext : Universe.t -> Pset.t -> Bitset.t -> Bitset.t
(** [(P sure b) at x ≡ (P knows b) at x ∨ (P knows ¬b) at x] (§4.2):
    the union of {!knows_ext} of the extent and of its complement.
    [P] is unsure of [b] on the complement. *)

(** {1 Robustness under faults}

    How much of a predicate's knowledge extent survives a fault model?
    The comparison enumerates the same spec twice — untransformed and
    through a fault transformer (a [Spec.t -> Spec.t] function such as
    those of the [Hpl_faults] library) — and compares how prevalent
    [P knows b] is in each universe. *)

type verdict =
  | Robust  (** knowledge at least as prevalent under faults *)
  | Degraded  (** still attainable under faults, but strictly rarer *)
  | Destroyed  (** attainable fault-free, never attained under faults *)
  | Vacuous  (** never attained even fault-free — nothing to compare *)

type provenance =
  | Exact
      (** both universes enumerated to completion — the prevalences (and
          hence the verdict) are exact statements about depth-bounded
          computations *)
  | Bound
      (** at least one universe was {!Universe.Truncated} by its budget:
          the prevalences are over the explored prefix only, so the
          verdict is evidence, not proof — in particular a [Destroyed]
          only says no witness was found {e within the budget}. For
          systems beyond exact reach, [Hpl_mc.Mc.estimate_robust] gives
          a statistical verdict with a confidence interval instead. *)

type robustness = {
  verdict : verdict;
  provenance : provenance;
      (** whether the verdict is an exact depth-bounded statement or a
          budget-relative bound *)
  baseline_hits : int;  (** computations where [P knows b], fault-free *)
  baseline_size : int;
  faulty_hits : int;  (** same count in the transformed universe *)
  faulty_size : int;
  baseline_status : Universe.status;
  faulty_status : Universe.status;
      (** which side(s) were truncated, with the triggering budget —
          the detail behind [provenance] *)
}

val verdict_to_string : verdict -> string
val provenance_to_string : provenance -> string
val pp_robustness : Format.formatter -> robustness -> unit

val robust_under :
  ?mode:Universe.mode ->
  ?budget:Universe.budget ->
  ?faulty_depth:int ->
  ?view:(Trace.t -> Trace.t) ->
  Spec.t ->
  transform:(Spec.t -> Spec.t) ->
  depth:int ->
  Pset.t ->
  Prop.t ->
  robustness
(** [robust_under spec ~transform ~depth ps b] compares the prevalence
    of [ps knows b] across [enumerate spec ~depth] and
    [enumerate (transform spec) ~depth:faulty_depth] (default
    [faulty_depth = depth]; routed fault models need roughly double —
    see [Hpl_faults.Faults.Scenario.suggested_depth]). [view] (default
    identity) translates each faulty computation to its fault-free
    observation before evaluating [b], so predicates written against
    the original system apply unchanged ([Hpl_faults.Faults.view] for
    routed models). Prevalences are compared as exact rationals, so
    different universe sizes are handled correctly. *)

(** The paper's facts about knowledge, each decided over the whole
    universe for given [P], [Q], [b], [b']. Numbering follows §4.1. *)
module Laws : sig
  val fact1_class_invariant : Universe.t -> Pset.t -> Prop.t -> bool
  (** (1)+(2): the extent of [P knows b] is a union of [\[P\]]-classes. *)

  val fact3_monotone_union : Universe.t -> Pset.t -> Pset.t -> Prop.t -> bool
  (** (3) [(P knows b) ⇒ (P ∪ Q knows b)]. *)

  val fact4_veridical : Universe.t -> Pset.t -> Prop.t -> bool
  (** (4) [(P knows b) ⇒ b]. *)

  val fact5_total : Universe.t -> Pset.t -> Prop.t -> bool
  (** (5) [(P knows b) ∨ ¬(P knows b)] — totality. *)

  val fact6_conjunction : Universe.t -> Pset.t -> Prop.t -> Prop.t -> bool
  (** (6) [(P knows b) ∧ (P knows b') = P knows (b ∧ b')]. *)

  val fact7_disjunction : Universe.t -> Pset.t -> Prop.t -> Prop.t -> bool
  (** (7) [(P knows b) ∨ (P knows b') ⇒ P knows (b ∨ b')]. *)

  val fact8_consistency : Universe.t -> Pset.t -> Prop.t -> bool
  (** (8) [(P knows ¬b) ⇒ ¬(P knows b)]. *)

  val fact9_closure : Universe.t -> Pset.t -> Prop.t -> Prop.t -> bool
  (** (9) [(P knows b) ∧ (b ⇒ b') ⇒ (P knows b')], premise read as
      [b ⇒ b'] valid on the universe. *)

  val fact10_positive_introspection : Universe.t -> Pset.t -> Prop.t -> bool
  (** (10) [P knows P knows b = P knows b]. *)

  val fact11_negative_introspection : Universe.t -> Pset.t -> Prop.t -> bool
  (** (11, Lemma 2) [P knows ¬(P knows b) = ¬(P knows b)]. *)

  val fact12_constants : Universe.t -> Pset.t -> bool -> bool
  (** (12) [P knows c] for constant [c = true]; for [c = false] it
      fails everywhere (classes are nonempty). *)
end
