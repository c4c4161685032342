(** The reduction layer: what {!Universe.enumerate} may collapse.

    Two cooperating reductions (DESIGN.md §10):

    - {e symmetry}: given a group of spec automorphisms (declared by the
      protocol, see {!Symmetry}), store one representative per orbit of
      [\[D\]]-classes. The quotient is for counting and listing only:
      the knowledge and temporal operators quantify over every
      computation, so they refuse a symmetry-reduced universe
      ({!Universe.pset_class_ids}, {!Universe.successors}) and run on
      the unreduced one.
    - {e partial order} ([por]): an ample-set restriction armed by a
      static {!Independence.t} (attach with {!with_independence};
      computed by the abstract interpreter, [Hpl_analysis.Dataflow]).
      Plain {!por} with no independence attached runs the unreduced
      canonical enumeration — same computations, same order, same
      class ids.

    [full] combines both. Reductions require [`Canonical] mode.

    When an attached independence relation's no-truncation certificate
    holds ({!Independence.applicable}), enumeration restricts some
    states to a singleton ample set ({!restrict}), actually pruning.
    The contract weakens from bit-identity to {e blocked-preservation}:
    every blocked (quiescent) computation class of the unreduced
    universe survives, with its canonical representative; only states
    on the way to other interleavings of the same classes are dropped.
    On specs where the restriction never fires (no stable process ever
    holds the least enabled event alone) the result is still
    bit-identical. *)

type t

val none : t
val por : t
val sym : Symmetry.group -> t
val full : Symmetry.group -> t

val is_none : t -> bool
val symmetry : t -> Symmetry.group option
val uses_por : t -> bool
val label : t -> string
(** ["none"], ["por"], ["sym"] or ["full"]. *)

(** {2 Static independence}

    Facts a static analyzer proves about a spec, consumed by the
    ample-set restriction. [stable.(p)] means process [p] performs no
    receive in any reachable history (so its enabled set depends only
    on its own events); [bound.(p)] is a finite upper bound on the
    number of events [p] performs in any computation. *)

module Independence : sig
  type t

  val make : stable:bool array -> bound:int array -> t
  (** Arrays indexed by pid; raises [Invalid_argument] on a length
      mismatch. *)

  val applicable : t -> depth:int -> bool
  (** The no-truncation certificate: [Σ bound <= depth], so every
      depth-limited leaf is genuinely blocked. Restriction must not be
      used when this is false. *)

  val stable : t -> int -> bool
  val bound : t -> int -> int
  val total : t -> int
  val n : t -> int
end

val with_independence : t -> Independence.t -> t
(** Attach an independence relation (meaningful with {!por}/[full];
    enumeration additionally checks {!Independence.applicable} at its
    depth before restricting). *)

val independence : t -> Independence.t option

(** {2 CLI-facing mode} *)

type mode = [ `None | `Sym | `Por | `Full ]

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

val resolve : mode -> symmetry:Symmetry.group option -> (t, string) result
(** Combine a requested mode with a protocol's declared symmetry group.
    [`Sym]/[`Full] without a group is an error (the message names the
    remedy). *)

(** {2 The ample-set restriction} *)

val restrict : Independence.t -> Event.t list -> Event.t list
(** [restrict ind cands] — the singleton ample set used by
    {!Universe.enumerate}. [cands] must be a state's full {!Spec.enabled}
    list (sorted, pid-major). If the head's process is stable and has no
    other candidate, returns just the head; otherwise [cands] unchanged.
    Sound for blocked-computation preservation only under
    {!Independence.applicable} — the caller gates on it. *)
