(** Monte Carlo statistical model checking.

    The exact engine ({!Hpl_core.Universe.enumerate}) is the ground
    truth but exponential: with reduction it tops out near depth 9—10,
    and §5's impossibility results (coordinated attack, failure
    detection) live exactly where faults blow the universe up. This
    layer trades certainty for scale: seeded random walks through a
    {!Hpl_core.Spec.t}'s extension relation — fault transformers
    applied first, so every [--faults] scenario works unchanged —
    estimate atom extents, [knows]/common-knowledge prevalence, and
    robustness verdicts as point estimates with Wilson confidence
    intervals, at depths where enumeration is hopelessly Truncated.

    {2 The estimand: schedule measure}

    A random walk picks uniformly among the enabled extensions at every
    step, for [depth] steps or until deadlock. That defines a
    probability measure μ over computations — the {e uniform-scheduler
    measure} — and every estimate here is of the μ-probability that a
    formula holds at the walk's endpoint. This is {b not} the uniform
    distribution over the universe (interleavings with fewer
    scheduling choices are likelier), and the exact side of the
    cross-validation ({!exact_prevalence}) computes the {e same}
    μ-prevalence as a rational by dynamic programming over the
    extension tree, so the estimator is validated against its own
    estimand. The measure is the natural one operationally: it is what
    a memoryless random scheduler produces.

    {2 Knowledge}

    [K P φ] at an endpoint [z] is estimated by {e peer resampling}:
    constrained walks that pin every [P]-process to replay its exact
    projection of [z] (so each accepted peer [y] satisfies [y \[P\] z]
    by construction) while the rest of the system walks freely. If any
    sampled peer refutes [φ], knowledge is refuted — soundly, since the
    peer is a real indistinguishable computation. If no sampled peer
    refutes it, knowledge is reported — this direction is approximate
    and {e upper-biased}: unsampled peers could still refute it. [CK]
    is approximated by [E^k] ([ck_depth] levels of "everyone knows"),
    an upper bound on common knowledge (CK = ∩ₖ Eᵏ) — ideal for
    impossibility demonstrations, where even the generous bound hits
    zero. Temporal operators are rejected: a walk endpoint has no
    branching structure to quantify over.

    Estimates are replayable: the same seed gives bit-identical
    estimates and walk sequences ({!Hpl_sim.Rng.split} derives one
    independent splitmix64 stream per walk). *)

open Hpl_core

(** Exact rationals over [int], normalized, overflow-checked — wide
    enough for μ-prevalences at cross-validation depths (denominators
    divide products of per-step branching factors). *)
module Rat : sig
  type t

  exception Overflow
  (** Raised by arithmetic whose intermediate values leave the [int]
      range. Callers treat it as "no exact value at this depth". *)

  val zero : t
  val one : t

  val make : int -> int -> t
  (** [make num den] normalized; raises [Invalid_argument] on a zero
      denominator. *)

  val add : t -> t -> t
  val mul : t -> t -> t
  val div_int : t -> int -> t
  val num : t -> int
  val den : t -> int
  val to_float : t -> float
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** {1 Confidence intervals} *)

type ci = { lo : float; hi : float; level : float }

val z_of_level : float -> float
(** Two-sided normal quantile for a confidence level in (0, 1):
    [z_of_level 0.95 ≈ 1.96]. (Acklam's rational approximation,
    |ε| < 1.2e-9.) *)

val wilson : hits:int -> runs:int -> level:float -> ci
(** Wilson score interval for [hits] successes in [runs] Bernoulli
    trials. Unlike the normal approximation it behaves at the
    boundaries: [hits = 0] gives [lo = 0] with an informative [hi], and
    the interval excludes 1 exactly when [hits < runs]. [runs = 0]
    gives the vacuous [\[0, 1\]]. *)

val covers : ci -> float -> bool
(** [covers c x]: is [x] inside [c] (with a 1e-9 float tolerance)? *)

(** {1 Configuration} *)

type config = {
  runs : int;  (** walks to sample (>= 1) *)
  depth : int;  (** maximum walk length *)
  seed : int64;  (** replay seed; one split stream per walk *)
  level : float;  (** confidence level in (0, 1), e.g. 0.95 *)
  peers : int;  (** peer samples per [K] evaluation *)
  peer_tries : int;
      (** rejection-sampling attempts allowed per requested peer *)
  ck_depth : int;  (** [CK] is approximated by [E^ck_depth] *)
  base_n : int option;
      (** real process count of the fault-free system — pids >= base_n
          are fault daemons; [CK] quantifies over [0..base_n); default
          [Spec.n] of the sampled spec *)
  windows : (int * int * int list) list;
      (** partition windows [(t0, t1, group)] in global {e step-index}
          coordinates: while [t0 <= step < t1], deliveries crossing the
          group boundary are blocked (delayed, not lost — they remain
          in flight and may deliver after the window closes). Usually
          [Faults.Scenario.partition_windows]; pair with a spec
          transformed by [Faults.Scenario.without_partitions]. *)
  max_seconds : float option;
      (** wall-clock budget; on exhaustion the estimate is over the
          walks completed so far, with status {!Out_of_time} *)
}

val default : config
(** 10_000 runs, depth 8, seed 1, level 0.95, 12 peers with 30 tries
    each, [ck_depth] 2, no windows, no time budget. *)

(** {1 Estimates} *)

type status = Complete | Out_of_time

type estimate = {
  hits : int;
  runs : int;  (** walks actually completed (< requested iff out of time) *)
  requested : int;
  mean : float;  (** [hits / runs] *)
  ci : ci;
  depth : int;
  seed : int64;
  elapsed : float;  (** wall-clock seconds *)
  status : status;
}

val pp_estimate : Format.formatter -> estimate -> unit

val walks : config -> Spec.t -> Trace.t list
(** The endpoint computations of the config's walks, in sampling
    order — exactly the samples the estimators visit for the same
    config (walks draw from each per-walk stream before any judging
    does). For determinism tests and inspection; ignores
    [max_seconds]. *)

val estimate_prop : ?view:(Trace.t -> Trace.t) -> config -> Spec.t -> Prop.t -> estimate
(** μ-prevalence of a plain predicate at walk endpoints. [view]
    translates a faulty computation to its fault-free observation
    before the predicate sees it (see {!Hpl_faults.Faults.view}). *)

val estimate_formula :
  ?view:(Trace.t -> Trace.t) ->
  config ->
  Spec.t ->
  env:(string -> Prop.t option) ->
  Formula.t ->
  (estimate, string) result
(** μ-prevalence of an epistemic formula at walk endpoints, with the
    knowledge semantics described above. [Error] on temporal operators,
    unbound atoms, or out-of-range process ids — checked before any
    sampling. *)

(** {1 Robustness} *)

type verdict = Robust | Degraded | Destroyed | Vacuous | Inconclusive

val verdict_to_string : verdict -> string

type robustness = {
  verdict : verdict;
  baseline : estimate;
  faulty : estimate;
}

val pp_robustness : Format.formatter -> robustness -> unit

val estimate_robust :
  config ->
  Spec.t ->
  faulty:Spec.t ->
  ?faulty_config:config ->
  ?view:(Trace.t -> Trace.t) ->
  env:(string -> Prop.t option) ->
  Formula.t ->
  (robustness, string) result
(** The statistical analogue of {!Hpl_core.Knowledge.robust_under}:
    estimate the formula's prevalence on the fault-free spec and on the
    faulty one ([faulty_config] defaults to [config]; give it the
    scaled depth and the scenario windows), then compare at the CI
    level. [Degraded]/[Destroyed] are {e confident} verdicts — the
    faulty interval lies strictly below the baseline interval
    ([Destroyed] additionally saw zero faulty hits); [Robust] means the
    faulty point estimate is no worse (intervals overlapping or
    above); [Inconclusive] means the point estimate dropped but within
    sampling noise — more runs would sharpen it; [Vacuous] means the
    baseline itself never held. *)

(** {1 Exact μ-prevalence and cross-validation} *)

val exact_prevalence :
  ?view:(Trace.t -> Trace.t) ->
  ?windows:(int * int * int list) list ->
  ?base_n:int ->
  ?max_nodes:int ->
  Spec.t ->
  depth:int ->
  Prop.t ->
  Rat.t option
(** The exact μ-measure of the predicate at walk endpoints, as a
    rational: dynamic programming over the extension tree, mirroring
    the walker exactly (same deadlock handling, same window
    filtering). [None] when the tree exceeds [max_nodes] (default
    200_000) or the rationals overflow — "no exact value at this
    depth". Exponential in [depth]; meant for small-depth validation
    only. *)

val exact_formula_prevalence :
  ?view:(Trace.t -> Trace.t) ->
  ?max_states:int ->
  Spec.t ->
  depth:int ->
  env:(string -> Prop.t option) ->
  Formula.t ->
  (Rat.t option, string) result
(** Same measure for a full epistemic formula, with the {e exact}
    knowledge semantics: the universe is enumerated ([`Full] mode, so
    it contains every walk endpoint), the formula's extent computed on
    it by {!Hpl_core.Formula.eval} and read back at each endpoint, and
    the DP weighs endpoints by μ.
    [Ok None] when enumeration hits [max_states] (default 200_000).
    Partition windows are not supported here (the exact knowledge
    classes are over the unfiltered universe). Used to test the peer
    estimator's bias direction, not for CI coverage gates. *)

type validation = {
  subject : string;  (** protocol/spec label *)
  atom : string;
  exact : Rat.t;
  est : estimate;
  ok : bool;  (** the estimate's CI covers the exact prevalence *)
}

val pp_validation : Format.formatter -> validation -> unit

val cross_validate :
  ?runs:int ->
  ?depth:int ->
  ?seed:int64 ->
  ?level:float ->
  ?max_nodes:int ->
  name:string ->
  Spec.t ->
  atoms:(string * Prop.t) list ->
  validation list
(** For each atom, compute the exact μ-prevalence at [depth] (default
    4) and a seeded estimate (default 10_000 runs, seed 1, level 0.95),
    and check CI coverage. Atoms whose exact side is unavailable
    (tree or rational overflow) are skipped. Fully deterministic for a
    fixed seed, hence replayable. *)

val cross_validate_registry :
  ?runs:int -> ?depth:int -> ?seed:int64 -> ?level:float -> unit -> validation list
(** {!cross_validate} over every registered protocol's default
    instance — the estimator-vs-exact gate CI runs (the same
    lint-vs-enumerate discipline, aimed at the sampler). *)
