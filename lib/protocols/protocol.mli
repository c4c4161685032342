(** First-class protocols and the central registry.

    Each builtin protocol is defined either by an OCaml module under
    [lib/protocols/] or by its embedded [.hpl] text ({!Corpus},
    elaborated by {!Elaborate}); this module gives them a single uniform
    surface — a {!t} record carrying the protocol's name, documentation,
    integer parameters (with defaults and validation), a generative
    {!Hpl_core.Spec.t} for the exact knowledge engine, named atomic
    predicates for the formula language, and optionally a canonical
    trace plus a suggested enumeration depth — and a {!Registry} keyed
    by name, so the CLI, tests, and examples can drive {e any} protocol
    without protocol-specific code.

    The paper's results (isomorphism, the twelve knowledge facts,
    Theorems 4–6) are quantified over arbitrary systems; the registry is
    what lets the tooling quantify over them too. Simulation-first
    modules register a small bounded {e knowledge-view} spec — the
    message skeleton of the protocol, suitable for exact enumeration —
    alongside their full discrete-event implementation. *)

open Hpl_core

(** {1 Parameters} *)

type param = {
  key : string;  (** parameter name, e.g. ["n"] *)
  default : int;
  lo : int;  (** inclusive lower bound *)
  hi : int option;  (** inclusive upper bound, if any *)
  pdoc : string;  (** one-line description *)
}

type values = (string * int) list
(** Resolved parameter values, one binding per declared {!param}. *)

val param : ?lo:int -> ?hi:int -> string -> int -> string -> param
(** [param key default doc] declares an integer parameter; [lo] defaults
    to 1. *)

val get : values -> string -> int
(** Look up a resolved value. Raises [Invalid_argument] on an undeclared
    key — registration bugs, not user errors. *)

(** {1 The protocol record} *)

type t = {
  name : string;  (** registry key, matches [[a-z0-9-]+] *)
  doc : string;  (** one-line description for [hpl list] *)
  params : param list;  (** positional: [name:v1:v2:…] *)
  spec : values -> Spec.t;  (** the generative system *)
  atoms : values -> (string * Prop.t) list;
      (** named atomic predicates usable in formulas *)
  symmetry : values -> Symmetry.perm list;
      (** generators of a pid-permutation group under which the spec is
          invariant (automorphisms) — declares eligibility for
          [--reduce sym] (DESIGN.md §10). The registry test suite
          validates each generator with
          {!Hpl_core.Symmetry.is_automorphism}. *)
  canonical_trace : (values -> Trace.t) option;
      (** a distinguished valid computation, when one is worth naming *)
  suggested_depth : int;  (** sensible enumeration depth bound *)
  fault_scenarios : string list;
      (** fault scenarios (CLI [--faults] syntax) that are meaningful
          for this protocol — shown by [hpl list -v], exercised by the
          registry fault tests *)
  lint_expect : string list;
      (** findings the static analyzer ([hpl lint]) is expected to
          report for this protocol — each entry a rule id (["dead-letter"])
          or rule-at-target (["dead-letter@p0->p1"]). Expected findings
          are annotated in the report and do not fail the lint gate. *)
}

val make :
  name:string ->
  doc:string ->
  ?params:param list ->
  ?atoms:(values -> (string * Prop.t) list) ->
  ?symmetry:(values -> Symmetry.perm list) ->
  ?canonical_trace:(values -> Trace.t) ->
  ?suggested_depth:int ->
  ?fault_scenarios:string list ->
  ?lint_expect:string list ->
  (values -> Spec.t) ->
  t
(** [suggested_depth] defaults to 6, [symmetry], [fault_scenarios] and
    [lint_expect] to empty. Raises [Invalid_argument] on a malformed
    name. *)

val name : t -> string
val doc : t -> string
val params : t -> param list
val suggested_depth : t -> int
val fault_scenarios : t -> string list
val lint_expect : t -> string list

val defaults : t -> values
(** Every parameter at its default. *)

(** {1 Instances — a protocol plus resolved parameters} *)

type instance

val proto : instance -> t
val values : instance -> values

val instantiate : t -> int list -> (instance, string) result
(** Positional parameters; missing ones take their defaults. [Error]
    explains a bound violation or an excess argument. *)

val default_instance : t -> instance
val spec_of : instance -> Spec.t
val atoms_of : instance -> (string * Prop.t) list

val atom_env : instance -> string -> Prop.t option
(** The instance's atoms as a formula environment: the [env] of
    {!Hpl_core.Formula.eval} and {!Hpl_core.Formula.check}. *)

val generators_of : instance -> Symmetry.perm list
(** The declared symmetry generators at this instance's parameters. *)

val symmetry_of : instance -> Symmetry.group option
(** The declared symmetry as a materialized group (closure of
    {!generators_of}); [None] when the protocol declares none. Feed to
    {!Hpl_core.Universe.enumerate}'s [symmetry]. *)

val canonical_trace_of : instance -> Trace.t option
val depth_of : instance -> int

val instance_name : instance -> string
(** Round-trips through {!Registry.parse}: ["token-bus:7"]. *)

(** {1 History and predicate helpers}

    Shared by the registered knowledge-view specs; all operate on a
    process's local history or projection, preserving locality. *)

val sends : Event.t list -> int
val recvs : Event.t list -> int

val sends_of : Event.t list -> string -> int
(** Sends with exactly this payload. *)

val recvs_of : Event.t list -> string -> int
val did : Event.t list -> string -> bool

val did_prop : string -> Pid.t -> string -> Prop.t
(** [did_prop name p tag] — "p performed internal event [tag]"; local
    to [p]. *)

val received_prop : string -> Pid.t -> string -> Prop.t
val sent_prop : string -> Pid.t -> string -> Prop.t

val star_spec :
  n:int ->
  ?quorum:int ->
  ?work:string ->
  request:string ->
  reply:string ->
  finish:string ->
  unit ->
  Spec.t
(** The star skeleton shared by wave/collect protocols: process 0 sends
    [request] to every other process in pid order; each optionally
    performs internal [work], then replies [reply]; after [quorum]
    replies (default: all) the hub performs internal [finish]. Raises
    [Invalid_argument] if [n < 2] or the quorum is out of range. *)

val first_walk : Spec.t -> depth:int -> Trace.t
(** Follow the first enabled event up to [depth] steps — a valid
    computation by construction (the registry test suite checks it is
    found in the enumerated universe). *)

(** {1 The registry} *)

module Registry : sig
  val register : t -> unit
  (** Raises [Invalid_argument] on a duplicate name. Protocols register
      via {!Builtins}; out-of-tree protocols may call this directly. *)

  val register_lazy : string -> t Lazy.t -> unit
  (** [register_lazy name t] registers [t] under [name] without forcing
      it; the first {!find} or {!list} that reaches it does. [t] must
      force to a protocol named [name]. Raises [Invalid_argument] on a
      duplicate name. *)

  val find : string -> t option

  val list : unit -> t list
  (** All registered protocols, sorted by name; forces every entry. *)

  val parse : string -> (instance, string) result
  (** One generic parser for the CLI surface: ["name[:v1[:v2…]]"],
      validated against the declared parameters. *)
end
