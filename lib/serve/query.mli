(** The shared query engine behind both [hpl] subcommands and the
    server (DESIGN.md §14).

    Conformance between the CLI and [hpl serve] is not tested into
    existence — it is obtained by construction: both front ends resolve
    requests with {!resolve}/{!resolve_reduce} and render answers with
    the [run_*] functions below, which build the exact bytes the CLI
    prints into an {!outcome}. The CLI writes [outcome.out] to stdout
    and [outcome.err] to stderr and exits with [outcome.code]; the
    server embeds the same strings in its JSON reply. The conformance
    battery in [test/serve_tests.ml] then checks the byte equality
    end-to-end through real processes, guarding against the two paths
    drifting apart.

    All argument parsing takes raw strings and produces the same
    one-line diagnostics the CLI has always printed (callers prefix
    ["hpl: "] and exit 2 — or wrap into a JSON error reply). *)

open Hpl_core
open Hpl_faults
open Hpl_protocols
open Hpl_analysis

type setup = {
  inst : Protocol.instance;
  loaded : Elaborate.loaded option;
      (** elaborated AST when the protocol came from a .hpl file *)
  spec : Spec.t;  (** fault-transformed when a scenario is given *)
  base_n : int;  (** process count before fault routing *)
  depth : int;
  budget : Universe.budget;
  view : Trace.t -> Trace.t;
      (** faulty computation -> fault-free observation *)
  scenario : Faults.Scenario.t option;
  faults_str : string option;  (** the raw [--faults] argument *)
  src_key : string;
      (** canonical protocol identity for cache keys: the registry
          instance name, or [file=path#fnv:instance] for .hpl specs
          (content-hashed, so editing the file invalidates entries) *)
}

val load :
  string -> (Protocol.instance * Elaborate.loaded, string) result
(** Load a [.hpl] spec as [path[:v1[:v2...]]]. Every call reads the
    file and hashes its bytes (FNV-64), so an edit is seen at once. The
    validated result is memoized under the path, that hash and the
    parameters: a call on unchanged bytes returns the very instance an
    earlier call elaborated, without lexing, parsing, elaborating or
    validating again. This is the path {!resolve} takes for [-f], so a
    server frame on a cached spec pays for the read and the hash alone.
    Errors are never memoized, and the memo is cleared when it holds 64
    loads. *)

val resolve_proto :
  ?proto:string ->
  ?file:string ->
  unit ->
  (Protocol.instance * Elaborate.loaded option, string) result
(** Registry ([-s], default [ping-pong]) or spec file ([-f]), mutually
    exclusive. *)

(** {2 Argument validators}

    The checks {!resolve} applies to its raw arguments, for subcommands
    that parse some of the same flags without building a {!setup}. *)

val parse_depth : string -> (int, string) result
(** A nonnegative [--depth]. *)

val parse_pos_int : string -> string -> (int, string) result
(** [parse_pos_int flag s]: a positive integer, with [flag] (e.g.
    ["--max-states"]) named in the diagnostic. *)

val parse_nonneg_int : string -> string -> (int, string) result
(** [parse_nonneg_int flag s]: a nonnegative integer, likewise. *)

val parse_finite_float :
  string -> [ `Any | `Positive | `Nonneg ] -> string -> (float, string) result
(** [parse_finite_float flag sign s]: a finite number ([nan] and the
    infinities are refused), positive or nonnegative when [sign] says
    so — for the simulations' time flags. *)

val parse_faults : string -> (Faults.Scenario.t, string) result
(** A [--faults] scenario, parsed but not yet applied to a spec. *)

val resolve :
  ?proto:string ->
  ?file:string ->
  ?depth:string ->
  ?faults:string ->
  ?max_states:string ->
  ?max_seconds:string ->
  unit ->
  (setup, string) result
(** Resolve raw request arguments into everything a universe-driven
    query needs, validating exactly as the CLI does (including static
    channel validation of [drop:]/[dup:] scenarios). *)

val dataflow :
  loaded:Elaborate.loaded option ->
  Protocol.instance ->
  Dataflow.t option
(** Flow analysis of an instance: through its elaborated AST when it
    came from a file, otherwise through the embedded [.hpl] spec that
    defines the registry protocol ([None] for one defined in OCaml). *)

val resolve_reduce :
  setup ->
  mode:Universe.mode ->
  ?indep:bool ->
  string ->
  (Symmetry.group option, string) result
(** Parse and validate a [--reduce] argument against the setup:
    ["none"] is [None]; ["sym"] is the protocol's declared symmetry
    group, and an error in [`Full] mode, under [--faults], or when the
    protocol declares no generators. [indep] selects nothing; it stays
    only because [benchmark/replay.ml] passes it.
    Only enumeration takes a reduction: [knows], [check] and [extent]
    enumerate with [~reduce:None], because the knowledge and temporal
    operators refuse a symmetry-reduced universe. *)

val enumerate :
  ?mode:Universe.mode -> setup -> reduce:Symmetry.group option -> Universe.t
(** [Universe.enumerate] with the setup's spec, depth and budget, reduced
    by [reduce]'s group when there is one. *)

type outcome = { out : string; err : string; code : int }
(** Exactly what a CLI invocation would do: bytes for stdout, bytes for
    stderr, and the exit code (0 ok; 1 property violated; 2 bad
    arguments; 3 budget-truncated). *)

val run_stats : Universe.t -> outcome
(** The [enumerate] summary line. *)

val run_knows : setup -> Universe.t -> outcome
(** The [knows] report: every registered atom's per-process knowledge
    counts, routed through the fault view. *)

val run_check : setup -> Universe.t -> Formula.t -> outcome
(** The [check] verdict for a pre-parsed formula. *)

val run_extent : setup -> Universe.t -> atom:string -> outcome
(** The [extent] report: in how many stored computations one named atom
    holds. *)
