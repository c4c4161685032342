(** Abstract interpretation over protocol rules ([hpl flow]) — guard
    satisfiability, dead rules, a static channel graph, and the static
    independence relation POR consumes. No trace is ever constructed.

    The analyzer interprets the elaborated [.hpl] AST of a spec's rules:
    a loaded spec's ({!of_loaded}), or for a registry protocol the
    embedded [corpus/specs] text that defines it ({!of_instance}) —
    rule closures are opaque. Guards are evaluated in an
    interval domain over the local-history counters ([len], [sends],
    [recvs], [sends "m"], [recvs "m"], [sends_to(d)], [did "t"]);
    parameters, loop variables and [me] are concrete at the analyzed
    instance, so only history counters are abstract.

    {2 The two phases}

    {e Caps}: each intent gets a static bound on how many times it can
    fire, read off guard conjuncts that threshold a counter the intent
    increments ([sends < k], [recvs <= k], [sends_to(d) == k] for a
    send to [d], [c == k], [!did "t"]) —
    counters are monotone over a local history, so a threshold is a
    firing budget. Receive totals are additionally bounded by message
    conservation: a process cannot receive more than every peer can
    send to it.

    {e Liveness fixpoint}: starting from the empty-history state (all
    counters [0,0]), repeatedly widen each process's counter hull by
    the caps of its possibly-enabled intents — a receive is realizable
    only once some live channel feeds it — until nothing changes. The
    final hull over-approximates every reachable local state, so a
    guard that is definitely false under it belongs to a {e dead rule}
    (sound: it never fires in any computation), and one definitely true
    is a {e tautology} (sound: always enabled while the process runs).

    {2 Soundness caveats}

    The domain is non-relational: a guard like [sends > recvs] that is
    unsatisfiable only for {e relational} reasons is reported [Sat],
    never [Dead] — verdicts err toward silence. The registry-wide flow
    test suite cross-validates: no reported-dead rule ever fires under
    full enumeration, and the static channel graph is compared against
    {!Channel_graph.extract}. *)

open Hpl_core

type t

type verdict =
  | Dead  (** guard unsatisfiable in every reachable local state *)
  | Tautology  (** guard holds in every reachable local state *)
  | Sat  (** neither provable — the normal case *)

type rule_report = {
  pid : int;
  index : int;  (** position in the pid's rule list *)
  text : string;  (** rendered guard, for messages *)
  where : string;  (** ["file:line:col-ecol: "] span prefix of the guard *)
  verdict : verdict;
  starved_recv : bool;
      (** the rule has a live guard and a receive intent, but no live
          channel can ever feed it *)
}

(** {1 Building an analysis} *)

val of_loaded :
  Hpl_protocols.Elaborate.loaded ->
  Hpl_protocols.Protocol.values ->
  (t, Hpl_protocols.Diag.t) result
(** Analyze a loaded [.hpl] spec at [values] (use
    [Protocol.defaults l.proto] for the declared defaults). [Error] only
    on value-dependent elaboration failure (bad process count or
    selector) — the same conditions {!Hpl_protocols.Elaborate.validate}
    reports. *)

val of_instance : Hpl_protocols.Protocol.instance -> t option
(** Analyze a registry instance through the embedded [.hpl] spec that
    defines the builtin of its protocol's name
    ({!Hpl_protocols.Builtins.port}), at the instance's values; [None]
    for a builtin defined in OCaml. An embedded spec that fails to load
    or resolve is a build bug and raises [Failure]. *)

(** {1 Results} *)

val n : t -> int
val rules : t -> rule_report list
(** All rules, pid-major then list order. *)

val dead_rules : t -> rule_report list

val channels : t -> (int * int * string) list
(** Live channels [(src, dst, payload)], sorted: sends of non-dead
    rules reachable in the liveness fixpoint. A history-dependent
    destination is over-approximated to every other process (and
    clears {!graph_exact}). *)

val graph_exact : t -> bool
(** Every send destination was static — {!channels} is then exactly the
    communication structure, suitable for equality cross-validation
    against {!Channel_graph.extract}. *)

val independence : t -> Reduction.Independence.t option
(** The static independence relation for ample-set restriction:
    per-pid receive-freedom and finite event bounds. [None] when any
    process's event bound is not finite. *)

val unreachable_atoms : t -> (string * string) list
(** [(atom, why)] — named atoms mentioning a [did]
    tag no live rule performs or a payload no live channel carries;
    such an atom can never change value. *)

(** {1 Concrete semantics — the oracle tests compare against} *)

val guard_holds : t -> pid:int -> index:int -> Event.t list -> bool
(** Evaluate rule [index] of [pid]'s guard concretely on a local
    history, with the exact dynamic semantics (the elaborator's
    evaluator). The flow soundness property: if the rule's verdict is
    {!Dead}, this returns [false] on every reachable history. *)

(** {1 Reporting} *)

val findings : t -> expect:string list -> Lint.finding list
(** The flow rule family as lint findings: [dead-rule] (warning),
    [unreachable-message] (warning; starved receives and unreachable
    atoms), [guard-tautology] (info). [expect] as in {!Lint.lint_spec}:
    rule ids or ["rule@target"], matched findings are annotated and do
    not fail gates. *)

val clean : t -> bool
(** No dead rule, no starved receive, no unreachable atom. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: per-rule verdicts, live channels, per-pid
    event bounds and stability, independence applicability. *)
