(** Elaboration: a parsed [.hpl] spec becomes a first-class
    {!Protocol.t} — the same record every builtin registers, so every
    consumer (enumeration, knowledge queries, lint, diagrams, reduction)
    works on loaded specs unchanged.

    Elaboration is where the untyped surface tree acquires meaning:

    - expressions are typed (int vs bool) and scoped (static expressions
      see only parameters; guards, destinations and atom bodies also see
      [me] and the local history via [len]/[sends]/[recvs]/[did]);
    - rule blocks compile to total {!Hpl_core.Spec.rule} closures — a
      division or modulus right-hand side must be history-independent
      and is checked nonzero by {!validate}, and a history-dependent
      destination that falls outside [0..n-1] (or names the sender)
      simply disables the intent — so the static analyzer's
      [rule-raises] finding can never fire for a loaded spec;
    - atoms become interleaving-invariant {!Hpl_core.Prop.t}s (bodies
      read one process's projection);
    - symmetry generators become {!Hpl_core.Symmetry.perm}s ([cycle]
      ranges with fewer than two members collapse to the identity and
      are dropped, so a generator can degenerate gracefully at small
      parameter values).

    Static checks run once per spec; value-dependent checks
    ({!validate}) run per instantiation, because selector pids,
    destinations, divisors and generator ranges all depend on parameter
    values. {!elaborate} validates at the declared defaults, so a
    successfully loaded spec is usable as-is. *)

type loaded = {
  proto : Protocol.t;
  ast : Ast.spec;
  file : string;
}

val elaborate : file:string -> Ast.spec -> (loaded, Diag.t) result
(** Static checks (typing, scoping, duplicate items, parameter bounds,
    fault-scenario syntax, protocol-name shape), then {!validate} at
    the default parameter values. *)

val validate : loaded -> Protocol.values -> (unit, Diag.t) result
(** Value-dependent checks at [values]: the process count is positive;
    selector pids are in range and pairwise distinct; divisors are
    nonzero at every process; history-independent send destinations and
    receive sources are in range and never the process itself; [at]
    atoms and symmetry-generator endpoints are in range. Call after
    {!Protocol.instantiate} and before using the
    instance; the compiled closures raise {!Diag.Error} as a backstop
    on violations this would have caught. *)

val resolved_rules :
  loaded -> Protocol.values -> (Ast.rule list array, Diag.t) result
(** The per-pid surface rules at [values] — selectors resolved, one
    {!Ast.rule} list per process. This is the syntax the static
    analyzer ([Hpl_analysis.Dataflow]) interprets; guard spans
    ([Ast.rule.gspan]) survive, so flow findings can point into the
    source. *)

val eval_expr :
  loaded ->
  Protocol.values ->
  me:int ->
  history:Hpl_core.Event.t list ->
  Ast.expr ->
  int
(** Concrete evaluation of one expression on one local history — the
    exact dynamic semantics the compiled closures use (booleans are
    0/1). The flow soundness tests compare abstract verdicts against
    this. May raise {!Diag.Error} (e.g. division by zero) like the
    closures themselves. *)

val load_string : file:string -> string -> (loaded, Diag.t) result
(** Lex, parse, elaborate. [file] is used for diagnostics only. *)

val read_file : string -> (string, Diag.t) result
(** The file's contents, for {!load_string}; an unreadable file becomes a
    position-less {!Diag.io} diagnostic. *)
