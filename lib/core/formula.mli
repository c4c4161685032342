(** An epistemic-temporal formula language.

    Concrete syntax for the paper's knowledge operators combined with
    branching time, so claims like the §4.1 token-bus assertion can be
    written down, parsed, and checked:

    {v AG (holds2 -> K p2 (K p1 (~holds0) & K p3 (~holds4))) v}

    Grammar (precedence low→high: [->], [|], [&], prefix):

    {v
    φ ::= 'true' | 'false' | atom
        | '~' φ | φ '&' φ | φ '|' φ | φ '->' φ
        | 'K' pset φ        knowledge        (paper §4.1)
        | 'sure' pset φ     sure             (paper §4.2)
        | 'E' pset φ        everyone knows
        | 'S' pset φ        someone knows
        | 'CK' φ            common knowledge (greatest fixpoint)
        | 'AG' φ | 'EF' φ | 'AF' φ | 'EG' φ | 'AX' φ | 'EX' φ
        | '(' φ ')'
    pset ::= pid | '{' pid (',' pid)* '}'        pid ::= 'p'? digits
    atom ::= identifier, resolved in the caller's environment
    v}

    A pid's digits are decimal and its value must be an [int]; a longer
    digit string is a parse error. A pid in formula position is the
    atom named ["p"] followed by its value.

    Parsing is total ([Error] with position); evaluation needs a
    universe and an atom environment. The printer round-trips
    ([parse ∘ print = id] up to parentheses — property-tested). *)

type pset_syntax = int list

type t =
  | True
  | False
  | Atom of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Know of pset_syntax * t
  | Sure of pset_syntax * t
  | Everyone of pset_syntax * t
  | Someone of pset_syntax * t
  | Common of t
  | Ag of t
  | Ef of t
  | Af of t
  | Eg of t
  | Ax of t
  | Ex of t

val parse : string -> (t, string) result
val print : t -> string
val pp : Format.formatter -> t -> unit

val atoms : t -> string list
(** Distinct atom names, in order of first occurrence. *)

(** {1 Knowledge-nest shape matching}

    The transfer theorems (§4.3, Theorems 4–6) are about formulas of the
    shape [P1 knows P2 knows … Pn knows b]. The static analyzer
    ([lib/analysis]) needs those nests syntactically, without
    evaluating anything. *)

type nest_level = { op : [ `Know | `Everyone | `Someone ]; pset : pset_syntax }

type nest = {
  levels : nest_level list;  (** outermost first: [K P1 (K P2 …)] *)
  body : t;  (** innermost non-knowledge subformula *)
  subformula : t;  (** the whole nest, as it appears in the formula *)
}

val nests : t -> nest list
(** All maximal directly-nested [K]/[E]/[S] chains of the formula, in
    syntactic order. [sure] and [CK] terminate a nest (they are not
    covered by the veridical gain-chain theorems); their operands are
    scanned for further nests. A formula with no knowledge operator has
    no nests. *)

val contains_common : t -> bool
(** Whether any [CK] operator occurs — common knowledge is a constant
    predicate (§4.2), which the linter reports statically. *)

val eval_at : env:(string -> Prop.t option) -> t -> Trace.t -> bool option
(** Pointwise evaluation of the knowledge- and temporal-free fragment at
    one computation — no universe needed. [None] when the formula
    contains a knowledge/temporal operator or an unbound atom. *)

val eval :
  Universe.t -> env:(string -> Prop.t option) -> t -> (Bitset.t, string) result
(** The formula's extent: the indices of the computations where it
    holds, computed bottom up — each atom occurrence through
    {!Prop.extent}, connectives as bitset operations, [K]/[sure]/[E]/[S]/
    [CK] through {!Knowledge.knows_ext}, {!Knowledge.sure_ext},
    {!Group.everyone_ext}/{!Group.someone_ext} and
    {!Common_knowledge.common_ext}, and temporal operators through
    {!Temporal}'s finite-tree semantics. No computation is looked up by
    its trace, so evaluation never builds the universe's trace index.
    Both operands of a connective are evaluated everywhere (atoms must
    be total). [Error] names any unbound atom or a process id outside
    the system. *)

val check :
  Universe.t ->
  env:(string -> Prop.t option) ->
  t ->
  ([ `Valid | `Fails_at of Trace.t ], string) result
(** Evaluate and test at every computation: [`Valid], or the witness
    [Universe.comp u i] for the least index [i] outside the extent. *)
