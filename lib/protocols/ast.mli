(** Abstract syntax of the [.hpl] protocol language (DESIGN.md §11).

    A spec is a name plus a list of items: documentation, integer
    parameters with bounds, a process count, per-process rule blocks,
    named atoms, symmetry generators, fault scenarios and lint
    expectations — everything {!Protocol.make} takes.
    Every node carries the position of its first token so diagnostics
    can point at [file:line:col]. *)

type pos = { line : int; col : int }

val pos0 : pos

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Int of int * pos
  | Boolean of bool * pos
  | Var of string * pos  (** [me], [n], [len], [sends], [recvs], or a param *)
  | Count of string * string * pos
      (** [sends "m"] / [recvs "m"] — payload-filtered history counts *)
  | Did of string * pos  (** [did "tag"] — internal event in the history *)
  | Sends_to of expr * pos
      (** [sends_to(e)] — sends to process [e] in the history; [e] is
          history-free *)
  | Minmax of [ `Min | `Max ] * expr * expr * pos
  | Unop of [ `Neg | `Not ] * expr * pos
  | Binop of binop * expr * expr * pos

type intent =
  | Send of string * expr * pos  (** payload, destination *)
  | Recv of expr option * pos  (** optional sender restriction *)
  | Act of string * pos  (** internal event, [do "tag"] *)

type rule = {
  guard : expr;
  intents : intent list;
  rpos : pos;
  gspan : pos * pos;
      (** positions of the guard's first and last tokens (inclusive) —
          the span flow diagnostics underline *)
}

type block_item =
  | Rule of rule
  | For of string * expr * expr * rule list * pos
      (** [for k in a .. b { rules }] — the body once per static [k] in
          [a..b]; [pos] is [k]'s. Unrolled when selectors are resolved,
          so only plain rules reach the closures and the analyzer. *)

type selector =
  | Sel_pid of expr * pos  (** [process <expr>] — a specific process *)
  | Sel_rest of pos  (** [process *] — every process not matched above *)

type symgen =
  | Rotation of pos  (** [i ↦ i+1 mod n] *)
  | Swap of expr * expr * pos
  | Cycle of expr * expr * pos  (** cyclic permutation of an inclusive range *)

type atom_scope =
  | At of expr  (** evaluated over one process's projection *)
  | Forall  (** must hold at every process's projection *)

type param_decl = {
  key : string;
  default : int;
  lo : int option;
  hi : int option;
  pdoc : string;
  ppos : pos;
}

type atom_decl = {
  aname : string;
  scope : atom_scope;
  body : expr;
  apos : pos;
}

type item =
  | Doc of string * pos
  | Param of param_decl
  | Processes of expr * pos
  | Depth of int * pos
  | Process of selector * block_item list * pos
  | Atom of atom_decl
  | Symmetry of symgen * pos
  | Faults of string list * pos
  | Lint_expect of string list * pos

type spec = { sname : string; items : item list; spos : pos }

val expr_pos : expr -> pos
val intent_pos : intent -> pos
val binop_to_string : binop -> string
