(* Elaboration of a parsed .hpl tree into a Protocol.t (DESIGN.md §11).

   Internally everything raises Diag.Error and the public entry points
   catch it — elaboration is a pipeline of checks, and early exit with
   a positioned diagnostic is exactly the control flow we want.

   Two invariants drive the design:

   - Compiled rule closures must be TOTAL. The engine calls them on
     every reachable history, and the static analyzer's soundness
     argument (lint's [rule-raises]) assumes registered rules do not
     raise. So: division/modulus right-hand sides must be
     history-independent (checked nonzero per process by [validate]),
     and a history-dependent destination that leaves [0..n-1] or names
     the sender disables the intent instead of failing.

   - Value-dependent checks live in [validate], not in the closures.
     Selector pids, divisors, destinations and generator endpoints all
     depend on parameter values; the CLI validates right after
     [Protocol.instantiate]. The closures keep Diag.Error backstops for
     callers that skip validation. *)

open Ast
open Hpl_core
module P = Hpl_protocols.Protocol

type loaded = { proto : P.t; ast : Ast.spec; file : string }

let errf ~file ~pos fmt =
  Printf.ksprintf (fun msg -> raise (Diag.Error (Diag.make ~file ~pos msg))) fmt

(* -- item split ----------------------------------------------------------- *)

type split = {
  sdoc : string;
  sparams : param_decl list;
  sprocesses : expr;
  sppos : pos;  (* position of the 'processes' item *)
  sdepth : int option;
  sblocks : (selector * block_item list * pos) list;
  satoms : atom_decl list;
  sgens : (symgen * pos) list;
  sfaults : (string * pos) list;
  slint : string list;
}

let split ~file (s : spec) : split =
  let doc = ref None and procs = ref None and depth = ref None in
  let params = ref [] and blocks = ref [] and atoms = ref [] in
  let gens = ref [] and faults = ref [] and lints = ref [] in
  List.iter
    (fun item ->
      match item with
      | Doc (d, p) -> (
          match !doc with
          | Some _ -> errf ~file ~pos:p "duplicate 'doc' item"
          | None -> doc := Some d)
      | Param pd -> params := pd :: !params
      | Processes (e, p) -> (
          match !procs with
          | Some _ -> errf ~file ~pos:p "duplicate 'processes' item"
          | None -> procs := Some (e, p))
      | Depth (d, p) -> (
          match !depth with
          | Some _ -> errf ~file ~pos:p "duplicate 'depth' item"
          | None ->
              if d < 1 then errf ~file ~pos:p "depth must be positive (got %d)" d;
              depth := Some d)
      | Process (sel, rules, p) -> blocks := (sel, rules, p) :: !blocks
      | Atom a -> atoms := a :: !atoms
      | Symmetry (g, p) -> gens := (g, p) :: !gens
      | Faults (ss, p) -> List.iter (fun f -> faults := (f, p) :: !faults) ss
      | Lint_expect (ss, p) ->
          List.iter
            (fun l ->
              if l = "" then errf ~file ~pos:p "empty lint rule id";
              lints := l :: !lints)
            ss)
    s.items;
  let sprocesses, sppos =
    match !procs with
    | Some (e, p) -> (e, p)
    | None -> errf ~file ~pos:s.spos "missing 'processes' item"
  in
  {
    sdoc = Option.value !doc ~default:"";
    sparams = List.rev !params;
    sprocesses;
    sppos;
    sdepth = !depth;
    sblocks = List.rev !blocks;
    satoms = List.rev !atoms;
    sgens = List.rev !gens;
    sfaults = List.rev !faults;
    slint = List.rev !lints;
  }

(* -- static typing and scoping ------------------------------------------- *)

type ty = TInt | TBool

(* Kstatic: parameters only (process counts, selectors, atom scopes,
   generator endpoints). Khist: adds [me] and the history readers
   (guards, destinations, receive sources, atom bodies). *)
type kind = Kstatic | Khist

let ty_name = function TInt -> "an integer" | TBool -> "a boolean"

(* history vars are the only names the two kinds disagree on *)
let history_var = function "len" | "sends" | "recvs" -> true | _ -> false

let reserved =
  [
    "me"; "len"; "sends"; "recvs"; "sends_to"; "did"; "min"; "max"; "true";
    "false";
  ]

(* [where] names the position, [why] says why it must be history-free *)
let rec ensure_history_free ~file ~where ~why e =
  let reader fn p =
    errf ~file ~pos:p "'%s(...)' cannot appear in %s (%s)" fn where why
  in
  match e with
  | Int _ | Boolean _ -> ()
  | Var (v, p) when history_var v ->
      errf ~file ~pos:p "%s must not read the local history (%s)" where why
  | Var _ -> ()
  | Count (fn, _, p) -> reader fn p
  | Did (_, p) -> reader "did" p
  | Sends_to (_, p) -> reader "sends_to" p
  | Minmax (_, a, b, _) | Binop (_, a, b, _) ->
      ensure_history_free ~file ~where ~why a;
      ensure_history_free ~file ~where ~why b
  | Unop (_, a, _) -> ensure_history_free ~file ~where ~why a

let rec infer ~file ~params ~kind e : ty =
  match e with
  | Int _ -> TInt
  | Boolean _ -> TBool
  | Var ("me", p) ->
      if kind = Kstatic then
        errf ~file ~pos:p
          "'me' is only available inside rules and atom bodies";
      TInt
  | Var (v, p) when history_var v ->
      if kind = Kstatic then
        errf ~file ~pos:p
          "'%s' reads the local history and is only available inside rules \
           and atom bodies"
          v;
      TInt
  | Var (v, p) ->
      if not (List.mem v params) then
        errf ~file ~pos:p "undeclared name '%s' (declare it with 'param %s = \
                           ...')" v v;
      TInt
  | Count (fn, payload, p) ->
      if payload = "" then errf ~file ~pos:p "empty payload string";
      if kind = Kstatic then
        errf ~file ~pos:p
          "'%s(...)' reads the local history and is only available inside \
           rules and atom bodies"
          fn;
      TInt
  | Did (tag, p) ->
      if tag = "" then errf ~file ~pos:p "empty internal-event tag";
      if kind = Kstatic then
        errf ~file ~pos:p
          "'did(...)' reads the local history and is only available inside \
           rules and atom bodies";
      TBool
  | Sends_to (dst, p) ->
      if kind = Kstatic then
        errf ~file ~pos:p
          "'sends_to(...)' reads the local history and is only available \
           inside rules and atom bodies";
      want ~file ~params ~kind TInt dst;
      ensure_history_free ~file ~where:"the argument of 'sends_to'"
        ~why:"it must name a fixed process" dst;
      TInt
  | Minmax (_, a, b, _) ->
      want ~file ~params ~kind TInt a;
      want ~file ~params ~kind TInt b;
      TInt
  | Unop (`Neg, a, _) ->
      want ~file ~params ~kind TInt a;
      TInt
  | Unop (`Not, a, _) ->
      want ~file ~params ~kind TBool a;
      TBool
  | Binop ((Add | Sub | Mul), a, b, _) ->
      want ~file ~params ~kind TInt a;
      want ~file ~params ~kind TInt b;
      TInt
  | Binop ((Div | Mod) as op, a, b, _) ->
      want ~file ~params ~kind TInt a;
      want ~file ~params ~kind TInt b;
      ensure_history_free ~file
        ~where:(Printf.sprintf "the right-hand side of '%s'" (binop_to_string op))
        ~why:
          "it is validated nonzero per process, which keeps rules total"
        b;
      TInt
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge), a, b, _) ->
      want ~file ~params ~kind TInt a;
      want ~file ~params ~kind TInt b;
      TBool
  | Binop ((And | Or), a, b, _) ->
      want ~file ~params ~kind TBool a;
      want ~file ~params ~kind TBool b;
      TBool

and want ~file ~params ~kind expected e =
  let t = infer ~file ~params ~kind e in
  if t <> expected then
    errf ~file ~pos:(expr_pos e) "this expression must be %s, not %s"
      (ty_name expected) (ty_name t)

let check_params ~file pds =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun pd ->
      if List.mem pd.key reserved then
        errf ~file ~pos:pd.ppos "parameter name '%s' is reserved" pd.key;
      if Hashtbl.mem seen pd.key then
        errf ~file ~pos:pd.ppos "duplicate parameter '%s'" pd.key;
      Hashtbl.add seen pd.key ();
      let lo = Option.value pd.lo ~default:1 in
      (match pd.hi with
      | Some hi when hi < lo ->
          errf ~file ~pos:pd.ppos
            "parameter '%s': the bounds are empty (min %d > max %d)" pd.key lo
            hi
      | Some hi when pd.default > hi ->
          errf ~file ~pos:pd.ppos "parameter '%s': default %d is above max %d"
            pd.key pd.default hi
      | _ -> ());
      if pd.default < lo then
        errf ~file ~pos:pd.ppos
          "parameter '%s': default %d is below min %d (bounds default to min \
           1 — declare 'min %d' to allow it)"
          pd.key pd.default lo pd.default)
    pds

let static_check ~file (ast : spec) (sp : split) =
  let name_ok =
    ast.sname <> ""
    && String.for_all
         (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-')
         ast.sname
  in
  if not name_ok then
    errf ~file ~pos:ast.spos "protocol name %S must match [a-z0-9-]+"
      ast.sname;
  check_params ~file sp.sparams;
  let params = List.map (fun pd -> pd.key) sp.sparams in
  want ~file ~params ~kind:Kstatic TInt sp.sprocesses;
  let check_rule ~params r =
    want ~file ~params ~kind:Khist TBool r.guard;
    List.iter
      (fun it ->
        match it with
        | Send (payload, dst, ip) ->
            if payload = "" then errf ~file ~pos:ip "empty payload string";
            want ~file ~params ~kind:Khist TInt dst
        | Recv (Some src, _) -> want ~file ~params ~kind:Khist TInt src
        | Recv (None, _) -> ()
        | Act (tag, ip) ->
            if tag = "" then errf ~file ~pos:ip "empty internal-event tag")
      r.intents
  in
  let seen_rest = ref false in
  List.iter
    (fun (sel, items, bpos) ->
      (match sel with
      | Sel_pid (e, _) -> want ~file ~params ~kind:Kstatic TInt e
      | Sel_rest _ ->
          if !seen_rest then errf ~file ~pos:bpos "duplicate 'process *' block";
          seen_rest := true);
      List.iter
        (function
          | Rule r -> check_rule ~params r
          | For (k, first, last, body, kpos) ->
              if List.mem k reserved || List.mem k params then
                errf ~file ~pos:kpos
                  "loop variable '%s' shadows a %s name" k
                  (if List.mem k params then "parameter" else "reserved");
              want ~file ~params ~kind:Kstatic TInt first;
              want ~file ~params ~kind:Kstatic TInt last;
              List.iter (check_rule ~params:(k :: params)) body)
        items)
    sp.sblocks;
  let seen_atoms = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen_atoms a.aname then
        errf ~file ~pos:a.apos "duplicate atom '%s'" a.aname;
      Hashtbl.add seen_atoms a.aname ();
      (match a.scope with
      | At e -> want ~file ~params ~kind:Kstatic TInt e
      | Forall -> ());
      want ~file ~params ~kind:Khist TBool a.body)
    sp.satoms;
  List.iter
    (fun (g, _) ->
      match g with
      | Rotation _ -> ()
      | Swap (a, b, _) | Cycle (a, b, _) ->
          want ~file ~params ~kind:Kstatic TInt a;
          want ~file ~params ~kind:Kstatic TInt b)
    sp.sgens;
  List.iter
    (fun (s, p) ->
      match Hpl_faults.Faults.Scenario.parse s with
      | Ok _ -> ()
      | Error e -> errf ~file ~pos:p "bad fault scenario %S: %s" s e)
    sp.sfaults

(* -- evaluation ----------------------------------------------------------- *)

(* One untyped evaluator (booleans are 0/1): the static type check above
   already separated the worlds, and a single total function keeps the
   closures free of unreachable branches. *)

type env = { efile : string; values : P.values; me : int; hist : Event.t list }

let senv ~file ~values ~me = { efile = file; values; me; hist = [] }

let rec eval env e : int =
  match e with
  | Int (k, _) -> k
  | Boolean (b, _) -> if b then 1 else 0
  | Var ("me", _) -> env.me
  | Var ("len", _) -> List.length env.hist
  | Var ("sends", _) -> P.sends env.hist
  | Var ("recvs", _) -> P.recvs env.hist
  | Var (v, p) -> (
      match List.assoc_opt v env.values with
      | Some k -> k
      | None -> errf ~file:env.efile ~pos:p "undeclared name '%s'" v)
  | Count ("sends", payload, _) -> P.sends_of env.hist payload
  | Count (_, payload, _) -> P.recvs_of env.hist payload
  | Did (tag, _) -> if P.did env.hist tag then 1 else 0
  | Sends_to (dst, _) ->
      let d = eval env dst in
      List.fold_left
        (fun acc e ->
          match e.Event.kind with
          | Event.Send m when Pid.to_int m.Msg.dst = d -> acc + 1
          | Event.Send _ | Event.Receive _ | Event.Internal _ -> acc)
        0 env.hist
  | Minmax (`Min, a, b, _) -> min (eval env a) (eval env b)
  | Minmax (`Max, a, b, _) -> max (eval env a) (eval env b)
  | Unop (`Neg, a, _) -> -eval env a
  | Unop (`Not, a, _) -> if eval env a = 0 then 1 else 0
  | Binop (op, a, b, p) -> (
      match op with
      | Add -> eval env a + eval env b
      | Sub -> eval env a - eval env b
      | Mul -> eval env a * eval env b
      | Div | Mod ->
          let d = eval env b in
          if d = 0 then
            errf ~file:env.efile ~pos:p
              "%s by zero (validate the spec at these parameter values)"
              (if op = Div then "division" else "modulus");
          if op = Div then eval env a / d else eval env a mod d
      | Eq -> if eval env a = eval env b then 1 else 0
      | Ne -> if eval env a <> eval env b then 1 else 0
      | Lt -> if eval env a < eval env b then 1 else 0
      | Le -> if eval env a <= eval env b then 1 else 0
      | Gt -> if eval env a > eval env b then 1 else 0
      | Ge -> if eval env a >= eval env b then 1 else 0
      | And -> if eval env a <> 0 && eval env b <> 0 then 1 else 0
      | Or -> if eval env a <> 0 || eval env b <> 0 then 1 else 0)

let nproc ~file sp values =
  let n = eval (senv ~file ~values ~me:0) sp.sprocesses in
  if n < 1 then
    errf ~file ~pos:sp.sppos "'processes' evaluates to %d (need at least 1)" n;
  n

(* [for] loops unrolled at [values]: the body once per k in
   [first..last], with every [Var k] replaced by the literal *)
let rec subst k v e =
  let s = subst k v in
  match e with
  | Var (x, p) when x = k -> Int (v, p)
  | Int _ | Boolean _ | Var _ | Count _ | Did _ -> e
  | Sends_to (a, p) -> Sends_to (s a, p)
  | Minmax (m, a, b, p) -> Minmax (m, s a, s b, p)
  | Unop (o, a, p) -> Unop (o, s a, p)
  | Binop (o, a, b, p) -> Binop (o, s a, s b, p)

let subst_rule k v r =
  let s = subst k v in
  let intent = function
    | Send (m, dst, p) -> Send (m, s dst, p)
    | Recv (src, p) -> Recv (Option.map s src, p)
    | Act _ as a -> a
  in
  { r with guard = s r.guard; intents = List.map intent r.intents }

let unroll ~file values items =
  let static e = eval (senv ~file ~values ~me:0) e in
  List.concat_map
    (function
      | Rule r -> [ r ]
      | For (k, first, last, body, _) ->
          let first = static first in
          List.init (max 0 (static last - first + 1)) (fun i -> first + i)
          |> List.concat_map (fun v -> List.map (subst_rule k v) body))
    items

(* Selector resolution: explicit pids first, then 'process *' claims the
   rest; unclaimed processes have no rules (they enable nothing). *)
let resolve_blocks ~file sp values ~n =
  let pid_rules = Array.make n [] in
  let claimed = Array.make n false in
  let rest = ref None in
  List.iter
    (fun (sel, items, bpos) ->
      let rules = unroll ~file values items in
      match sel with
      | Sel_pid (e, _) ->
          let v = eval (senv ~file ~values ~me:0) e in
          if v < 0 || v >= n then
            errf ~file ~pos:(expr_pos e)
              "process %d is out of range (this spec has processes 0..%d)" v
              (n - 1);
          if claimed.(v) then
            errf ~file ~pos:bpos "process %d has two rule blocks" v;
          claimed.(v) <- true;
          pid_rules.(v) <- rules
      | Sel_rest _ -> (
          match !rest with
          | Some _ -> errf ~file ~pos:bpos "duplicate 'process *' block"
          | None -> rest := Some rules))
    sp.sblocks;
  (match !rest with
  | Some rules ->
      for i = 0 to n - 1 do
        if not claimed.(i) then pid_rules.(i) <- rules
      done
  | None -> ());
  (pid_rules, claimed)

(* -- compilation ---------------------------------------------------------- *)

let compile_intent env ~n it =
  match it with
  | Send (payload, dst, _) ->
      let d = eval env dst in
      if d < 0 || d >= n || d = env.me then None
      else Some (Spec.Send_to (Pid.of_int d, payload))
  | Recv (None, _) -> Some Spec.Recv_any
  | Recv (Some src, _) ->
      let s = eval env src in
      if s < 0 || s >= n || s = env.me then None
      else Some (Spec.Recv_from (Pid.of_int s))
  | Act (tag, _) -> Some (Spec.Do tag)

let build_spec ~file sp values =
  let n = nproc ~file sp values in
  let pid_rules, _ = resolve_blocks ~file sp values ~n in
  Spec.make ~n (fun p ->
      let me = Pid.to_int p in
      let rules = pid_rules.(me) in
      fun hist ->
        let env = { efile = file; values; me; hist } in
        List.concat_map
          (fun r ->
            if eval env r.guard <> 0 then
              List.filter_map (compile_intent env ~n) r.intents
            else [])
          rules)

let build_atoms ~file sp values =
  let n = nproc ~file sp values in
  List.map
    (fun a ->
      match a.scope with
      | At e ->
          let k = eval (senv ~file ~values ~me:0) e in
          if k < 0 || k >= n then
            errf ~file ~pos:(expr_pos e)
              "atom '%s': process %d is out of range (this spec has processes \
               0..%d)"
              a.aname k (n - 1);
          let pid = Pid.of_int k in
          ( a.aname,
            Prop.make a.aname (fun z ->
                eval { efile = file; values; me = k; hist = Trace.proj z pid }
                  a.body
                <> 0) )
      | Forall ->
          ( a.aname,
            Prop.make a.aname (fun z ->
                let rec holds_at i =
                  i >= n
                  || eval
                       {
                         efile = file;
                         values;
                         me = i;
                         hist = Trace.proj z (Pid.of_int i);
                       }
                       a.body
                     <> 0
                     && holds_at (i + 1)
                in
                holds_at 0) ))
    sp.satoms

let build_symmetry ~file sp values =
  let n = nproc ~file sp values in
  let endpoint e =
    let v = eval (senv ~file ~values ~me:0) e in
    if v < 0 || v >= n then
      errf ~file ~pos:(expr_pos e)
        "process %d is out of range (this spec has processes 0..%d)" v (n - 1);
    v
  in
  List.filter_map
    (fun (g, _) ->
      match g with
      | Rotation _ -> Some (Symmetry.rotation n)
      | Swap (a, b, _) ->
          let x = endpoint a and y = endpoint b in
          if x = y then None else Some (Symmetry.transposition n x y)
      | Cycle (a, b, _) ->
          let x = endpoint a and y = endpoint b in
          (* fewer than two members is the identity — drop it, so a
             generator like [cycle 1 .. n-1] degrades gracefully at the
             smallest parameter values instead of erroring *)
          if y - x < 1 then None
          else Some (Symmetry.cycle n (List.init (y - x + 1) (fun i -> x + i))))
    sp.sgens

(* -- value-dependent validation ------------------------------------------ *)

let rec divisors e acc =
  match e with
  | Int _ | Boolean _ | Var _ | Count _ | Did _ -> acc
  | Sends_to (a, _) -> divisors a acc
  | Minmax (_, a, b, _) -> divisors a (divisors b acc)
  | Unop (_, a, _) -> divisors a acc
  | Binop (op, a, b, p) -> (
      let acc = divisors a (divisors b acc) in
      match op with
      | Div | Mod -> (b, p, binop_to_string op) :: acc
      | _ -> acc)

let rec history_free = function
  | Int _ | Boolean _ -> true
  | Var (v, _) -> not (history_var v)
  | Count _ | Did _ | Sends_to _ -> false
  | Minmax (_, a, b, _) | Binop (_, a, b, _) ->
      history_free a && history_free b
  | Unop (_, a, _) -> history_free a

let validate { ast; file; _ } values =
  try
    let sp = split ~file ast in
    let check_divs ~mes e =
      List.iter
        (fun (d, p, op) ->
          List.iter
            (fun me ->
              if eval (senv ~file ~values ~me) d = 0 then
                errf ~file ~pos:p
                  "the right-hand side of '%s' evaluates to 0 at process %d" op
                  me)
            mes)
        (divisors e [])
    in
    (* divisors of the count expression first — [nproc] evaluates it *)
    check_divs ~mes:[ 0 ] sp.sprocesses;
    let n = nproc ~file sp values in
    let _, claimed = resolve_blocks ~file sp values ~n in
    ignore (build_atoms ~file sp values);
    ignore (build_symmetry ~file sp values);
    List.iter
      (fun a ->
        let mes =
          match a.scope with
          | At e -> [ eval (senv ~file ~values ~me:0) e ]
          | Forall -> List.init n (fun i -> i)
        in
        check_divs ~mes a.body)
      sp.satoms;
    List.iter
      (fun (sel, items, _) ->
        let rules = unroll ~file values items in
        let mes =
          match sel with
          | Sel_pid (e, _) -> [ eval (senv ~file ~values ~me:0) e ]
          | Sel_rest _ ->
              List.filteri (fun i _ -> not claimed.(i))
                (List.init n (fun i -> i))
        in
        List.iter
          (fun r ->
            check_divs ~mes r.guard;
            let check_target ~what e =
              check_divs ~mes e;
              if history_free e then
                List.iter
                  (fun me ->
                    let v = eval (senv ~file ~values ~me) e in
                    if v < 0 || v >= n then
                      errf ~file ~pos:(expr_pos e)
                        "%s %d is out of range (this spec has processes \
                         0..%d)"
                        what v (n - 1)
                    else if v = me then
                      errf ~file ~pos:(expr_pos e)
                        "process %d uses itself as the %s" me what)
                  mes
            in
            List.iter
              (fun it ->
                match it with
                | Send (_, dst, _) -> check_target ~what:"destination" dst
                | Recv (Some src, _) -> check_target ~what:"receive source" src
                | Recv (None, _) | Act _ -> ())
              r.intents)
          rules)
      sp.sblocks;
    Ok ()
  with Diag.Error d -> Error d

(* -- static-analysis surface ---------------------------------------------- *)

(* The abstract interpreter (Hpl_analysis.Dataflow) works on the
   elaborated per-pid rule lists rather than the compiled closures, so
   it sees guards as syntax; its soundness tests need the concrete
   semantics of a single guard on a single local history — exactly the
   [eval] the closures use. *)

let resolved_rules (l : loaded) values =
  try
    let sp = split ~file:l.file l.ast in
    let n = nproc ~file:l.file sp values in
    let pid_rules, _ = resolve_blocks ~file:l.file sp values ~n in
    Ok pid_rules
  with Diag.Error d -> Error d

let eval_expr (l : loaded) values ~me ~history e =
  eval { efile = l.file; values; me; hist = history } e

(* -- entry points --------------------------------------------------------- *)

let elaborate ~file (ast : spec) =
  try
    let sp = split ~file ast in
    static_check ~file ast sp;
    let params =
      List.map
        (fun pd -> P.param ?lo:pd.lo ?hi:pd.hi pd.key pd.default pd.pdoc)
        sp.sparams
    in
    let proto =
      try
        P.make ~name:ast.sname ~doc:sp.sdoc ~params
          ~atoms:(fun values -> build_atoms ~file sp values)
          ~symmetry:(fun values -> build_symmetry ~file sp values)
          ?suggested_depth:sp.sdepth
          ~fault_scenarios:(List.map fst sp.sfaults)
          ~lint_expect:sp.slint
          (fun values -> build_spec ~file sp values)
      with Invalid_argument m -> errf ~file ~pos:ast.spos "%s" m
    in
    let loaded = { proto; ast; file } in
    match validate loaded (P.defaults proto) with
    | Ok () -> Ok loaded
    | Error d -> Error d
  with Diag.Error d -> Error d

let load_string ~file src =
  match Parser.parse ~file src with
  | Error d -> Error d
  | Ok ast -> elaborate ~file ast

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> load_string ~file:path src
  | exception Sys_error m ->
      (* Sys_error messages already lead with the path; don't print it
         twice in the "file: message" rendering *)
      let prefix = path ^ ": " in
      let plen = String.length prefix in
      let m =
        if String.length m >= plen && String.sub m 0 plen = prefix then
          String.sub m plen (String.length m - plen)
        else m
      in
      Error (Diag.io ~file:path m)
