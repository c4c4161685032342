(* Abstract interpretation over protocol rules — see dataflow.mli.

   Rules come from the elaborated .hpl AST — a loaded spec's, or for a
   registry protocol the embedded spec that defines it — and
   are normalized into one internal shape, [srule]: an abstract guard
   evaluator (a closure over a counter-hull lookup), a concrete guard
   oracle (for the soundness tests), and a list of intents each carrying
   a static firing cap. Everything downstream — the liveness fixpoint,
   verdicts, channels, bounds, independence — works on [srule] alone. *)

open Hpl_core
module P = Hpl_protocols.Protocol
module Ast = Hpl_protocols.Ast
module Elab = Hpl_protocols.Elaborate
module Diag = Hpl_protocols.Diag

(* -- interval domain ------------------------------------------------------ *)

(* [max_int] is +inf, [min_int] is -inf. Counters live in [0, hi]; full
   intervals appear only transiently while evaluating expressions
   (negation, subtraction). Arithmetic saturates at the infinities;
   finite values in this domain are tiny (caps, parameters), so finite
   overflow is not a practical concern. *)

type itv = { lo : int; hi : int }

let pinf = max_int
let ninf = min_int
let point k = { lo = k; hi = k }
let top = { lo = ninf; hi = pinf }
let nonneg hi = { lo = 0; hi }

(* saturating bound addition; the two sides resolve the (impossible in
   well-formed intervals) mixed-infinity case differently so each bound
   errs outward *)
let add_lo a b =
  if a = ninf || b = ninf then ninf
  else if a = pinf || b = pinf then pinf
  else a + b

let add_hi a b =
  if a = pinf || b = pinf then pinf
  else if a = ninf || b = ninf then ninf
  else a + b

(* nonnegative saturating sum, for counter caps *)
let sadd a b = if a = pinf || b = pinf then pinf else a + b
let iadd a b = { lo = add_lo a.lo b.lo; hi = add_hi a.hi b.hi }

let neg_b x = if x = ninf then pinf else if x = pinf then ninf else -x
let ineg a = { lo = neg_b a.hi; hi = neg_b a.lo }
let isub a b = iadd a (ineg b)
let imin a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
let imax a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

let finite x = x <> ninf && x <> pinf

let imul a b =
  if finite a.lo && finite a.hi && finite b.lo && finite b.hi then begin
    let ps = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
    {
      lo = List.fold_left min (List.hd ps) ps;
      hi = List.fold_left max (List.hd ps) ps;
    }
  end
  else top

(* divisor is a nonzero constant (the elaborator validates this for
   loaded specs); truncation toward zero is monotone in the dividend
   for either divisor sign *)
let idiv a k =
  if k > 0 then
    {
      lo = (if finite a.lo then a.lo / k else a.lo);
      hi = (if finite a.hi then a.hi / k else a.hi);
    }
  else
    {
      lo = (if finite a.hi then a.hi / k else neg_b a.hi);
      hi = (if finite a.lo then a.lo / k else neg_b a.lo);
    }

let imod a k =
  if a.lo >= 0 && k > 0 then { lo = 0; hi = min a.hi (k - 1) } else top

(* three-valued booleans, encoded as intervals over {0, 1} *)
let tru = point 1
let fls = point 0
let mby = { lo = 0; hi = 1 }

type tv = [ `T | `F | `M ]

let truth v : tv =
  if v.lo > 0 || v.hi < 0 then `T
  else if v.lo = 0 && v.hi = 0 then `F
  else `M

let bnot v = match truth v with `T -> fls | `F -> tru | `M -> mby

let band a b =
  match (truth a, truth b) with
  | `F, _ | _, `F -> fls
  | `T, `T -> tru
  | _ -> mby

let bor a b =
  match (truth a, truth b) with
  | `T, _ | _, `T -> tru
  | `F, `F -> fls
  | _ -> mby

let ilt a b = if a.hi < b.lo then tru else if a.lo >= b.hi then fls else mby
let ile a b = if a.hi <= b.lo then tru else if a.lo > b.hi then fls else mby

let ieq a b =
  if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo && finite a.lo then tru
  else if a.hi < b.lo || b.hi < a.lo then fls
  else mby

(* -- counter keys ---------------------------------------------------------- *)

type ckey =
  | K_len
  | K_sends
  | K_recvs
  | K_sends_of of string
  | K_recvs_of of string
  | K_sends_to of int
  | K_did of string

(* -- normalized rules ------------------------------------------------------ *)

type src = Src_any | Src_of of int

type intent =
  | I_send of { dst : int option; payload : string }
      (* [None] = history-dependent destination: over-approximated to
         every other process *)
  | I_recv of src
  | I_do of string

type srule = {
  pid : int;
  index : int;
  text : string;
  where : string;
  aguard : (ckey -> itv) -> tv;
  cguard : Event.t list -> bool;
  intents : (intent * int option) list;  (* with static firing caps *)
}

type verdict = Dead | Tautology | Sat

type rule_report = {
  pid : int;
  index : int;
  text : string;
  where : string;
  verdict : verdict;
  starved_recv : bool;
}

(* -- AST front end --------------------------------------------------------- *)

let rec history_free e =
  match e with
  | Ast.Int _ | Ast.Boolean _ -> true
  | Ast.Var (("len" | "sends" | "recvs"), _) -> false
  | Ast.Var _ -> true
  | Ast.Count _ | Ast.Did _ | Ast.Sends_to _ -> false
  | Ast.Minmax (_, a, b, _) | Ast.Binop (_, a, b, _) ->
      history_free a && history_free b
  | Ast.Unop (_, a, _) -> history_free a

(* a [sends_to] argument is history-free (the elaborator checks it) *)
let ast_counter_of ~evalc = function
  | Ast.Var ("len", _) -> Some K_len
  | Ast.Var ("sends", _) -> Some K_sends
  | Ast.Var ("recvs", _) -> Some K_recvs
  | Ast.Count ("sends", m, _) -> Some (K_sends_of m)
  | Ast.Count (_, m, _) -> Some (K_recvs_of m)
  | Ast.Sends_to (d, _) -> Some (K_sends_to (evalc d))
  | _ -> None

let rec conjuncts e =
  match e with
  | Ast.Binop (Ast.And, a, b, _) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* abstract evaluation of an AST expression: history-free subtrees are
   concrete at the instance ([evalc] is the elaborator's evaluator on
   the empty history), so only history counters are abstract *)
let rec aeval ~evalc look e =
  if history_free e then point (evalc e)
  else
    match e with
    | Ast.Var ("len", _) -> look K_len
    | Ast.Var ("sends", _) -> look K_sends
    | Ast.Var ("recvs", _) -> look K_recvs
    | Ast.Count ("sends", m, _) -> look (K_sends_of m)
    | Ast.Count (_, m, _) -> look (K_recvs_of m)
    | Ast.Did (t, _) -> look (K_did t)
    | Ast.Sends_to (d, _) -> look (K_sends_to (evalc d))
    | Ast.Minmax (`Min, a, b, _) ->
        imin (aeval ~evalc look a) (aeval ~evalc look b)
    | Ast.Minmax (`Max, a, b, _) ->
        imax (aeval ~evalc look a) (aeval ~evalc look b)
    | Ast.Unop (`Neg, a, _) -> ineg (aeval ~evalc look a)
    | Ast.Unop (`Not, a, _) -> bnot (aeval ~evalc look a)
    | Ast.Binop (op, a, b, _) -> (
        let va () = aeval ~evalc look a and vb () = aeval ~evalc look b in
        match op with
        | Ast.Add -> iadd (va ()) (vb ())
        | Ast.Sub -> isub (va ()) (vb ())
        | Ast.Mul -> imul (va ()) (vb ())
        | Ast.Div ->
            if history_free b then
              let k = evalc b in
              if k = 0 then top else idiv (va ()) k
            else top
        | Ast.Mod ->
            if history_free b then
              let k = evalc b in
              if k = 0 then top else imod (va ()) k
            else top
        | Ast.Eq -> ieq (va ()) (vb ())
        | Ast.Ne -> bnot (ieq (va ()) (vb ()))
        | Ast.Lt -> ilt (va ()) (vb ())
        | Ast.Le -> ile (va ()) (vb ())
        | Ast.Gt -> ilt (vb ()) (va ())
        | Ast.Ge -> ile (vb ()) (va ())
        | Ast.And -> band (va ()) (vb ())
        | Ast.Or -> bor (va ()) (vb ()))
    | Ast.Int _ | Ast.Boolean _ | Ast.Var _ ->
        (* history-free, caught by the fast path above *)
        point (evalc e)

(* firing caps: a guard conjunct thresholding a counter this intent
   increments is a firing budget — counters are monotone over a local
   history and strictly increase with each firing of the intent *)
let ast_cap ~evalc guard ~keys ~do_tag =
  let upd acc cap =
    match acc with None -> Some cap | Some c -> Some (min c cap)
  in
  List.fold_left
    (fun acc c ->
      match c with
      | Ast.Unop (`Not, Ast.Did (t, _), _) when do_tag = Some t -> upd acc 1
      | Ast.Binop (op, l, r, _) -> (
          match (ast_counter_of ~evalc l, history_free r) with
          | Some k, true when List.mem k keys -> (
              let kv = evalc r in
              match op with
              | Ast.Lt -> upd acc (max kv 0)
              | Ast.Le -> upd acc (max (kv + 1) 0)
              | Ast.Eq -> upd acc (if kv < 0 then 0 else 1)
              | _ -> acc)
          | _ -> (
              match (ast_counter_of ~evalc r, history_free l) with
              | Some k, true when List.mem k keys -> (
                  let kv = evalc l in
                  match op with
                  | Ast.Gt -> upd acc (max kv 0)
                  | Ast.Ge -> upd acc (max (kv + 1) 0)
                  | Ast.Eq -> upd acc (if kv < 0 then 0 else 1)
                  | _ -> acc)
              | _ -> acc))
      | _ -> acc)
    None (conjuncts guard)

let send_keys payload = [ K_sends; K_len; K_sends_of payload ]
let recv_keys = [ K_recvs; K_len ]

(* compact guard rendering for messages *)
let rec expr_str e =
  match e with
  | Ast.Int (k, _) -> string_of_int k
  | Ast.Boolean (b, _) -> string_of_bool b
  | Ast.Var (v, _) -> v
  | Ast.Count (fn, m, _) -> Printf.sprintf "%s(%S)" fn m
  | Ast.Did (t, _) -> Printf.sprintf "did(%S)" t
  | Ast.Sends_to (d, _) -> Printf.sprintf "sends_to(%s)" (expr_str d)
  | Ast.Minmax (k, a, b, _) ->
      Printf.sprintf "%s(%s, %s)"
        (match k with `Min -> "min" | `Max -> "max")
        (expr_str a) (expr_str b)
  | Ast.Unop (`Neg, a, _) -> "-" ^ atom_str a
  | Ast.Unop (`Not, a, _) -> "!" ^ atom_str a
  | Ast.Binop (op, a, b, _) ->
      Printf.sprintf "%s %s %s" (atom_str a) (Ast.binop_to_string op)
        (atom_str b)

and atom_str e =
  match e with
  | Ast.Binop _ | Ast.Unop _ -> "(" ^ expr_str e ^ ")"
  | _ -> expr_str e

let ast_srules (l : Elab.loaded) values pid_rules =
  let n = Array.length pid_rules in
  Array.mapi
    (fun pid rl ->
      let evalc e = Elab.eval_expr l values ~me:pid ~history:[] e in
      List.mapi
        (fun index (r : Ast.rule) ->
          let intents =
            List.filter_map
              (fun it ->
                match it with
                | Ast.Send (payload, dst, _) ->
                    if history_free dst then begin
                      let d = evalc dst in
                      if d < 0 || d >= n || d = pid then None
                      else
                        let cap =
                          ast_cap ~evalc r.Ast.guard
                            ~keys:(K_sends_to d :: send_keys payload)
                            ~do_tag:None
                        in
                        Some (I_send { dst = Some d; payload }, cap)
                    end
                    else
                      let cap =
                        ast_cap ~evalc r.Ast.guard ~keys:(send_keys payload)
                          ~do_tag:None
                      in
                      Some (I_send { dst = None; payload }, cap)
                | Ast.Recv (se, _) ->
                    let src =
                      match se with
                      | None -> Some Src_any
                      | Some e ->
                          if history_free e then begin
                            let s = evalc e in
                            if s < 0 || s >= n || s = pid then None
                            else Some (Src_of s)
                          end
                          else Some Src_any
                    in
                    Option.map
                      (fun src ->
                        let cap =
                          ast_cap ~evalc r.Ast.guard ~keys:recv_keys
                            ~do_tag:None
                        in
                        (I_recv src, cap))
                      src
                | Ast.Act (tag, _) ->
                    let cap =
                      ast_cap ~evalc r.Ast.guard ~keys:[ K_len ]
                        ~do_tag:(Some tag)
                    in
                    Some (I_do tag, cap))
              r.Ast.intents
          in
          let gs, ge = r.Ast.gspan in
          {
            pid;
            index;
            text = expr_str r.Ast.guard;
            where = Diag.to_string (Diag.span ~file:l.Elab.file ~pos:gs ~epos:ge "");
            aguard =
              (fun look -> truth (aeval ~evalc look r.Ast.guard));
            cguard =
              (fun history ->
                Elab.eval_expr l values ~me:pid ~history r.Ast.guard <> 0);
            intents;
          })
        rl)
    pid_rules

(* -- the liveness fixpoint ------------------------------------------------- *)

type hull = {
  mutable h_sends : int;
  mutable h_recvs : int;
  mutable h_dos : int;
  h_sends_of : (string, int) Hashtbl.t;
  h_recvs_of : (string, int) Hashtbl.t;
  h_sends_to : (int, int) Hashtbl.t;
  h_did : (string, unit) Hashtbl.t;
}

let fresh_hull () =
  {
    h_sends = 0;
    h_recvs = 0;
    h_dos = 0;
    h_sends_of = Hashtbl.create 4;
    h_recvs_of = Hashtbl.create 4;
    h_sends_to = Hashtbl.create 4;
    h_did = Hashtbl.create 4;
  }

(* the hull of every reachable local state of one process: each counter
   in [0, hi] — the empty history is always reachable, so lo = 0 *)
let look_of h k =
  let tbl t key = Option.value (Hashtbl.find_opt t key) ~default:0 in
  match k with
  | K_len -> nonneg (sadd (sadd h.h_sends h.h_recvs) h.h_dos)
  | K_sends -> nonneg h.h_sends
  | K_recvs -> nonneg h.h_recvs
  | K_sends_of m -> nonneg (tbl h.h_sends_of m)
  | K_recvs_of m -> nonneg (tbl h.h_recvs_of m)
  | K_sends_to d -> nonneg (tbl h.h_sends_to d)
  | K_did t -> if Hashtbl.mem h.h_did t then mby else point 0

type t = {
  n : int;
  reports : rule_report list;
  channels : (int * int * string) list;
  graph_exact : bool;
  indep : Reduction.Independence.t option;
  unreachable : (string * string) list;
  conc : (Event.t list -> bool) array array;
  bounds : int array;  (* pinf = unbounded *)
  stable : bool array;
}

let analyze ~n (rules : srule list array) ~atom_exprs =
  let hulls = Array.init n (fun _ -> fresh_hull ()) in
  let chans : (int * int * string, unit) Hashtbl.t = Hashtbl.create 32 in
  let live : (int * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let cap_of = function Some c -> c | None -> pinf in
  let tbl_add t key c =
    Hashtbl.replace t key (sadd (Option.value (Hashtbl.find_opt t key) ~default:0) c)
  in
  let recompute () =
    (* channel capacities by message conservation: a process cannot
       receive more than every live peer send can feed it *)
    let inbound = Array.make n 0 in
    let inbound_m : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun rl ->
        List.iter
          (fun (r : srule) ->
            List.iteri
              (fun j (it, cap) ->
                if Hashtbl.mem live (r.pid, r.index, j) then
                  match it with
                  | I_send { dst; payload } ->
                      let c = cap_of cap in
                      let add d =
                        inbound.(d) <- sadd inbound.(d) c;
                        tbl_add inbound_m (d, payload) c
                      in
                      (match dst with
                      | Some d -> add d
                      | None ->
                          for d = 0 to n - 1 do
                            if d <> r.pid then add d
                          done)
                  | I_recv _ | I_do _ -> ())
              r.intents)
          rl)
      rules;
    Array.iteri
      (fun p rl ->
        let h = hulls.(p) in
        Hashtbl.reset h.h_sends_of;
        Hashtbl.reset h.h_recvs_of;
        Hashtbl.reset h.h_sends_to;
        Hashtbl.reset h.h_did;
        let sends = ref 0 and recvs_raw = ref 0 and dos = ref 0 in
        List.iter
          (fun (r : srule) ->
            List.iteri
              (fun j (it, cap) ->
                if Hashtbl.mem live (p, r.index, j) then
                  let c = cap_of cap in
                  match it with
                  | I_send { dst; payload } ->
                      sends := sadd !sends c;
                      tbl_add h.h_sends_of payload c;
                      (match dst with
                      | Some d -> tbl_add h.h_sends_to d c
                      | None ->
                          for d = 0 to n - 1 do
                            if d <> p then tbl_add h.h_sends_to d c
                          done)
                  | I_recv _ -> recvs_raw := sadd !recvs_raw c
                  | I_do tag ->
                      dos := sadd !dos c;
                      Hashtbl.replace h.h_did tag ())
              r.intents)
          rl;
        h.h_sends <- !sends;
        h.h_recvs <- min !recvs_raw inbound.(p);
        h.h_dos <- !dos;
        Hashtbl.iter
          (fun (d, m) c ->
            if d = p then Hashtbl.replace h.h_recvs_of m (min h.h_recvs c))
          inbound_m)
      rules
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun p rl ->
        let look = look_of hulls.(p) in
        List.iter
          (fun (r : srule) ->
            if r.aguard look <> `F then
              List.iteri
                (fun j (it, _) ->
                  let key = (p, r.index, j) in
                  if not (Hashtbl.mem live key) then
                    match it with
                    | I_send { dst; payload } ->
                        Hashtbl.replace live key ();
                        changed := true;
                        (match dst with
                        | Some d -> Hashtbl.replace chans (p, d, payload) ()
                        | None ->
                            for d = 0 to n - 1 do
                              if d <> p then
                                Hashtbl.replace chans (p, d, payload) ()
                            done)
                    | I_do _ ->
                        Hashtbl.replace live key ();
                        changed := true
                    | I_recv src ->
                        let feed =
                          Hashtbl.fold
                            (fun (s, d, _) () acc ->
                              acc
                              || d = p
                                 &&
                                 match src with
                                 | Src_any -> true
                                 | Src_of s0 -> s = s0)
                            chans false
                        in
                        if feed then begin
                          Hashtbl.replace live key ();
                          changed := true
                        end)
                r.intents)
          rl)
      rules;
    if !changed then recompute ()
  done;
  (* verdicts and derived facts under the final hull *)
  let reports = ref [] in
  let graph_exact = ref true in
  let stable = Array.make n true in
  Array.iteri
    (fun p rl ->
      let look = look_of hulls.(p) in
      List.iter
        (fun (r : srule) ->
          let verdict =
            match r.aguard look with `F -> Dead | `T -> Tautology | `M -> Sat
          in
          let starved = ref false in
          List.iteri
            (fun j (it, _) ->
              let is_live = Hashtbl.mem live (p, r.index, j) in
              match it with
              | I_recv _ ->
                  if is_live then stable.(p) <- false
                  else if verdict <> Dead then starved := true
              | I_send { dst = None; _ } ->
                  if is_live then graph_exact := false
              | I_send _ | I_do _ -> ())
            r.intents;
          reports :=
            {
              pid = p;
              index = r.index;
              text = r.text;
              where = r.where;
              verdict;
              starved_recv = !starved;
            }
            :: !reports)
        rl)
    rules;
  let reports = List.rev !reports in
  let bounds =
    Array.mapi
      (fun p _ ->
        let h = hulls.(p) in
        sadd (sadd h.h_sends h.h_recvs) h.h_dos)
      hulls
  in
  let indep =
    if Array.for_all (fun b -> b <> pinf) bounds then
      Some (Reduction.Independence.make ~stable:(Array.copy stable) ~bound:bounds)
    else None
  in
  let channels =
    Hashtbl.fold (fun c () acc -> c :: acc) chans [] |> List.sort compare
  in
  (* atoms over tags no live rule performs / payloads no live channel
     carries can never change value *)
  let producible t =
    Array.exists (fun h -> Hashtbl.mem h.h_did t) hulls
  in
  let carried m = List.exists (fun (_, _, m') -> String.equal m m') channels in
  let unreachable =
    List.concat_map
      (fun (aname, body) ->
        let probs = ref [] in
        let rec scan e =
          match e with
          | Ast.Did (t, _) ->
              if not (producible t) then
                probs :=
                  Printf.sprintf "mentions did(%S) but no live rule performs it"
                    t
                  :: !probs
          | Ast.Count (_, m, _) ->
              if not (carried m) then
                probs :=
                  Printf.sprintf "mentions payload %S which no live channel carries"
                    m
                  :: !probs
          | Ast.Int _ | Ast.Boolean _ | Ast.Var _ -> ()
          | Ast.Sends_to (a, _) | Ast.Unop (_, a, _) -> scan a
          | Ast.Minmax (_, a, b, _) | Ast.Binop (_, a, b, _) ->
              scan a;
              scan b
        in
        scan body;
        List.rev_map (fun why -> (aname, why)) !probs)
      atom_exprs
  in
  let conc =
    Array.map
      (fun rl -> Array.of_list (List.map (fun (r : srule) -> r.cguard) rl))
      rules
  in
  {
    n;
    reports;
    channels;
    graph_exact = !graph_exact;
    indep;
    unreachable;
    conc;
    bounds;
    stable;
  }

(* -- entry points ----------------------------------------------------------- *)

let of_loaded (l : Elab.loaded) values =
  try
    match Elab.resolved_rules l values with
    | Error d -> Error d
    | Ok pid_rules ->
        let n = Array.length pid_rules in
        let rules = ast_srules l values pid_rules in
        let atom_exprs =
          List.filter_map
            (fun item ->
              match item with
              | Ast.Atom a -> Some (a.Ast.aname, a.Ast.body)
              | _ -> None)
            l.Elab.ast.Ast.items
        in
        Ok (analyze ~n rules ~atom_exprs)
  with Diag.Error d -> Error d

let of_instance inst =
  Option.map
    (fun l ->
      match of_loaded l (P.values inst) with
      | Ok t -> t
      | Error d ->
          failwith
            (Printf.sprintf "Dataflow.of_instance %s: %s" (P.instance_name inst)
               (Diag.to_string d)))
    (Hpl_protocols.Builtins.port (P.name (P.proto inst)))

(* -- accessors -------------------------------------------------------------- *)

let n t = t.n
let rules t = t.reports
let dead_rules t = List.filter (fun r -> r.verdict = Dead) t.reports
let channels t = t.channels
let graph_exact t = t.graph_exact
let independence t = t.indep
let unreachable_atoms t = t.unreachable

let guard_holds t ~pid ~index history =
  if pid < 0 || pid >= t.n then invalid_arg "Dataflow.guard_holds: bad pid";
  let arr = t.conc.(pid) in
  if index < 0 || index >= Array.length arr then
    invalid_arg "Dataflow.guard_holds: bad rule index";
  arr.(index) history

let clean t =
  (not (List.exists (fun r -> r.verdict = Dead || r.starved_recv) t.reports))
  && t.unreachable = []

(* -- findings ---------------------------------------------------------------- *)

let finding ~expect rule severity target message hint =
  {
    Lint.rule;
    severity;
    target;
    message;
    witness = None;
    hint;
    expected =
      List.exists (fun e -> e = rule || e = rule ^ "@" ^ target) expect;
  }

let findings t ~expect =
  let dead =
    List.filter_map
      (fun r ->
        if r.verdict = Dead then
          Some
            (finding ~expect "dead-rule" Lint.Warning
               (Printf.sprintf "p%d" r.pid)
               (Printf.sprintf "%srule %d `when %s` can never fire" r.where
                  r.index r.text)
               (Some "delete the rule, or relax its guard"))
        else None)
      t.reports
  in
  let starved =
    List.filter_map
      (fun r ->
        if r.starved_recv then
          Some
            (finding ~expect "unreachable-message" Lint.Warning
               (Printf.sprintf "p%d" r.pid)
               (Printf.sprintf
                  "%sreceive in rule %d `when %s` is never fed: every \
                   matching send is dead"
                  r.where r.index r.text)
               (Some "fix or remove the dead sender, or drop the receive"))
        else None)
      t.reports
  in
  let atoms =
    List.map
      (fun (aname, why) ->
        finding ~expect "unreachable-message" Lint.Warning aname
          (Printf.sprintf "atom %s %s — the atom can never change value"
             aname why)
          (Some "point the atom at a payload or tag the spec can produce"))
      t.unreachable
  in
  let tauto =
    List.filter_map
      (fun r ->
        if r.verdict = Tautology && r.text <> "true" then
          Some
            (finding ~expect "guard-tautology" Lint.Info
               (Printf.sprintf "p%d" r.pid)
               (Printf.sprintf
                  "%sguard `%s` of rule %d holds in every reachable state"
                  r.where r.text r.index)
               (Some "write `when true` if the rule is meant to always offer"))
        else None)
      t.reports
  in
  dead @ starved @ atoms @ tauto

(* -- rendering --------------------------------------------------------------- *)

let pp ppf t =
  let open Format in
  let verdict_str = function
    | Dead -> "dead"
    | Tautology -> "always"
    | Sat -> "sat"
  in
  fprintf ppf "@[<v>";
  fprintf ppf "rules:@,";
  List.iter
    (fun r ->
      fprintf ppf "  p%d/%d [%s%s] when %s@," r.pid r.index
        (verdict_str r.verdict)
        (if r.starved_recv then ", starved recv" else "")
        r.text)
    t.reports;
  fprintf ppf "channels:%s@,"
    (if t.channels = [] then " (none)" else "");
  List.iter
    (fun (s, d, m) -> fprintf ppf "  p%d -> p%d %S@," s d m)
    t.channels;
  if not t.graph_exact then
    fprintf ppf "  (over-approximate: some destination is history-dependent)@,";
  List.iter
    (fun (aname, why) -> fprintf ppf "unreachable atom %s: %s@," aname why)
    t.unreachable;
  fprintf ppf "bounds:@,";
  Array.iteri
    (fun p b ->
      fprintf ppf "  p%d: %s events%s@," p
        (if b = pinf then "unbounded" else "<= " ^ string_of_int b)
        (if t.stable.(p) then ", receive-free (stable)" else ""))
    t.bounds;
  (match t.indep with
  | Some ind ->
      fprintf ppf
        "independence: total event bound %d — POR may restrict at depth >= %d@,"
        (Reduction.Independence.total ind)
        (Reduction.Independence.total ind)
  | None ->
      fprintf ppf
        "independence: unavailable (some process has no finite event bound)@,");
  fprintf ppf "@]"
