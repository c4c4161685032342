(* Recursive-descent parser for the .hpl grammar (DESIGN.md §11).

   Keywords are matched contextually from IDENT tokens, so the lexer
   stays trivial. Expressions use one untyped grammar for both integer
   and boolean positions — precedence (low to high): '||', '&&',
   comparison (non-associative), '+'/'-', '*'/'/'/'%', unary '!'/'-' —
   and the elaborator's type check separates the two, which avoids the
   classic "parenthesized boolean vs parenthesized integer" ambiguity
   without backtracking. *)

open Ast

type state = { file : string; toks : Lexer.t array; mutable i : int }

let peek st = st.toks.(st.i)
let peek_tok st = (peek st).Lexer.tok
let peek_pos st = (peek st).Lexer.pos

let advance st =
  let t = st.toks.(st.i) in
  if st.i < Array.length st.toks - 1 then st.i <- st.i + 1;
  t

let fail st pos fmt =
  Printf.ksprintf (fun msg -> raise (Diag.Error (Diag.make ~file:st.file ~pos msg))) fmt

let expect st tok what =
  let t = advance st in
  if t.Lexer.tok <> tok then
    fail st t.Lexer.pos "expected %s, got %s" what
      (Lexer.token_to_string t.Lexer.tok)

let expect_ident st what =
  let t = advance st in
  match t.Lexer.tok with
  | Lexer.IDENT s -> (s, t.Lexer.pos)
  | k -> fail st t.Lexer.pos "expected %s, got %s" what (Lexer.token_to_string k)

let expect_string st what =
  let t = advance st in
  match t.Lexer.tok with
  | Lexer.STRING s -> (s, t.Lexer.pos)
  | k -> fail st t.Lexer.pos "expected %s, got %s" what (Lexer.token_to_string k)

(* integer literal with optional leading minus — for parameter
   defaults/bounds and depth, where full expressions are not allowed *)
let expect_int_lit st what =
  let t = advance st in
  match t.Lexer.tok with
  | Lexer.INT k -> (k, t.Lexer.pos)
  | Lexer.MINUS -> (
      let t2 = advance st in
      match t2.Lexer.tok with
      | Lexer.INT k -> (-k, t.Lexer.pos)
      | k ->
          fail st t2.Lexer.pos "expected %s, got %s" what
            (Lexer.token_to_string k))
  | k -> fail st t.Lexer.pos "expected %s, got %s" what (Lexer.token_to_string k)

(* -- expressions --------------------------------------------------------- *)

let rec parse_or st =
  let lhs = parse_and st in
  if peek_tok st = Lexer.OROR then begin
    let p = (advance st).Lexer.pos in
    let rhs = parse_or st in
    Binop (Or, lhs, rhs, p)
  end
  else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if peek_tok st = Lexer.ANDAND then begin
    let p = (advance st).Lexer.pos in
    let rhs = parse_and st in
    Binop (And, lhs, rhs, p)
  end
  else lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match peek_tok st with
    | Lexer.EQEQ -> Some Eq
    | Lexer.NE -> Some Ne
    | Lexer.LT -> Some Lt
    | Lexer.LE -> Some Le
    | Lexer.GT -> Some Gt
    | Lexer.GE -> Some Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      let p = (advance st).Lexer.pos in
      let rhs = parse_add st in
      Binop (op, lhs, rhs, p)

and parse_add st =
  let rec loop lhs =
    match peek_tok st with
    | Lexer.PLUS ->
        let p = (advance st).Lexer.pos in
        loop (Binop (Add, lhs, parse_mul st, p))
    | Lexer.MINUS ->
        let p = (advance st).Lexer.pos in
        loop (Binop (Sub, lhs, parse_mul st, p))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match peek_tok st with
    | Lexer.STAR ->
        let p = (advance st).Lexer.pos in
        loop (Binop (Mul, lhs, parse_unary st, p))
    | Lexer.SLASH ->
        let p = (advance st).Lexer.pos in
        loop (Binop (Div, lhs, parse_unary st, p))
    | Lexer.PERCENT ->
        let p = (advance st).Lexer.pos in
        loop (Binop (Mod, lhs, parse_unary st, p))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match peek_tok st with
  | Lexer.MINUS ->
      let p = (advance st).Lexer.pos in
      Unop (`Neg, parse_unary st, p)
  | Lexer.BANG ->
      let p = (advance st).Lexer.pos in
      Unop (`Not, parse_unary st, p)
  | _ -> parse_primary st

and parse_primary st =
  let t = advance st in
  let p = t.Lexer.pos in
  match t.Lexer.tok with
  | Lexer.INT k -> Int (k, p)
  | Lexer.LPAREN ->
      let e = parse_or st in
      expect st Lexer.RPAREN "')'";
      e
  | Lexer.IDENT "true" -> Boolean (true, p)
  | Lexer.IDENT "false" -> Boolean (false, p)
  | Lexer.IDENT name when peek_tok st = Lexer.LPAREN -> (
      ignore (advance st);
      match name with
      | "sends" | "recvs" ->
          let payload, _ = expect_string st "a payload string" in
          expect st Lexer.RPAREN "')'";
          Count (name, payload, p)
      | "did" ->
          let tag, _ = expect_string st "an internal-event tag string" in
          expect st Lexer.RPAREN "')'";
          Did (tag, p)
      | "sends_to" ->
          let dst = parse_or st in
          expect st Lexer.RPAREN "')'";
          Sends_to (dst, p)
      | "min" | "max" ->
          let a = parse_or st in
          expect st Lexer.COMMA "','";
          let b = parse_or st in
          expect st Lexer.RPAREN "')'";
          Minmax ((if name = "min" then `Min else `Max), a, b, p)
      | _ ->
          fail st p
            "unknown function '%s' (expected sends, recvs, sends_to, did, \
             min, max)"
            name)
  | Lexer.IDENT name -> Var (name, p)
  | k -> fail st p "expected an expression, got %s" (Lexer.token_to_string k)

let parse_expr = parse_or

(* -- rules and items ------------------------------------------------------ *)

let parse_intent st =
  let t = advance st in
  let p = t.Lexer.pos in
  match t.Lexer.tok with
  | Lexer.IDENT "send" ->
      let payload, _ = expect_string st "a payload string" in
      let kw, kp = expect_ident st "'to'" in
      if kw <> "to" then fail st kp "expected 'to', got '%s'" kw;
      Send (payload, parse_expr st, p)
  | Lexer.IDENT "recv" -> (
      match peek_tok st with
      | Lexer.IDENT "from" ->
          ignore (advance st);
          Recv (Some (parse_expr st), p)
      | _ -> Recv (None, p))
  | Lexer.IDENT "do" ->
      let tag, _ = expect_string st "an internal-event tag string" in
      Act (tag, p)
  | k ->
      fail st p "expected an intent (send, recv, do), got %s"
        (Lexer.token_to_string k)

let parse_rule st =
  let _, rpos = expect_ident st "'when'" in
  let gstart = peek_pos st in
  let guard = parse_expr st in
  (* the guard's last token is the one just consumed before '=>' *)
  let gend = st.toks.(st.i - 1).Lexer.epos in
  expect st Lexer.ARROW "'=>'";
  let rec more acc =
    if peek_tok st = Lexer.COMMA then begin
      ignore (advance st);
      more (parse_intent st :: acc)
    end
    else List.rev acc
  in
  let intents = more [ parse_intent st ] in
  { guard; intents; rpos; gspan = (gstart, gend) }

(* for k in a .. b { when ... } — the body holds rules only *)
let parse_for st =
  let var, vpos = expect_ident st "a loop variable" in
  let kw, kp = expect_ident st "'in'" in
  if kw <> "in" then fail st kp "expected 'in', got '%s'" kw;
  let first = parse_expr st in
  expect st Lexer.DOTDOT "'..'";
  let last = parse_expr st in
  expect st Lexer.LBRACE "'{'";
  let rec rules acc =
    match peek_tok st with
    | Lexer.RBRACE ->
        ignore (advance st);
        List.rev acc
    | Lexer.IDENT "when" -> rules (parse_rule st :: acc)
    | k ->
        fail st (peek_pos st) "expected 'when' or '}' in for block, got %s"
          (Lexer.token_to_string k)
  in
  For (var, first, last, rules [], vpos)

let parse_process st ppos =
  let sel =
    match peek_tok st with
    | Lexer.STAR ->
        let p = (advance st).Lexer.pos in
        Sel_rest p
    | _ ->
        let p = peek_pos st in
        Sel_pid (parse_expr st, p)
  in
  expect st Lexer.LBRACE "'{'";
  let rec items acc =
    match peek_tok st with
    | Lexer.RBRACE ->
        ignore (advance st);
        List.rev acc
    | Lexer.IDENT "when" -> items (Rule (parse_rule st) :: acc)
    | Lexer.IDENT "for" ->
        ignore (advance st);
        items (parse_for st :: acc)
    | k ->
        fail st (peek_pos st)
          "expected 'when', 'for' or '}' in process block, got %s"
          (Lexer.token_to_string k)
  in
  Process (sel, items [], ppos)

let parse_param st ppos =
  let key, _ = expect_ident st "a parameter name" in
  expect st Lexer.EQUALS "'='";
  let default, _ = expect_int_lit st "an integer default" in
  let lo = ref None and hi = ref None and pdoc = ref "" in
  let rec opts () =
    match peek_tok st with
    | Lexer.IDENT "min" ->
        ignore (advance st);
        let v, _ = expect_int_lit st "an integer lower bound" in
        lo := Some v;
        opts ()
    | Lexer.IDENT "max" ->
        ignore (advance st);
        let v, _ = expect_int_lit st "an integer upper bound" in
        hi := Some v;
        opts ()
    | Lexer.IDENT "doc" ->
        ignore (advance st);
        let s, _ = expect_string st "a doc string" in
        pdoc := s;
        opts ()
    | _ -> ()
  in
  opts ();
  Param { key; default; lo = !lo; hi = !hi; pdoc = !pdoc; ppos }

let parse_symgen st spos =
  let name, p = expect_ident st "a symmetry generator (rotation, swap, cycle)" in
  match name with
  | "rotation" -> Symmetry (Rotation p, spos)
  | "swap" ->
      let a = parse_expr st in
      let b = parse_expr st in
      Symmetry (Swap (a, b, p), spos)
  | "cycle" ->
      let a = parse_expr st in
      expect st Lexer.DOTDOT "'..'";
      let b = parse_expr st in
      Symmetry (Cycle (a, b, p), spos)
  | _ ->
      fail st p "unknown symmetry generator '%s' (expected rotation, swap, or cycle)"
        name

let parse_strings st what =
  let s, _ = expect_string st what in
  let rec more acc =
    match peek_tok st with
    | Lexer.STRING s ->
        ignore (advance st);
        more (s :: acc)
    | _ -> List.rev acc
  in
  more [ s ]

let parse_atom st apos =
  let aname, _ = expect_ident st "an atom name" in
  let scope =
    match advance st with
    | { Lexer.tok = Lexer.IDENT "at"; _ } -> At (parse_expr st)
    | { Lexer.tok = Lexer.IDENT "forall"; _ } -> Forall
    | { Lexer.tok = k; pos } ->
        fail st pos "expected 'at <process>' or 'forall', got %s"
          (Lexer.token_to_string k)
  in
  expect st Lexer.EQUALS "'='";
  Atom { aname; scope; body = parse_expr st; apos }

let parse_item st =
  let t = advance st in
  let p = t.Lexer.pos in
  match t.Lexer.tok with
  | Lexer.IDENT "doc" ->
      let s, _ = expect_string st "a doc string" in
      Doc (s, p)
  | Lexer.IDENT "param" -> parse_param st p
  | Lexer.IDENT "processes" -> Processes (parse_expr st, p)
  | Lexer.IDENT "depth" ->
      let d, _ = expect_int_lit st "an integer depth" in
      Depth (d, p)
  | Lexer.IDENT "process" -> parse_process st p
  | Lexer.IDENT "atom" -> parse_atom st p
  | Lexer.IDENT "symmetry" -> parse_symgen st p
  | Lexer.IDENT "faults" -> Faults (parse_strings st "a fault-scenario string", p)
  | Lexer.IDENT "lint_expect" ->
      Lint_expect (parse_strings st "a lint rule id string", p)
  | k ->
      fail st p
        "expected an item (doc, param, processes, depth, process, atom, \
         symmetry, faults, lint_expect), got %s"
        (Lexer.token_to_string k)

let parse_spec st =
  let kw, kp = expect_ident st "'protocol'" in
  if kw <> "protocol" then fail st kp "expected 'protocol', got '%s'" kw;
  let sname, spos =
    match advance st with
    | { Lexer.tok = Lexer.IDENT s; pos } -> (s, pos)
    | { Lexer.tok = Lexer.STRING s; pos } -> (s, pos)
    | { Lexer.tok = k; pos } ->
        fail st pos "expected a protocol name, got %s" (Lexer.token_to_string k)
  in
  expect st Lexer.LBRACE "'{'";
  let rec items acc =
    match peek_tok st with
    | Lexer.RBRACE ->
        ignore (advance st);
        List.rev acc
    | _ -> items (parse_item st :: acc)
  in
  let its = items [] in
  expect st Lexer.EOF "end of file after the protocol block";
  { sname; items = its; spos }

let parse ~file src : (Ast.spec, Diag.t) result =
  match Lexer.tokenize ~file src with
  | Error e -> Error e
  | Ok toks -> (
      let st = { file; toks = Array.of_list toks; i = 0 } in
      try Ok (parse_spec st) with Diag.Error e -> Error e)
