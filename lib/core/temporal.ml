type t =
  | Atom of Prop.t
  | True
  | False
  | Not of t
  | And of t * t
  | Or of t * t
  | Ex of t
  | Ax of t
  | Eu of t * t
  | Au of t * t

let atom b = Atom b
let tt = True
let ff = False
let not_ f = Not f
let and_ a b = And (a, b)
let or_ a b = Or (a, b)
let implies a b = Or (Not a, b)
let ex f = Ex f
let ax f = Ax f
let eu a b = Eu (a, b)
let au a b = Au (a, b)
let ef f = Eu (True, f)
let af f = Au (True, f)
let eg f = Not (Au (True, Not f))
let ag f = Not (Eu (True, Not f))

let eval_ctl ~size ~succ ~atom formula =
  let rec eval = function
    | True -> Bitset.create_full size
    | False -> Bitset.create size
    | Atom b -> atom b
    | Not f -> Bitset.complement (eval f)
    | And (a, b) -> Bitset.inter (eval a) (eval b)
    | Or (a, b) -> Bitset.union (eval a) (eval b)
    | Ex f ->
        let s = eval f in
        Bitset.of_pred size (fun i -> Array.exists (Bitset.mem s) succ.(i))
    | Ax f ->
        let s = eval f in
        Bitset.of_pred size (fun i -> Array.for_all (Bitset.mem s) succ.(i))
    | Eu (a, b) ->
        (* least fixpoint: b ∪ (a ∩ EX result). Successors sit at higher
           indices (BFS order), so a downward sweep settles in one pass
           and the second only confirms it *)
        let sa = eval a and sb = eval b in
        let result = Bitset.copy sb in
        let changed = ref true in
        while !changed do
          changed := false;
          for i = size - 1 downto 0 do
            if
              (not (Bitset.mem result i))
              && Bitset.mem sa i
              && Array.exists (Bitset.mem result) succ.(i)
            then begin
              Bitset.add result i;
              changed := true
            end
          done
        done;
        result
    | Au (a, b) ->
        (* least fixpoint: b ∪ (a ∩ nonempty-successors ∩ AX result);
           on a finite DAG leaves satisfy A[a U b] only via b *)
        let sa = eval a and sb = eval b in
        let result = Bitset.copy sb in
        let changed = ref true in
        while !changed do
          changed := false;
          for i = size - 1 downto 0 do
            if
              (not (Bitset.mem result i))
              && Bitset.mem sa i
              && Array.length succ.(i) > 0
              && Array.for_all (Bitset.mem result) succ.(i)
            then begin
              Bitset.add result i;
              changed := true
            end
          done
        done;
        result
  in
  eval formula

let check u formula =
  eval_ctl ~size:(Universe.size u) ~succ:(Universe.successors u)
    ~atom:(Prop.extent u) formula

let holds_at u f z = Bitset.mem (check u f) (Universe.find_exn u z)
let valid u f = Bitset.equal (check u f) (Bitset.create_full (Universe.size u))
let holds_initially u f = holds_at u f Trace.empty

let rec pp fmt = function
  | Atom b -> Prop.pp fmt b
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Not f -> Format.fprintf fmt "¬(%a)" pp f
  | And (a, b) -> Format.fprintf fmt "(%a ∧ %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a ∨ %a)" pp a pp b
  | Ex f -> Format.fprintf fmt "EX(%a)" pp f
  | Ax f -> Format.fprintf fmt "AX(%a)" pp f
  | Eu (True, b) -> Format.fprintf fmt "EF(%a)" pp b
  | Eu (a, b) -> Format.fprintf fmt "E[%a U %a]" pp a pp b
  | Au (True, b) -> Format.fprintf fmt "AF(%a)" pp b
  | Au (a, b) -> Format.fprintf fmt "A[%a U %a]" pp a pp b
