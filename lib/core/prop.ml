type t = { name : string; eval : Trace.t -> bool }

let make name eval = { name; eval }
let name b = b.name
let eval b x = b.eval x
let tt = make "true" (fun _ -> true)
let ff = make "false" (fun _ -> false)
let const c = if c then tt else ff
let not_ b = make (Printf.sprintf "¬(%s)" b.name) (fun x -> not (b.eval x))

let and_ a b =
  make (Printf.sprintf "(%s ∧ %s)" a.name b.name) (fun x -> a.eval x && b.eval x)

let or_ a b =
  make (Printf.sprintf "(%s ∨ %s)" a.name b.name) (fun x -> a.eval x || b.eval x)

let implies a b =
  make
    (Printf.sprintf "(%s ⇒ %s)" a.name b.name)
    (fun x -> (not (a.eval x)) || b.eval x)

let iff a b =
  make
    (Printf.sprintf "(%s ⇔ %s)" a.name b.name)
    (fun x -> Bool.equal (a.eval x) (b.eval x))

let conj = function
  | [] -> tt
  | b :: rest -> List.fold_left and_ b rest

let disj = function
  | [] -> ff
  | b :: rest -> List.fold_left or_ b rest

let local_event_count p f name =
  make name (fun x -> f (Trace.local_length x p))

let extent u b =
  Hpl_obs.span "prop.extent"
    ~args:(fun () ->
      [ ("prop", b.name); ("size", string_of_int (Universe.size u)) ])
  @@ fun () ->
  Hpl_obs.count "prop.extent.evals" (Universe.size u);
  let n = Universe.size u in
  Bitset.of_pred n (fun i -> b.eval (Universe.comp u i))

let respects_interleaving u b =
  let n = Universe.size u in
  let ids = Universe.pset_class_ids u (Spec.all (Universe.spec u)) in
  let value : (int, bool) Hashtbl.t = Hashtbl.create n in
  let ok = ref true in
  Universe.iter
    (fun i x ->
      let v = b.eval x in
      match Hashtbl.find_opt value ids.(i) with
      | None -> Hashtbl.add value ids.(i) v
      | Some v' -> if v <> v' then ok := false)
    u;
  !ok

let is_constant u b =
  match Universe.size u with
  | 0 -> true
  | _ ->
      let v0 = b.eval (Universe.comp u 0) in
      let ok = ref true in
      Universe.iter (fun _ x -> if b.eval x <> v0 then ok := false) u;
      !ok

let pp fmt b = Format.pp_print_string fmt b.name
