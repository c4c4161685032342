let operator u ext s =
  let acc = ref (Bitset.inter ext s) in
  List.iter
    (fun p ->
      acc := Bitset.inter !acc (Knowledge.knows_ext u (Pset.singleton p) s))
    (Spec.pids (Universe.spec u));
  !acc

let fixpoint u ext =
  let rec go s count =
    let s' = operator u ext s in
    if Bitset.equal s s' then (s, count) else go s' (count + 1)
  in
  go (Bitset.create_full (Universe.size u)) 0

let common_ext u ext = fst (fixpoint u ext)

let common u b =
  Prop.of_extent u
    (Printf.sprintf "CK(%s)" (Prop.name b))
    (common_ext u (Prop.extent u b))

let rec level u k b =
  if k <= 0 then b
  else
    let prev = Prop.extent u (level u (k - 1) b) in
    let ck_k =
      List.fold_left
        (fun acc p ->
          Bitset.inter acc (Knowledge.knows_ext u (Pset.singleton p) prev))
        (Prop.extent u b)
        (Spec.pids (Universe.spec u))
    in
    Prop.of_extent u (Printf.sprintf "E^%d(%s)" k (Prop.name b)) ck_k

let attainable ?level:lvl u b =
  let p = match lvl with None -> common u b | Some k -> level u k b in
  not (Bitset.is_empty (Prop.extent u p))

let constancy_holds u b =
  Spec.n (Universe.spec u) < 2 || Prop.is_constant u (common u b)

let iterations_to_fixpoint u b = snd (fixpoint u (Prop.extent u b))
