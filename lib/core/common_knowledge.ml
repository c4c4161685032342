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

let attainable ?level u b =
  let ext = Prop.extent u b in
  let ck =
    match level with
    | None -> common_ext u ext
    | Some k -> Group.e_iterate u (Spec.all (Universe.spec u)) k ext
  in
  not (Bitset.is_empty ck)

let constancy_holds u b =
  Spec.n (Universe.spec u) < 2
  ||
  let ck = common_ext u (Prop.extent u b) in
  Bitset.is_empty ck || Bitset.cardinal ck = Universe.size u

let iterations_to_fixpoint u b = snd (fixpoint u (Prop.extent u b))
