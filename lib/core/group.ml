let everyone_ext u g ext =
  Pset.fold
    (fun p acc -> Bitset.inter acc (Knowledge.knows_ext u (Pset.singleton p) ext))
    g
    (Bitset.create_full (Universe.size u))

let someone_ext u g ext =
  Pset.fold
    (fun p acc -> Bitset.union acc (Knowledge.knows_ext u (Pset.singleton p) ext))
    g
    (Bitset.create (Universe.size u))

let everyone u g b =
  Prop.of_extent u
    (Format.asprintf "E%a(%s)" Pset.pp g (Prop.name b))
    (everyone_ext u g (Prop.extent u b))

let someone u g b =
  Prop.of_extent u
    (Format.asprintf "S%a(%s)" Pset.pp g (Prop.name b))
    (someone_ext u g (Prop.extent u b))

let distributed = Knowledge.knows

let rec e_iterate u g k b =
  if k <= 0 then b
  else
    let prev = e_iterate u g (k - 1) b in
    Prop.of_extent u
      (Printf.sprintf "E^%d(%s)" k (Prop.name b))
      (everyone_ext u g (Prop.extent u prev))

module Laws = struct
  let everyone_implies_distributed u g b =
    Pset.is_empty g
    || Bitset.subset
         (everyone_ext u g (Prop.extent u b))
         (Prop.extent u (Knowledge.knows u g b))

  let someone_of_singleton u p b =
    let g = Pset.singleton p in
    let ext = Prop.extent u b in
    let e = everyone_ext u g ext in
    let s = someone_ext u g ext in
    let d = Knowledge.knows_ext u g ext in
    Bitset.equal e s && Bitset.equal s d

  let distributed_monotone u g h b =
    (not (Pset.subset g h))
    || Bitset.subset
         (Prop.extent u (Knowledge.knows u g b))
         (Prop.extent u (Knowledge.knows u h b))

  let e_chain_decreasing u g bound b =
    let rec go k prev =
      if k > bound then true
      else
        let cur = Prop.extent u (e_iterate u g k b) in
        Bitset.subset cur prev && go (k + 1) cur
    in
    go 1 (Prop.extent u (e_iterate u g 0 b))
end
