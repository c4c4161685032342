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

let rec e_iterate u g k ext =
  if k <= 0 then ext else everyone_ext u g (e_iterate u g (k - 1) ext)

module Laws = struct
  let everyone_implies_distributed u g b =
    let ext = Prop.extent u b in
    Pset.is_empty g
    || Bitset.subset (everyone_ext u g ext) (Knowledge.knows_ext u g ext)

  let someone_of_singleton u p b =
    let g = Pset.singleton p in
    let ext = Prop.extent u b in
    let e = everyone_ext u g ext in
    let s = someone_ext u g ext in
    let d = Knowledge.knows_ext u g ext in
    Bitset.equal e s && Bitset.equal s d

  let distributed_monotone u g h b =
    let ext = Prop.extent u b in
    (not (Pset.subset g h))
    || Bitset.subset (Knowledge.knows_ext u g ext) (Knowledge.knows_ext u h ext)

  let e_chain_decreasing u g bound b =
    let rec go k prev =
      if k > bound then true
      else
        let cur = everyone_ext u g prev in
        Bitset.subset cur prev && go (k + 1) cur
    in
    go 1 (Prop.extent u b)
end
