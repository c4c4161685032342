let sure_ext u ps b = Knowledge.sure_ext u ps (Prop.extent u b)
let knows_ext u ps b = Knowledge.knows_ext u ps (Prop.extent u b)

(* [P] is sure of the predicate whose extent is [ext] everywhere *)
let is_local_ext u ps ext =
  Bitset.equal (Knowledge.sure_ext u ps ext) (Bitset.create_full (Universe.size u))

let is_local u ps b = is_local_ext u ps (Prop.extent u b)

let lemma3_constant u p q b =
  let premise = Pset.disjoint p q && is_local u p b && is_local u q b in
  (not premise) || Prop.is_constant u b

module Facts = struct
  let fact1_iso_invariant u ps b =
    (not (is_local u ps b))
    ||
    let ids = Universe.pset_class_ids u ps in
    let ext = Prop.extent u b in
    let ok = ref true in
    Universe.iter
      (fun i _ ->
        Universe.iter
          (fun j _ ->
            if ids.(i) = ids.(j) && Bitset.mem ext i <> Bitset.mem ext j then
              ok := false)
          u)
      u;
    !ok

  let fact2_known u ps b =
    (not (is_local u ps b))
    ||
    let ext = Prop.extent u b in
    Bitset.equal ext (Knowledge.knows_ext u ps ext)

  let fact3_negation u ps b = is_local u ps b = is_local u ps (Prop.not_ b)

  let fact4_knowledge_collapse u p q b =
    (not (is_local u p b))
    || Bitset.equal (knows_ext u q b)
         (Knowledge.knows_ext u q (knows_ext u p b))

  let fact5_knows_is_local u ps b = is_local_ext u ps (knows_ext u ps b)
  let fact6_disjoint_constant = lemma3_constant

  let fact7_constants_local u ps c = is_local u ps (Prop.const c)

  let fact8_sure_is_local u ps b = is_local_ext u ps (sure_ext u ps b)
end

let identical_knowledge_constant u p q b =
  let kp = knows_ext u p b in
  let kq = knows_ext u q b in
  let premise = Pset.disjoint p q && Bitset.equal kp kq in
  (not premise)
  || Bitset.is_empty kp
  || Bitset.equal kp (Bitset.create_full (Universe.size u))

let identical_sure_constant u p q b =
  let sp = sure_ext u p b in
  let sq = sure_ext u q b in
  let premise = Pset.disjoint p q && Bitset.equal sp sq in
  (not premise)
  || Bitset.is_empty sp
  || Bitset.equal sp (Bitset.create_full (Universe.size u))
