let knows_ext u ps ext =
  Hpl_obs.span "knowledge.knows_ext"
    ~args:(fun () -> [ ("pset", Pset.to_string ps) ])
  @@ fun () ->
  let classes = Universe.classes u ps in
  Hpl_obs.count "knowledge.classes_scanned" (Array.length classes);
  let out = Bitset.create (Universe.size u) in
  Array.iter
    (fun cls -> if Bitset.subset cls ext then Bitset.union_into out cls)
    classes;
  out

let knows_ext_naive u ps ext =
  let size = Universe.size u in
  Bitset.of_pred size (fun i ->
      let x = Universe.comp u i in
      let ok = ref true in
      Universe.iter
        (fun j y ->
          if Isomorphism.iso x y ps && not (Bitset.mem ext j) then ok := false)
        u;
      !ok)

let nested_ext u psets ext =
  List.fold_right (fun ps acc -> knows_ext u ps acc) psets ext

let sure_ext u ps ext =
  Bitset.union (knows_ext u ps ext) (knows_ext u ps (Bitset.complement ext))

(* -- robustness under faults ----------------------------------------- *)

type verdict = Robust | Degraded | Destroyed | Vacuous

type provenance = Exact | Bound

type robustness = {
  verdict : verdict;
  provenance : provenance;
  baseline_hits : int;
  baseline_size : int;
  faulty_hits : int;
  faulty_size : int;
  baseline_status : Universe.status;
  faulty_status : Universe.status;
}

let verdict_to_string = function
  | Robust -> "robust"
  | Degraded -> "degraded"
  | Destroyed -> "destroyed"
  | Vacuous -> "vacuous"

let provenance_to_string = function Exact -> "exact" | Bound -> "bound"

let pp_robustness fmt r =
  Format.fprintf fmt "%s (fault-free: %d/%d%s; faulty: %d/%d%s)%s"
    (verdict_to_string r.verdict) r.baseline_hits r.baseline_size
    (match r.baseline_status with
    | Universe.Complete -> ""
    | Universe.Truncated _ -> " truncated")
    r.faulty_hits r.faulty_size
    (match r.faulty_status with
    | Universe.Complete -> ""
    | Universe.Truncated _ -> " truncated")
    (match r.provenance with
    | Exact -> ""
    | Bound -> "  [bound: truncated universe]")

let robust_under ?(mode = `Canonical) ?(budget = Universe.no_budget)
    ?faulty_depth ?(view = Fun.id) spec ~transform ~depth ps b =
  let u0 = Universe.enumerate ~mode ~budget spec ~depth in
  let faulty_depth = Option.value faulty_depth ~default:depth in
  let u1 = Universe.enumerate ~mode ~budget (transform spec) ~depth:faulty_depth in
  (* [b] is written against the fault-free system; [view] translates a
     faulty computation back to its fault-free observation first *)
  let b' = Prop.make (Prop.name b) (fun z -> Prop.eval b (view z)) in
  let hits u bb = Bitset.cardinal (knows_ext u ps (Prop.extent u bb)) in
  let baseline_hits = hits u0 b and faulty_hits = hits u1 b' in
  let baseline_size = Universe.size u0 and faulty_size = Universe.size u1 in
  let verdict =
    if baseline_hits = 0 then Vacuous
    else if faulty_hits = 0 then Destroyed
    else if
      (* compare prevalence as exact rationals: hits1/size1 vs hits0/size0 *)
      faulty_hits * baseline_size >= baseline_hits * faulty_size
    then Robust
    else Degraded
  in
  let provenance =
    match (Universe.status u0, Universe.status u1) with
    | Universe.Complete, Universe.Complete -> Exact
    | _ -> Bound
  in
  {
    verdict;
    provenance;
    baseline_hits;
    baseline_size;
    faulty_hits;
    faulty_size;
    baseline_status = Universe.status u0;
    faulty_status = Universe.status u1;
  }

module Laws = struct
  let ext_knows u ps b = knows_ext u ps (Prop.extent u b)

  let fact1_class_invariant u ps b =
    let k = ext_knows u ps b in
    let ids = Universe.pset_class_ids u ps in
    let ok = ref true in
    Universe.iter
      (fun i _ ->
        Universe.iter
          (fun j _ ->
            if ids.(i) = ids.(j) && Bitset.mem k i <> Bitset.mem k j then
              ok := false)
          u)
      u;
    !ok

  let fact3_monotone_union u p q b =
    Bitset.subset (ext_knows u p b) (ext_knows u (Pset.union p q) b)

  let fact4_veridical u ps b = Bitset.subset (ext_knows u ps b) (Prop.extent u b)

  let fact5_total u ps b =
    let k = ext_knows u ps b in
    let n = Universe.size u in
    Bitset.equal (Bitset.create_full n) (Bitset.union k (Bitset.complement k))

  let fact6_conjunction u ps b b' =
    Bitset.equal
      (Bitset.inter (ext_knows u ps b) (ext_knows u ps b'))
      (ext_knows u ps (Prop.and_ b b'))

  let fact7_disjunction u ps b b' =
    Bitset.subset
      (Bitset.union (ext_knows u ps b) (ext_knows u ps b'))
      (ext_knows u ps (Prop.or_ b b'))

  let fact8_consistency u ps b =
    Bitset.is_empty
      (Bitset.inter (ext_knows u ps (Prop.not_ b)) (ext_knows u ps b))

  let fact9_closure u ps b b' =
    let valid_implication =
      Bitset.subset (Prop.extent u b) (Prop.extent u b')
    in
    (not valid_implication)
    || Bitset.subset (ext_knows u ps b) (ext_knows u ps b')

  let fact10_positive_introspection u ps b =
    let k = ext_knows u ps b in
    Bitset.equal (knows_ext u ps k) k

  let fact11_negative_introspection u ps b =
    let nk = Bitset.complement (ext_knows u ps b) in
    Bitset.equal (knows_ext u ps nk) nk

  let fact12_constants u ps c =
    let k = ext_knows u ps (Prop.const c) in
    if c then Bitset.equal k (Bitset.create_full (Universe.size u))
    else Bitset.is_empty k
end
