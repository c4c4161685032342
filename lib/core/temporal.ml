let ex u s =
  let succ = Universe.successors u in
  Bitset.of_pred (Universe.size u) (fun i ->
      Array.exists (Bitset.mem s) succ.(i))

let ax u s =
  let succ = Universe.successors u in
  Bitset.of_pred (Universe.size u) (fun i ->
      Array.for_all (Bitset.mem s) succ.(i))

(* Least fixpoint of [b ∪ (a ∩ step result)]. Successors sit at higher
   indices (BFS order), so a downward sweep settles in one pass and the
   second only confirms it. *)
let until u ~step a b =
  let succ = Universe.successors u in
  let result = Bitset.copy b in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Universe.size u - 1 downto 0 do
      if (not (Bitset.mem result i)) && Bitset.mem a i && step result succ.(i)
      then begin
        Bitset.add result i;
        changed := true
      end
    done
  done;
  result

let eu u a b = until u ~step:(fun r s -> Array.exists (Bitset.mem r) s) a b

(* on a finite DAG leaves satisfy A[a U b] only via b *)
let au u a b =
  until u
    ~step:(fun r s -> Array.length s > 0 && Array.for_all (Bitset.mem r) s)
    a b

let ef u s = eu u (Bitset.create_full (Universe.size u)) s
let af u s = au u (Bitset.create_full (Universe.size u)) s
let eg u s = Bitset.complement (af u (Bitset.complement s))
let ag u s = Bitset.complement (ef u (Bitset.complement s))
