(* Process-permutation symmetry: permutations, finite groups generated
   by declared generators, their action on messages / events / traces,
   and orbit keys for symmetry-reduced enumeration. *)

type perm = int array

let check ~n a =
  if Array.length a <> n then
    invalid_arg "Symmetry: permutation length does not match system size";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Symmetry: not a permutation";
      seen.(i) <- true)
    a

let identity n = Array.init n Fun.id
let is_identity a = Array.for_all2 (fun i j -> i = j) a (identity (Array.length a))

let rotation n =
  if n < 1 then invalid_arg "Symmetry.rotation: empty system";
  Array.init n (fun i -> (i + 1) mod n)

let transposition n a b =
  if a < 0 || b < 0 || a >= n || b >= n then
    invalid_arg "Symmetry.transposition: pid out of range";
  Array.init n (fun i -> if i = a then b else if i = b then a else i)

let cycle n members =
  (match members with
  | [] | [ _ ] -> invalid_arg "Symmetry.cycle: need at least two members"
  | _ -> ());
  let a = identity n in
  let rec go = function
    | x :: (y :: _ as rest) ->
        if x < 0 || x >= n then invalid_arg "Symmetry.cycle: pid out of range";
        a.(x) <- y;
        go rest
    | [ last ] ->
        if last < 0 || last >= n then
          invalid_arg "Symmetry.cycle: pid out of range";
        a.(last) <- List.hd members
    | [] -> ()
  in
  go members;
  check ~n a;
  a

(* compose a b = a ∘ b : first apply b, then a *)
let compose a b = Array.init (Array.length a) (fun i -> a.(b.(i)))

let inverse a =
  let inv = Array.make (Array.length a) 0 in
  Array.iteri (fun i j -> inv.(j) <- i) a;
  inv

let to_string a =
  (* disjoint cycle notation, fixpoints omitted *)
  let n = Array.length a in
  let seen = Array.make n false in
  let buf = Buffer.create 16 in
  for i = 0 to n - 1 do
    if (not seen.(i)) && a.(i) <> i then begin
      Buffer.add_char buf '(';
      let rec go j first =
        if not first then Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int j);
        seen.(j) <- true;
        if not seen.(a.(j)) then go a.(j) false
      in
      go i true;
      Buffer.add_char buf ')'
    end
  done;
  if Buffer.length buf = 0 then "id" else Buffer.contents buf

(* --- groups --------------------------------------------------------- *)

module PermTbl = Hashtbl.Make (struct
  type t = perm

  let equal = Stdlib.( = )
  let hash (a : perm) = Hashtbl.hash (Array.to_list a)
end)

type group = { n : int; perms : perm array }

let closure ~max_order n gens =
  let tbl = PermTbl.create 64 in
  let order = ref [] in
  let add p =
    if not (PermTbl.mem tbl p) then begin
      PermTbl.add tbl p ();
      order := p :: !order;
      true
    end
    else false
  in
  ignore (add (identity n));
  let queue = Queue.create () in
  Queue.add (identity n) queue;
  let exception Too_big in
  try
    while not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      List.iter
        (fun g ->
          let q = compose g p in
          if add q then begin
            if PermTbl.length tbl > max_order then raise Too_big;
            Queue.add q queue
          end)
        gens
    done;
    Some (List.rev !order)
  with Too_big -> None

let of_generators ?(max_order = 10_080) ~n gens =
  List.iter (check ~n) gens;
  let gens = List.filter (fun g -> not (is_identity g)) gens in
  (* on overflow drop trailing generators: any subgroup is a sound
     (just weaker) reduction, and the kept prefix stays deterministic *)
  let rec fit kept =
    match closure ~max_order n kept with
    | Some perms -> perms
    | None -> (
        match List.rev kept with
        | [] -> [ identity n ]
        | _ :: rev_rest -> fit (List.rev rev_rest))
  in
  { n; perms = Array.of_list (fit gens) }

let order g = Array.length g.perms
let is_trivial g = order g = 1
let elements g = Array.to_list g.perms

(* --- action on the model ------------------------------------------- *)

let apply a p = Pid.of_int a.(Pid.to_int p)

let permute_msg a m =
  Msg.make ~src:(apply a m.Msg.src) ~dst:(apply a m.Msg.dst) ~seq:m.Msg.seq
    ~payload:m.Msg.payload

let permute_event a e =
  let pid = apply a e.Event.pid and lseq = e.Event.lseq in
  match e.Event.kind with
  | Event.Send m -> Event.send ~pid ~lseq (permute_msg a m)
  | Event.Receive m -> Event.receive ~pid ~lseq (permute_msg a m)
  | Event.Internal t -> Event.internal ~pid ~lseq t

let permute_trace a z =
  Trace.of_list (List.map (permute_event a) (Trace.to_list z))

(* --- orbit keys ----------------------------------------------------- *)

(* the per-process projection vector characterizes the [D]-class: two
   computations are interleaving-equivalent iff all projections agree.
   Components are newest-first: extending a computation by one event is
   then a cons onto one component, which is what lets the enumeration
   maintain all |G| renamed vectors incrementally. *)
let proj_vector n z =
  let projs = Array.make n [] in
  List.iter
    (fun e ->
      let i = Pid.to_int e.Event.pid in
      projs.(i) <- e :: projs.(i))
    (Trace.to_list z);
  projs

type key = Event.t list array

(* components of a child key share tails with the parent's (extension is
   a cons), so a physical-equality cut ends most comparisons early *)
let rec compare_elist a b =
  if a == b then 0
  else
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs, y :: ys ->
        let c = Event.compare x y in
        if c <> 0 then c else compare_elist xs ys
let equal_key (a : key) b = Array.length a = Array.length b && Array.for_all2 (fun x y -> compare_elist x y = 0) a b

let compare_key (a : key) b =
  let la = Array.length a and lb = Array.length b in
  let rec go j =
    if j >= la then 0
    else
      let c = compare_elist a.(j) b.(j) in
      if c <> 0 then c else go (j + 1)
  in
  if la <> lb then Int.compare la lb else go 0

let hash_elist es =
  List.fold_left (fun acc e -> (acc * 31) + Event.hash e) 17 es

let hash_key (k : key) =
  Array.fold_left (fun acc es -> (acc * 131) + hash_elist es) 3 k

module KeyTbl = Hashtbl.Make (struct
  type t = key

  let equal = equal_key
  let hash = hash_key
end)

(* proj_{j}(π·z) = rename_π(proj_{π⁻¹(j)}(z)): the minimum over the
   group of the renamed projection vectors identifies the orbit of the
   [D]-class. Computed lazily component-by-component so losing
   candidates exit at their first greater component. *)
let orbit_key g z =
  let n = g.n in
  let projs = proj_vector n z in
  let candidate_component pi inv j = List.map (permute_event pi) projs.(inv.(j)) in
  let best = ref projs in
  for k = 1 to order g - 1 do
    let pi = g.perms.(k) in
    let inv = inverse pi in
    let rec cmp j =
      if j >= n then ()
      else begin
        let cj = candidate_component pi inv j in
        let c = compare_elist cj !best.(j) in
        if c < 0 then begin
          (* strictly better: materialize the remaining components *)
          let full =
            Array.init n (fun i ->
                if i < j then !best.(i)
                else if i = j then cj
                else candidate_component pi inv i)
          in
          best := full
        end
        else if c = 0 then cmp (j + 1)
      end
    in
    cmp 0
  done;
  !best

(* --- bounded automorphism probe ------------------------------------- *)

(* [π] is a spec automorphism iff the computation set is closed under
   its action; equivalently (by induction on length) [enabled] is
   equivariant at every computation. We check that to a bounded depth
   over all interleavings, capped by [max_states]. *)
let is_automorphism ?(depth = 4) ?(max_states = 20_000) spec pi =
  Array.length pi = Spec.n spec
  && begin
       let budget = ref max_states in
       let ok = ref true in
       let rec go z d =
         if !ok && !budget > 0 then begin
           decr budget;
           let en = Spec.enabled spec z in
           let lhs = Spec.enabled spec (permute_trace pi z) in
           let rhs = List.sort Event.compare (List.map (permute_event pi) en) in
           if not (List.equal Event.equal lhs rhs) then ok := false
           else if d < depth then
             List.iter (fun e -> go (Trace.snoc z e) (d + 1)) en
         end
       in
       go Trace.empty 0;
       !ok
     end
