type mode = [ `Full | `Canonical ]

type budget = { max_states : int option; max_seconds : float option }

let budget ?max_states ?max_seconds () =
  (match max_states with
  | Some k when k < 1 -> invalid_arg "Universe.budget: max_states < 1"
  | _ -> ());
  (match max_seconds with
  | Some s when s <= 0.0 -> invalid_arg "Universe.budget: max_seconds <= 0"
  | _ -> ());
  { max_states; max_seconds }

let no_budget = { max_states = None; max_seconds = None }

type trunc_reason = Max_states of int | Max_seconds of float

type status = Complete | Truncated of trunc_reason

let reason_to_string = function
  | Max_states k -> Printf.sprintf "state budget reached (max_states = %d)" k
  | Max_seconds s -> Printf.sprintf "time budget reached (max_seconds = %g)" s

module TraceTbl = Hashtbl.Make (struct
  type t = Trace.t

  let equal = Trace.equal
  let hash = Trace.hash
end)

(* Interning table for incremental per-process projections. A local
   computation is identified by the pair (class id of its immediate
   prefix, final event) — a hash-consed trie over local histories, so
   extending a projection by one event costs O(1) instead of hashing
   the whole event list. *)
module StepTbl = Hashtbl.Make (struct
  type t = int * Event.t

  let equal (i, e) (j, f) = Int.equal i j && Event.equal e f
  let hash (i, e) = Hashtbl.hash (i, Event.hash e)
end)

type trie = { steps : int StepTbl.t array; next_ids : int array }

let trie_create n =
  { steps = Array.init n (fun _ -> StepTbl.create 64); next_ids = Array.make n 1 }

(* class id 0 is the empty projection; every distinct one-event
   extension of an interned projection gets the next id on first sight,
   in discovery order *)
let trie_intern t pi parent_id e =
  let key = (parent_id, e) in
  match StepTbl.find_opt t.steps.(pi) key with
  | Some id -> id
  | None ->
      let id = t.next_ids.(pi) in
      t.next_ids.(pi) <- id + 1;
      StepTbl.add t.steps.(pi) key id;
      id

(* What a finished universe keeps of the trie: per process, each class
   id's immediate-prefix class id (-1 for the empty projection). The
   step tables themselves, with their boxed keys, are dropped. *)
let trie_parents t =
  Array.mapi
    (fun pi tbl ->
      let parent = Array.make t.next_ids.(pi) (-1) in
      StepTbl.iter (fun (parent_id, _) id -> parent.(id) <- parent_id) tbl;
      parent)
    t.steps

type t = {
  spec : Spec.t;
  mode : mode;
  depth : int;
  status : status;
  reduce : Reduction.t;
  comps : Trace.t array;
  idx : int TraceTbl.t Lazy.t; (* built on first lookup *)
  class_ids_by_pid : int array array; (* pid index -> comp index -> class id *)
  trie_parent : int array array; (* pid index -> class id -> prefix class id *)
  orbit_idx : int Symmetry.KeyTbl.t option; (* sym: orbit key -> index *)
  pset_ids_memo : (int list, int array) Hashtbl.t;
  classes_memo : (int list, Bitset.t array) Hashtbl.t;
  mutable succ_memo : int array array option;
}

(* --- canonical linearizations ------------------------------------- *)

(* Direct predecessors of [e] within a fixed event set: the previous
   event on the same process, and the corresponding send if [e] is a
   receive. All other causal ordering is their transitive closure. *)
let is_direct_pred ~of_:e c =
  (Pid.equal c.Event.pid e.Event.pid && c.Event.lseq = e.Event.lseq - 1)
  ||
  match e.Event.kind with
  | Event.Receive m -> (
      match c.Event.kind with Event.Send m' -> Msg.equal m m' | _ -> false)
  | Event.Send _ | Event.Internal _ -> false

(* Greedy least linearization: repeatedly emit the Event.compare-least
   event whose direct predecessors have all been emitted. For a valid
   computation this is exactly the lexicographically least interleaving
   of its [\[D\]]-class. *)
let canon_trace z =
  let rec go remaining acc =
    match remaining with
    | [] -> Trace.of_list (List.rev acc)
    | _ ->
        let ready =
          List.filter
            (fun e ->
              not
                (List.exists
                   (fun c -> (not (Event.equal c e)) && is_direct_pred ~of_:e c)
                   remaining))
            remaining
        in
        let least =
          match ready with
          | [] -> invalid_arg "Universe.canon: cyclic or ill-formed trace"
          | e :: rest -> List.fold_left (fun m c -> if Event.compare c m < 0 then c else m) e rest
        in
        go (List.filter (fun e -> not (Event.equal e least)) remaining) (least :: acc)
  in
  go (Trace.to_list z) []

(* [z] canonical, [e] enabled after [z]: is [(z;e)] canonical?  [e]
   becomes available right after its last direct predecessor; canonical
   means no later-placed event exceeds [e]. Scanning newest first stops
   at that predecessor, and [z] is never copied. *)
let snoc_is_canonical z e =
  let rec after_last_pred = function
    | [] -> true
    | c :: older ->
        is_direct_pred ~of_:e c
        || (Event.compare c e < 0 && after_last_pred older)
  in
  after_last_pred (Trace.to_rev_list z)

(* The trace → index table behind [index], [find] and [serialize],
   built on first lookup: enumeration, [Prop.extent] and the counting
   answers never look a trace up. *)
let trace_index comps =
  lazy
    (Hpl_obs.span "universe.index"
       ~args:(fun () -> [ ("size", string_of_int (Array.length comps)) ])
    @@ fun () ->
    let idx = TraceTbl.create (2 * Array.length comps) in
    Array.iteri (fun i z -> TraceTbl.replace idx z i) comps;
    idx)

(* --- enumeration --------------------------------------------------- *)

(* A BFS node: its trace, the vector of per-process class ids of its
   projections, and the messages in flight, newest first. A child
   differs from its parent in one class-id slot (the extending event's
   process) and in one message at most (a send adds it, a receive
   removes it), so both are maintained per child, never recomputed from
   the trace. Under symmetry a node also carries every group element's
   renamed projection vector. *)
type node = {
  z : Trace.t;
  ids : int array;
  pool : Msg.t list;
  cands : Event.t list array array option;
}

let rec remove_msg m = function
  | [] -> []
  | m' :: rest ->
      if m' == m || Msg.equal m' m then rest else m' :: remove_msg m rest

let child_pool pool e =
  match e.Event.kind with
  | Event.Send m -> m :: pool
  | Event.Receive m -> remove_msg m pool
  | Event.Internal _ -> pool

exception Out_of_budget of trunc_reason

let enumerate ?(mode = `Canonical) ?(budget = no_budget)
    ?(reduce = Reduction.none) spec ~depth =
  if depth < 0 then invalid_arg "Universe.enumerate: negative depth";
  if mode = `Full && not (Reduction.is_none reduce) then
    invalid_arg "Universe.enumerate: reductions require `Canonical mode";
  let group = Reduction.symmetry reduce in
  let por = Reduction.uses_por reduce in
  Hpl_obs.span "enumerate"
    ~args:(fun () ->
      [
        ("depth", string_of_int depth);
        ("mode", match mode with `Full -> "full" | `Canonical -> "canonical");
        ("reduce", Reduction.label reduce);
      ])
  @@ fun () ->
  let started = Sys.time () in
  let check_time () =
    match budget.max_seconds with
    | Some limit when Sys.time () -. started > limit ->
        Hpl_obs.instant "enumerate.budget"
          ~args:[ ("reason", "max_seconds") ];
        raise (Out_of_budget (Max_seconds limit))
    | _ -> ()
  in
  let n = Spec.n spec in
  let trie = trie_create n in
  (* each process's staged rule per trie class id: a class id names a
     local history, and a process's next steps are a function of its
     history alone, so [Spec.stage] runs the rule once per class and
     every node in the class applies the result to its own pool *)
  let staged = Array.make n [||] in
  let stage_at node pi =
    let c = node.ids.(pi) in
    let memo = staged.(pi) in
    match if c < Array.length memo then memo.(c) else None with
    | Some f -> f
    | None ->
        let p = Pid.of_int pi in
        let f = Spec.stage spec p ~history:(Trace.proj node.z p) in
        if c >= Array.length memo then begin
          let grown = Array.make (2 * trie.next_ids.(pi)) None in
          Array.blit memo 0 grown 0 (Array.length memo);
          staged.(pi) <- grown
        end;
        staged.(pi).(c) <- Some f;
        f
  in
  (* under symmetry the canonicity filter is unsound — a stored orbit
     representative can reach a fresh orbit only through a non-canonical
     interleaving — so sym mode keeps every extension and dedups by
     orbit key in the merge instead *)
  let canonical_only = mode = `Canonical && Option.is_none group in
  (* ample-set restriction: only with por, only when the static
     independence relation certifies no depth-truncation — then every
     leaf is blocked and Reduction.restrict preserves all blocked
     classes (see reduction.ml) *)
  let indep_active =
    if por && canonical_only then
      match Reduction.independence reduce with
      | Some ind when Reduction.Independence.applicable ind ~depth -> Some ind
      | _ -> None
    else None
  in
  (* the enabled set is the per-process staged lists in pid order,
     already sorted since [Event.compare] is pid-major *)
  let children node =
    let rec gather pi acc =
      if pi < 0 then acc
      else gather (pi - 1) (stage_at node pi node.pool @ acc)
    in
    let cands = gather (n - 1) [] in
    let restricted =
      match indep_active with
      | Some ind -> Reduction.restrict ind cands
      | None -> cands
    in
    let kept =
      if canonical_only then List.filter (snoc_is_canonical node.z) restricted
      else restricted
    in
    (kept, List.length cands - List.length kept)
  in
  let acc = ref [] and count = ref 0 in
  let push node =
    (match budget.max_states with
    | Some k when !count >= k ->
        Hpl_obs.instant "enumerate.budget" ~args:[ ("reason", "max_states") ];
        raise (Out_of_budget (Max_states k))
    | _ -> ());
    acc := node :: !acc;
    incr count
  in
  (* symmetry bookkeeping: [class_seen] memoizes the orbit decision per
     [D]-class (identity projection vector), [orbit_idx] maps each orbit
     key to its stored representative *)
  let class_seen = Symmetry.KeyTbl.create 256 in
  let orbit_idx = Symmetry.KeyTbl.create 256 in
  let orbit_hits = ref 0 and ample_prunes = ref 0 in
  (* the group elements, identity first; each frontier node carries the
     renamed projection vector of every element's action on it, so a
     child's identity vector (the class key) and its orbit key (the
     minimum over the group) are maintained by consing one renamed
     event — no trace is ever re-traversed or permuted wholesale *)
  let perms =
    match group with
    | Some g -> Array.of_list (Symmetry.elements g)
    | None -> [||]
  in
  let extend_cand k cand e =
    let pe = if k = 0 then e else Symmetry.permute_event perms.(k) e in
    let j = Pid.to_int pe.Event.pid in
    let c = Array.copy cand in
    c.(j) <- pe :: c.(j);
    c
  in
  let root =
    {
      z = Trace.empty;
      ids = Array.make n 0;
      pool = [];
      cands =
        Option.map
          (fun _ -> Array.make (Array.length perms) (Array.make n []))
          group;
    }
  in
  push root;
  (match group with
  | Some _ ->
      let empty_key = Array.make n [] in
      Symmetry.KeyTbl.replace class_seen empty_key ();
      Symmetry.KeyTbl.replace orbit_idx empty_key 0
  | None -> ());
  let rec level frontier d =
    if d >= depth || Array.length frontier = 0 then ()
    else begin
      check_time ();
      let m = Array.length frontier in
      if !Hpl_obs.enabled then
        Hpl_obs.set_gauge "enumerate.frontier_size" (float_of_int m);
      (* per-depth frontier span: each parent's kept extension events,
         in frontier order; its only effect is filling the staged-rule
         memo *)
      let childlists =
        Hpl_obs.span "enumerate.frontier"
          ~args:(fun () ->
            [ ("depth", string_of_int d); ("frontier", string_of_int m) ])
          (fun () -> Array.map children frontier)
      in
      (* merge: frontier order, then per-parent order. Budget checks
         live here, so [max_states] truncation keeps the same states on
         every run (time-based truncation depends on the CPU time taken,
         but is only detected between whole parents, never
         mid-parent). *)
      (* symmetry: decide each child's fate first — skip if its
         [D]-class (identity projection vector) was already seen,
         otherwise extend the parent's remaining renamed vectors and
         take their minimum as the orbit key (timed separately).
         Without a group every child is [`Fresh] and no fate is built. *)
      let fates =
        match group with
        | None -> None
        | Some _ ->
            Hpl_obs.span "reduce.canon"
              ~args:(fun () -> [ ("depth", string_of_int d) ])
              (fun () ->
                Some
                  (Array.mapi
                     (fun i (kids, _) ->
                       let pcands =
                         match frontier.(i).cands with
                         | Some c -> c
                         | None -> assert false
                       in
                       List.map
                         (fun e ->
                           let v = extend_cand 0 pcands.(0) e in
                           if Symmetry.KeyTbl.mem class_seen v then `Dup
                           else begin
                             Symmetry.KeyTbl.replace class_seen v ();
                             let cands =
                               Array.mapi
                                 (fun k pc ->
                                   if k = 0 then v else extend_cand k pc e)
                                 pcands
                             in
                             let best = ref 0 in
                             for k = 1 to Array.length cands - 1 do
                               if
                                 Symmetry.compare_key cands.(k) cands.(!best)
                                 < 0
                               then best := k
                             done;
                             `Key (cands.(!best), cands)
                           end)
                         kids)
                     childlists))
      in
      let next = ref [] in
      Hpl_obs.span "enumerate.merge"
        ~args:(fun () -> [ ("depth", string_of_int d) ])
        (fun () ->
          Array.iteri
            (fun i (kids, pruned) ->
              check_time ();
              ample_prunes := !ample_prunes + pruned;
              let parent = frontier.(i) in
              let merge e fate =
                let admit =
                  match fate with
                  | `Fresh -> true
                  | `Dup ->
                      incr orbit_hits;
                      false
                  | `Key (key, _) ->
                      if Symmetry.KeyTbl.mem orbit_idx key then begin
                        incr orbit_hits;
                        false
                      end
                      else true
                in
                if admit then begin
                  let pi = Pid.to_int e.Event.pid in
                  let ids = Array.copy parent.ids in
                  ids.(pi) <- trie_intern trie pi parent.ids.(pi) e;
                  let node =
                    {
                      z = Trace.snoc parent.z e;
                      ids;
                      pool = child_pool parent.pool e;
                      cands =
                        (match fate with
                        | `Key (_, cands) -> Some cands
                        | `Fresh | `Dup -> None);
                    }
                  in
                  (* push may raise on budget: register the orbit
                     entry only once the node is actually stored *)
                  push node;
                  (match fate with
                  | `Key (key, _) ->
                      Symmetry.KeyTbl.replace orbit_idx key (!count - 1)
                  | `Fresh | `Dup -> ());
                  next := node :: !next
                end
              in
              match fates with
              | None -> List.iter (fun e -> merge e `Fresh) kids
              | Some f -> List.iter2 merge kids f.(i))
            childlists);
      level (Array.of_list (List.rev !next)) (d + 1)
    end
  in
  let status =
    match level [| root |] 0 with
    | () -> Complete
    | exception Out_of_budget reason -> Truncated reason
  in
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "enumerate.states" !count;
    let classes = ref 0 in
    Array.iter (fun next -> classes := !classes + next - 1) trie.next_ids;
    Hpl_obs.count "enumerate.proj_classes" !classes;
    if not (Reduction.is_none reduce) then begin
      Hpl_obs.count "reduce.orbit_hits" !orbit_hits;
      Hpl_obs.count "reduce.ample_prunes" !ample_prunes
    end
  end;
  let comps, class_ids_by_pid =
    (* the interning half: materialize the computations and transpose
       the class-id vectors into the pid-major arrays *)
    Hpl_obs.span "enumerate.intern"
      ~args:(fun () -> [ ("states", string_of_int !count) ])
    @@ fun () ->
    let comps = Array.make !count Trace.empty in
    let class_ids_by_pid = Array.init n (fun _ -> Array.make !count 0) in
    (* [!acc] holds nodes in reverse discovery order *)
    List.iteri
      (fun k node ->
        let i = !count - 1 - k in
        comps.(i) <- node.z;
        for pi = 0 to n - 1 do
          class_ids_by_pid.(pi).(i) <- node.ids.(pi)
        done)
      !acc;
    (comps, class_ids_by_pid)
  in
  {
    spec;
    mode;
    depth;
    status;
    reduce;
    comps;
    idx = trace_index comps;
    class_ids_by_pid;
    trie_parent = trie_parents trie;
    orbit_idx = (match group with None -> None | Some _ -> Some orbit_idx);
    pset_ids_memo = Hashtbl.create 16;
    classes_memo = Hashtbl.create 16;
    succ_memo = None;
  }

let spec u = u.spec
let mode u = u.mode
let depth u = u.depth
let status u = u.status
let reduction u = u.reduce
let symmetry u = Reduction.symmetry u.reduce
let size u = Array.length u.comps
let comp u i = u.comps.(i)

let sample u ~choose =
  let k = Array.length u.comps in
  if k = 0 then invalid_arg "Universe.sample: empty universe";
  let i = choose k in
  if i < 0 || i >= k then
    invalid_arg "Universe.sample: choose returned an out-of-range index";
  u.comps.(i)
let index u z =
  let r = TraceTbl.find_opt (Lazy.force u.idx) z in
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "universe.lookups" 1;
    if r <> None then Hpl_obs.count "universe.lookup_hits" 1
  end;
  r
let canon _u z = canon_trace z

let find u z =
  match (symmetry u, u.mode) with
  | Some g, _ -> (
      (* the stored representative of z's orbit — reps are not
         lexicographically canonical, so the orbit index is the only
         sound lookup *)
      match u.orbit_idx with
      | Some tbl -> Symmetry.KeyTbl.find_opt tbl (Symmetry.orbit_key g z)
      | None -> None)
  | None, `Full -> index u z
  | None, `Canonical -> (
      match index u z with Some i -> Some i | None -> index u (canon_trace z))

let find_exn u z = match find u z with Some i -> i | None -> raise Not_found
let iter f u = Array.iteri f u.comps

let fold f u init =
  let acc = ref init in
  Array.iteri (fun i z -> acc := f i z !acc) u.comps;
  !acc

let class_ids u p = u.class_ids_by_pid.(Pid.to_int p)
let pset_key ps = List.map Pid.to_int (Pset.to_list ps)

(* The class partitions and the extension relation are what every
   knowledge and temporal operator reads. A symmetry-reduced universe
   stores orbit representatives only, so a quantifier over its stored
   computations is not the paper's quantifier over all computations:
   refuse, rather than answer over representatives (DESIGN.md §10). *)
let require_unreduced u fn =
  if Option.is_some (symmetry u) then
    invalid_arg
      (Printf.sprintf
         "Universe.%s: the universe is symmetry-reduced; knowledge and \
          temporal operators need the unreduced universe"
         fn)

let pset_class_ids u ps =
  require_unreduced u "pset_class_ids";
  let key = pset_key ps in
  match Hashtbl.find_opt u.pset_ids_memo key with
  | Some ids -> ids
  | None ->
      let n = size u in
      let ids =
        if Pset.is_empty ps then Array.make n 0
        else begin
          (* combine per-process class ids into fresh ids *)
          let tbl : (int list, int) Hashtbl.t = Hashtbl.create (2 * n) in
          let next = ref 0 in
          Array.init n (fun i ->
              let combined =
                List.map (fun p -> (class_ids u p).(i)) (Pset.to_list ps)
              in
              match Hashtbl.find_opt tbl combined with
              | Some id -> id
              | None ->
                  let id = !next in
                  incr next;
                  Hashtbl.add tbl combined id;
                  id)
        end
      in
      Hashtbl.add u.pset_ids_memo key ids;
      ids

let classes u ps =
  let key = pset_key ps in
  match Hashtbl.find_opt u.classes_memo key with
  | Some cs -> cs
  | None ->
      let ids = pset_class_ids u ps in
      let n = size u in
      let nclasses = Array.fold_left (fun m id -> max m (id + 1)) 0 ids in
      let cs = Array.init nclasses (fun _ -> Bitset.create n) in
      Array.iteri (fun i id -> Bitset.add cs.(id) i) ids;
      Hashtbl.add u.classes_memo key cs;
      cs

let class_members u ps i =
  let ids = pset_class_ids u ps in
  (classes u ps).(ids.(i))

let prefixes_of u i =
  let z = comp u i in
  let rec go prefix events acc =
    let acc =
      match find u prefix with Some j -> j :: acc | None -> acc
    in
    match events with
    | [] -> acc
    | e :: rest -> go (Trace.snoc prefix e) rest acc
  in
  List.rev (go Trace.empty (Trace.to_list z) [])

(* --- the extension relation ------------------------------------------

   In [`Canonical] mode a stored computation is its vector of
   per-process class ids (one computation per [D]-class, and [x [D] y]
   iff every projection agrees), and [i → j] is an edge iff [j]'s
   vector with one slot stepped back to its trie parent is [i]'s
   (DESIGN.md §6). So the edges come from probing an open-addressing
   index over [class_ids_by_pid]: a probe is the triple (j, p, c), "the
   vector of j with slot p set to c", and is never materialized. A
   vector's hash is [Σ ids.(p) * mult.(p)], so a probe's hash is one
   O(1) adjustment of j's. *)

let trie_successors u =
  let ids = u.class_ids_by_pid in
  let n = Array.length ids and size = Array.length u.comps in
  let mix x =
    let x = (x lxor (x lsr 31)) * 0x3F58476D1CE4E5B9 in
    let x = (x lxor (x lsr 27)) * 0x14D049BB133111EB in
    x lxor (x lsr 31)
  in
  let mult = Array.init n (fun p -> mix (p + 1) lor 1) in
  let h = Array.make size 0 in
  for p = 0 to n - 1 do
    let col = ids.(p) and m = mult.(p) in
    for i = 0 to size - 1 do
      h.(i) <- h.(i) + (col.(i) * m)
    done
  done;
  let cap = ref 16 in
  while !cap < 2 * size do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let slot hv = mix hv land mask in
  let table = Array.make !cap (-1) in
  for i = 0 to size - 1 do
    let s = ref (slot h.(i)) in
    while table.(!s) >= 0 do
      s := (!s + 1) land mask
    done;
    table.(!s) <- i
  done;
  (* does computation i have j's vector with slot p set to c? *)
  let stepped_is i j p c =
    let ok = ref true and q = ref 0 in
    while !ok && !q < n do
      let col = ids.(!q) in
      ok := col.(i) = (if !q = p then c else col.(j));
      incr q
    done;
    !ok
  in
  (* the stored computation with that vector, or -1 *)
  let find_stepped j p c =
    let hv = h.(j) + ((c - ids.(p).(j)) * mult.(p)) in
    let s = ref (slot hv) and found = ref (-2) in
    while !found = -2 do
      let i = table.(!s) in
      if i < 0 then found := -1
      else if h.(i) = hv && stepped_is i j p c then found := i
      else s := (!s + 1) land mask
    done;
    !found
  in
  (* edges come out grouped by ascending target, so every successor
     array is sorted; two passes (count, fill) keep the only allocation
     the result itself *)
  let iter_edges f =
    for j = 1 to size - 1 do
      for p = 0 to n - 1 do
        let c = ids.(p).(j) in
        if c > 0 then
          let i = find_stepped j p u.trie_parent.(p).(c) in
          if i >= 0 then f i j
      done
    done
  in
  let deg = Array.make size 0 in
  iter_edges (fun i _ -> deg.(i) <- deg.(i) + 1);
  let succ = Array.map (fun d -> Array.make d 0) deg in
  Array.fill deg 0 size 0;
  iter_edges (fun i j ->
      succ.(i).(deg.(i)) <- j;
      deg.(i) <- deg.(i) + 1);
  succ

(* the definition itself: the stored classes of every one-event
   extension — for [`Full] mode, whose stored vectors repeat *)
let lookup_successors u =
  Array.map
    (fun z ->
      List.filter_map (find u) (Spec.extensions u.spec z)
      |> List.sort_uniq Int.compare |> Array.of_list)
    u.comps

let successors u =
  require_unreduced u "successors";
  match u.succ_memo with
  | Some s -> s
  | None ->
      let trie = u.mode = `Canonical in
      let s =
        Hpl_obs.span "universe.successors"
          ~args:(fun () ->
            [
              ("size", string_of_int (size u));
              ("via", if trie then "trie" else "lookup");
            ])
          (fun () -> if trie then trie_successors u else lookup_successors u)
      in
      u.succ_memo <- Some s;
      s

(* --- snapshot body ---------------------------------------------------

   A universe is a prefix-closed BFS in discovery order: [comps.(0)] is
   the empty trace and every other computation extends an earlier one by
   a single event. The body therefore stores, per computation, the index
   of its parent prefix plus one interned event — the same incremental
   representation the enumerator builds — rather than whole traces.
   Payload strings and internal tags go through a first-occurrence
   string table. Class ids are not stored at all: replaying the events
   through the same hash-consed trie in the same discovery order
   reproduces them bit-identically.

   The encoding is body-only. Framing (magic, format version, cache key,
   checksum) belongs to the snapshot container in [Hpl_serve.Snapshot];
   this layer only promises that any byte string either round-trips to a
   structurally valid universe of the given spec or yields [Error]. *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_i32 b v =
  if v < 0 || v > 0x3fffffff then
    invalid_arg "Universe.serialize: integer out of range";
  add_u8 b v;
  add_u8 b (v lsr 8);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 24)

let add_i64 b (v : int64) =
  for k = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * k)))
  done

let add_str b s =
  add_i32 b (String.length s);
  Buffer.add_string b s

let serialize u =
  if Option.is_some (Reduction.symmetry u.reduce) then
    Error
      "symmetry-reduced universes have no snapshot form (orbit tables \
       are not serialized); cache them in memory only"
  else begin
    let b = Buffer.create 4096 in
    add_u8 b (match u.mode with `Full -> 0 | `Canonical -> 1);
    add_i32 b u.depth;
    (match u.status with
    | Complete -> add_u8 b 0
    | Truncated (Max_states k) ->
        add_u8 b 1;
        add_i32 b k
    | Truncated (Max_seconds s) ->
        add_u8 b 2;
        add_i64 b (Int64.bits_of_float s));
    add_u8 b (if Reduction.uses_por u.reduce then 1 else 0);
    let n = Spec.n u.spec in
    add_i32 b n;
    let count = Array.length u.comps in
    (* events into a side buffer so the string table can precede them *)
    let strings = Hashtbl.create 64 in
    let str_order = ref [] and nstr = ref 0 in
    let str_id s =
      match Hashtbl.find_opt strings s with
      | Some i -> i
      | None ->
          let i = !nstr in
          incr nstr;
          Hashtbl.add strings s i;
          str_order := s :: !str_order;
          i
    in
    let eb = Buffer.create 4096 in
    for i = 1 to count - 1 do
      let events = Trace.to_list u.comps.(i) in
      let rec split acc = function
        | [] -> invalid_arg "Universe.serialize: empty non-root computation"
        | [ e ] -> (List.rev acc, e)
        | e :: rest -> split (e :: acc) rest
      in
      let init, e = split [] events in
      let parent =
        match TraceTbl.find_opt (Lazy.force u.idx) (Trace.of_list init) with
        | Some j when j < i -> j
        | _ -> invalid_arg "Universe.serialize: universe is not prefix-closed"
      in
      add_i32 eb parent;
      add_i32 eb (Pid.to_int e.Event.pid);
      add_i32 eb e.Event.lseq;
      match e.Event.kind with
      | Event.Internal tag ->
          add_u8 eb 0;
          add_i32 eb (str_id tag)
      | Event.Send m ->
          add_u8 eb 1;
          add_i32 eb (Pid.to_int m.Msg.dst);
          add_i32 eb m.Msg.seq;
          add_i32 eb (str_id m.Msg.payload)
      | Event.Receive m ->
          add_u8 eb 2;
          add_i32 eb (Pid.to_int m.Msg.src);
          add_i32 eb m.Msg.seq;
          add_i32 eb (str_id m.Msg.payload)
    done;
    add_i32 b !nstr;
    List.iter (add_str b) (List.rev !str_order);
    add_i32 b count;
    Buffer.add_buffer b eb;
    Ok (Buffer.contents b)
  end

exception Corrupt of string

let deserialize spec blob =
  let len = String.length blob in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let u8 () =
    if !pos >= len then fail "truncated body";
    let v = Char.code blob.[!pos] in
    incr pos;
    v
  in
  let i32 () =
    let a = u8 () in
    let b = u8 () in
    let c = u8 () in
    let d = u8 () in
    let v = a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24) in
    if v < 0 || v > 0x3fffffff then fail "integer out of range";
    v
  in
  let i64 () =
    let v = ref 0L in
    for k = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 ())) (8 * k))
    done;
    !v
  in
  let str () =
    let k = i32 () in
    if !pos + k > len then fail "truncated string";
    let s = String.sub blob !pos k in
    pos := !pos + k;
    s
  in
  try
    let mode =
      match u8 () with 0 -> `Full | 1 -> `Canonical | m -> fail "bad mode %d" m
    in
    let depth = i32 () in
    let status =
      match u8 () with
      | 0 -> Complete
      | 1 -> Truncated (Max_states (i32 ()))
      | 2 ->
          let s = Int64.float_of_bits (i64 ()) in
          if not (s > 0.0 && Float.is_finite s) then fail "bad time budget";
          Truncated (Max_seconds s)
      | t -> fail "bad status tag %d" t
    in
    let reduce =
      match u8 () with 0 -> Reduction.none | 1 -> Reduction.por | t -> fail "bad reduce tag %d" t
    in
    if mode = `Full && not (Reduction.is_none reduce) then
      fail "full mode cannot carry a reduction";
    let n = i32 () in
    if n <> Spec.n spec then
      fail "process count mismatch (snapshot has %d, spec has %d)" n
        (Spec.n spec);
    let nstr = i32 () in
    if nstr > len then fail "oversized string table";
    let strings = Array.init nstr (fun _ -> str ()) in
    let getstr i = if i >= nstr then fail "dangling string reference" else strings.(i) in
    let count = i32 () in
    if count < 1 || count > len then fail "implausible computation count";
    let comps = Array.make count Trace.empty in
    let class_ids_by_pid = Array.init n (fun _ -> Array.make count 0) in
    let trie = trie_create n in
    for i = 1 to count - 1 do
      let parent = i32 () in
      if parent >= i then fail "parent index %d not before child %d" parent i;
      let pi = i32 () in
      if pi >= n then fail "pid %d out of range" pi;
      let pid = Pid.of_int pi in
      let lseq = i32 () in
      let pz = comps.(parent) in
      (* lseq is derivable from the parent: reject inconsistent bodies
         rather than building traces that violate Trace.well_formed *)
      if lseq <> Trace.local_length pz pid then
        fail "inconsistent local sequence number at computation %d" i;
      let e =
        match u8 () with
        | 0 -> Event.internal ~pid ~lseq (getstr (i32 ()))
        | 1 ->
            let dst = i32 () in
            if dst >= n then fail "destination %d out of range" dst;
            let seq = i32 () in
            if seq <> Trace.send_count pz pid then
              fail "inconsistent send sequence number at computation %d" i;
            let payload = getstr (i32 ()) in
            Event.send ~pid ~lseq
              (Msg.make ~src:pid ~dst:(Pid.of_int dst) ~seq ~payload)
        | 2 ->
            let src = i32 () in
            if src >= n then fail "source %d out of range" src;
            let seq = i32 () in
            let payload = getstr (i32 ()) in
            let m = Msg.make ~src:(Pid.of_int src) ~dst:pid ~seq ~payload in
            if not (List.exists (Msg.equal m) (Trace.in_flight pz)) then
              fail "receive of a message not in flight at computation %d" i;
            Event.receive ~pid ~lseq m
        | t -> fail "bad event kind %d" t
      in
      comps.(i) <- Trace.snoc pz e;
      for q = 0 to n - 1 do
        class_ids_by_pid.(q).(i) <- class_ids_by_pid.(q).(parent)
      done;
      class_ids_by_pid.(pi).(i) <-
        trie_intern trie pi class_ids_by_pid.(pi).(parent) e
    done;
    if !pos <> len then fail "%d trailing bytes" (len - !pos);
    (* spot-check against the spec the caller claims this snapshot is
       for: the deepest stored computation must be one of its
       computations (catches key collisions and spec drift) *)
    if count > 1 && not (Spec.valid spec comps.(count - 1)) then
      fail "snapshot is not a universe of the given spec";
    Ok
      {
        spec;
        mode;
        depth;
        status;
        reduce;
        comps;
        idx = trace_index comps;
        class_ids_by_pid;
        trie_parent = trie_parents trie;
        orbit_idx = None;
        pset_ids_memo = Hashtbl.create 16;
        classes_memo = Hashtbl.create 16;
        succ_memo = None;
      }
  with Corrupt m -> Error m

let pp_stats fmt u =
  Format.fprintf fmt "universe: %d computations, depth %d, mode %s%s, %d processes%s"
    (size u) u.depth
    (match u.mode with `Full -> "full" | `Canonical -> "canonical")
    (if Reduction.is_none u.reduce then ""
     else Printf.sprintf ", reduce %s" (Reduction.label u.reduce))
    (Spec.n u.spec)
    (match u.status with
    | Complete -> ""
    | Truncated r -> Printf.sprintf " [TRUNCATED: %s]" (reason_to_string r))
