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

(* Per process, the step table and, per class id, its immediate-prefix
   class (-1 for the empty projection) and its last event, in arrays
   that grow geometrically. Class 0, the empty projection, has a
   placeholder event whose only use is its [lseq], −1, one below a
   first event's. *)
type trie = {
  steps : int StepTbl.t array;
  next_ids : int array;
  parents : int array array;
  events : Event.t array array;
}

let no_event = Event.internal ~pid:(Pid.of_int 0) ~lseq:(-1) ""

let trie_create n =
  {
    steps = Array.init n (fun _ -> StepTbl.create 64);
    next_ids = Array.make n 1;
    parents = Array.make n [| -1 |];
    events = Array.make n [| no_event |];
  }

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

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
      if id = Array.length t.parents.(pi) then begin
        t.parents.(pi) <- grow t.parents.(pi) (2 * id) (-1);
        t.events.(pi) <- grow t.events.(pi) (2 * id) no_event
      end;
      t.parents.(pi).(id) <- parent_id;
      t.events.(pi).(id) <- e;
      id

(* a class's local history, oldest first, read up its parent classes *)
let class_history parents events c =
  let rec up c acc = if c = 0 then acc else up parents.(c) (events.(c) :: acc) in
  up c []

(* A universe is stored as its run tree (DESIGN.md §6): computation [i]
   extends [parent.(i)] by one event, on process [pid.(i)], which reaches
   that process's class id [cid.(i)]; the root has parent and pid -1 and
   class 0 everywhere. That event is the class's own, kept once per
   class in the trie. Parents precede children, so a process's class-id
   column, and the trace column, are one pass in index order, built on
   first use. *)
type t = {
  spec : Spec.t;
  mode : mode;
  depth : int;
  status : status;
  sym : bool; (* symmetry-reduced: one stored computation per orbit *)
  parent : int array; (* comp index -> parent comp index *)
  pid : int array; (* comp index -> pid index of its last event *)
  cid : int array; (* comp index -> class id [pid.(i)] reaches *)
  trie_parent : int array array; (* pid index -> class id -> prefix class id *)
  trie_event : Event.t array array; (* pid index -> class id -> last event *)
  mutable comps : Trace.t array; (* the trace column; [||] until built *)
  mutable idx : int TraceTbl.t option; (* trace -> index, on first lookup *)
  columns : int array option array; (* pid index -> class-id column *)
  pset_ids_memo : (int list, int array) Hashtbl.t;
  classes_memo : (int list, Bitset.t array) Hashtbl.t;
  mutable succ_memo : int array array option;
}

let make ~spec ~mode ~depth ~status ~sym ~parent ~pid ~cid ~trie_parent
    ~trie_event =
  {
    spec;
    mode;
    depth;
    status;
    sym;
    parent;
    pid;
    cid;
    trie_parent;
    trie_event;
    comps = [||];
    idx = None;
    columns = Array.make (Spec.n spec) None;
    pset_ids_memo = Hashtbl.create 16;
    classes_memo = Hashtbl.create 16;
    succ_memo = None;
  }

(* computation [i]'s trace, read up the run tree *)
let trace_of u i =
  let rec up i acc =
    if i = 0 then acc
    else up u.parent.(i) (u.trie_event.(u.pid.(i)).(u.cid.(i)) :: acc)
  in
  Trace.of_list (up i [])

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

(* --- enumeration --------------------------------------------------- *)

(* A BFS node of the level being expanded: its index, the vector of
   per-process class ids of its projections, and the messages in
   flight, newest first. A child differs from its parent in one class-id
   slot (the extending event's process) and in one message at most (a
   send adds it, a receive removes it), so both are maintained per
   child. Under symmetry a node also carries every group element's
   renamed projection vector. Only the frontier has nodes, and no node
   has a trace: its history is read off the run tree and the trie. *)
type node = {
  i : int;
  ids : int array;
  pool : Msg.t list;
  cands : Event.t list array array option;
}

(* The run tree as the BFS grows it, in index order: the arrays double
   when full and are trimmed once at the end. *)
type tree = {
  mutable count : int;
  mutable parents : int array;
  mutable pids : int array;
  mutable cids : int array;
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

let enumerate ?(mode = `Canonical) ?(budget = no_budget) ?symmetry:group spec
    ~depth =
  if depth < 0 then invalid_arg "Universe.enumerate: negative depth";
  if mode = `Full && Option.is_some group then
    invalid_arg
      "Universe.enumerate: symmetry reduction requires `Canonical mode";
  Hpl_obs.span "enumerate"
    ~args:(fun () ->
      [
        ("depth", string_of_int depth);
        ("mode", match mode with `Full -> "full" | `Canonical -> "canonical");
        ("reduce", if Option.is_some group then "sym" else "none");
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
        let history = class_history trie.parents.(pi) trie.events.(pi) c in
        let f = Spec.stage spec (Pid.of_int pi) ~history in
        if c >= Array.length memo then
          staged.(pi) <- grow memo (2 * trie.next_ids.(pi)) None;
        staged.(pi).(c) <- Some f;
        f
  in
  let tree =
    {
      count = 0;
      parents = Array.make 64 0;
      pids = Array.make 64 0;
      cids = Array.make 64 0;
    }
  in
  (* [(z;e)] is canonical, for [z] canonical and [e] enabled after it,
     iff no event placed after [e]'s last direct predecessor exceeds
     [e]: walk [z]'s events newest first, up the run tree from its
     index, and stop at that predecessor *)
  let snoc_is_canonical i e =
    let rec after_last_pred a =
      a = 0
      ||
      let c = trie.events.(tree.pids.(a)).(tree.cids.(a)) in
      is_direct_pred ~of_:e c
      || (Event.compare c e < 0 && after_last_pred tree.parents.(a))
    in
    after_last_pred i
  in
  (* under symmetry the canonicity filter is unsound — a stored orbit
     representative can reach a fresh orbit only through a non-canonical
     interleaving — so sym mode keeps every extension and dedups by
     orbit key instead *)
  let canonical_only = mode = `Canonical && Option.is_none group in
  (* the enabled set is the per-process staged lists in pid order,
     already sorted since [Event.compare] is pid-major *)
  let children node =
    let rec gather pi acc =
      if pi < 0 then acc
      else gather (pi - 1) (stage_at node pi node.pool @ acc)
    in
    let cands = gather (n - 1) [] in
    if canonical_only then List.filter (snoc_is_canonical node.i) cands
    else cands
  in
  let push ~parent ~pid ~cid =
    let k = tree.count in
    (match budget.max_states with
    | Some limit when k >= limit ->
        Hpl_obs.instant "enumerate.budget" ~args:[ ("reason", "max_states") ];
        raise (Out_of_budget (Max_states limit))
    | _ -> ());
    if k = Array.length tree.parents then begin
      let cap =
        match budget.max_states with Some limit -> min (2 * k) limit | None -> 2 * k
      in
      tree.parents <- grow tree.parents cap 0;
      tree.pids <- grow tree.pids cap 0;
      tree.cids <- grow tree.cids cap 0
    end;
    tree.parents.(k) <- parent;
    tree.pids.(k) <- pid;
    tree.cids.(k) <- cid;
    tree.count <- k + 1
  in
  (* symmetry bookkeeping: [class_seen] memoizes the orbit decision per
     [D]-class (identity projection vector), [orbits] holds the orbit key
     of every stored representative *)
  let class_seen = Symmetry.KeyTbl.create 256 in
  let orbits = Symmetry.KeyTbl.create 256 in
  let orbit_hits = ref 0 in
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
  (* a child's symmetry fate: a [D]-class already seen is a duplicate;
     otherwise extend the parent's renamed vectors and take their
     minimum as the orbit key. Without a group every child is fresh. *)
  let fate parent e =
    match parent.cands with
    | None -> `Fresh
    | Some pcands ->
        let v = extend_cand 0 pcands.(0) e in
        if Symmetry.KeyTbl.mem class_seen v then `Dup
        else begin
          Symmetry.KeyTbl.replace class_seen v ();
          let cands =
            Array.mapi (fun k pc -> if k = 0 then v else extend_cand k pc e) pcands
          in
          let best = ref 0 in
          for k = 1 to Array.length cands - 1 do
            if Symmetry.compare_key cands.(k) cands.(!best) < 0 then best := k
          done;
          `Key (cands.(!best), cands)
        end
  in
  let root =
    {
      i = 0;
      ids = Array.make n 0;
      pool = [];
      cands =
        Option.map
          (fun _ -> Array.make (Array.length perms) (Array.make n []))
          group;
    }
  in
  push ~parent:(-1) ~pid:(-1) ~cid:0;
  (match group with
  | Some _ ->
      let empty_key = Array.make n [] in
      Symmetry.KeyTbl.replace class_seen empty_key ();
      Symmetry.KeyTbl.replace orbits empty_key ()
  | None -> ());
  (* One pass per level: frontier order, then per-parent order, each
     parent's children decided and stored as they are computed. Budget
     checks live here, so [max_states] truncation keeps the same states
     on every run (time-based truncation depends on the CPU time taken,
     but is only detected between whole parents, never mid-parent). *)
  let rec level frontier d =
    if d >= depth || Array.length frontier = 0 then ()
    else begin
      let m = Array.length frontier in
      if !Hpl_obs.enabled then
        Hpl_obs.set_gauge "enumerate.frontier_size" (float_of_int m);
      let next = ref [] in
      (* children on the last level are never expanded: they get no node *)
      let expand = d + 1 < depth in
      let store parent e fate =
        let admit =
          match fate with
          | `Fresh -> true
          | `Dup -> false
          | `Key (key, _) -> not (Symmetry.KeyTbl.mem orbits key)
        in
        if not admit then incr orbit_hits
        else begin
          let pi = Pid.to_int e.Event.pid in
          let c = trie_intern trie pi parent.ids.(pi) e in
          (* push may raise on budget: register the orbit entry only
             once the computation is actually stored *)
          push ~parent:parent.i ~pid:pi ~cid:c;
          let i = tree.count - 1 in
          (match fate with
          | `Key (key, _) -> Symmetry.KeyTbl.replace orbits key ()
          | `Fresh | `Dup -> ());
          if expand then begin
            let ids = Array.copy parent.ids in
            ids.(pi) <- c;
            let cands =
              match fate with
              | `Key (_, cands) -> Some cands
              | `Fresh | `Dup -> None
            in
            next := { i; ids; pool = child_pool parent.pool e; cands } :: !next
          end
        end
      in
      Hpl_obs.span "enumerate.frontier"
        ~args:(fun () ->
          [ ("depth", string_of_int d); ("frontier", string_of_int m) ])
        (fun () ->
          Array.iter
            (fun parent ->
              check_time ();
              List.iter
                (fun e -> store parent e (fate parent e))
                (children parent))
            frontier);
      level (Array.of_list (List.rev !next)) (d + 1)
    end
  in
  let status =
    match level [| root |] 0 with
    | () -> Complete
    | exception Out_of_budget reason -> Truncated reason
  in
  let count = tree.count in
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "enumerate.states" count;
    let classes = ref 0 in
    Array.iter (fun next -> classes := !classes + next - 1) trie.next_ids;
    Hpl_obs.count "enumerate.proj_classes" !classes;
    if Option.is_some group then Hpl_obs.count "reduce.orbit_hits" !orbit_hits
  end;
  (* the interning half: trim the run tree and the trie to their sizes;
     the step tables, with their boxed keys, are dropped *)
  Hpl_obs.span "enumerate.intern"
    ~args:(fun () -> [ ("states", string_of_int count) ])
  @@ fun () ->
  let trim k a = if Array.length a = k then a else Array.sub a 0 k in
  make ~spec ~mode ~depth ~status ~sym:(Option.is_some group)
    ~parent:(trim count tree.parents) ~pid:(trim count tree.pids)
    ~cid:(trim count tree.cids)
    ~trie_parent:(Array.mapi (fun pi a -> trim trie.next_ids.(pi) a) trie.parents)
    ~trie_event:(Array.mapi (fun pi a -> trim trie.next_ids.(pi) a) trie.events)

let spec u = u.spec
let mode u = u.mode
let depth u = u.depth
let status u = u.status
let size u = Array.length u.parent

(* The trace column, one [Trace.snoc] per computation in index order,
   each class's event shared by every computation that reaches it. It
   is built on the first read of a trace and kept, so [comp] is a field
   read from then on. *)
let build_traces u =
  let comps =
    Hpl_obs.span "universe.traces"
      ~args:(fun () -> [ ("size", string_of_int (size u)) ])
    @@ fun () ->
    let comps = Array.make (size u) Trace.empty in
    for i = 1 to size u - 1 do
      comps.(i) <-
        Trace.snoc comps.(u.parent.(i)) u.trie_event.(u.pid.(i)).(u.cid.(i))
    done;
    comps
  in
  u.comps <- comps;
  comps

let traces u = if Array.length u.comps > 0 then u.comps else build_traces u

let comp u i =
  let comps = u.comps in
  if Array.length comps > 0 then comps.(i) else (build_traces u).(i)

(* The trace → index table behind [index] and [find], built on first
   lookup: enumeration, [serialize], [Prop.extent] and the counting
   answers never look a trace up. *)
let trace_index u =
  match u.idx with
  | Some idx -> idx
  | None ->
      let comps = traces u in
      let idx =
        Hpl_obs.span "universe.index"
          ~args:(fun () -> [ ("size", string_of_int (Array.length comps)) ])
        @@ fun () ->
        let idx = TraceTbl.create (2 * Array.length comps) in
        Array.iteri (fun i z -> TraceTbl.replace idx z i) comps;
        idx
      in
      u.idx <- Some idx;
      idx

let index u z =
  let r = TraceTbl.find_opt (trace_index u) z in
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "universe.lookups" 1;
    if r <> None then Hpl_obs.count "universe.lookup_hits" 1
  end;
  r
let canon _u z = canon_trace z

(* A symmetry-reduced universe stores orbit representatives only, so a
   quantifier over its stored computations is not the paper's
   quantifier over all computations, and a lookup would have to go
   through an orbit table it does not keep: the class partitions, the
   extension relation and [find] refuse it (DESIGN.md §10). *)
let require_unreduced u fn =
  if u.sym then
    invalid_arg
      (Printf.sprintf
         "Universe.%s: the universe is symmetry-reduced; knowledge and \
          temporal operators need the unreduced universe"
         fn)

let find u z =
  require_unreduced u "find";
  match u.mode with
  | `Full -> index u z
  | `Canonical -> (
      match index u z with Some i -> Some i | None -> index u (canon_trace z))

let find_exn u z = match find u z with Some i -> i | None -> raise Not_found
let iter f u = Array.iteri f (traces u)

let fold f u init =
  let acc = ref init in
  Array.iteri (fun i z -> acc := f i z !acc) (traces u);
  !acc

(* a column is one pass in index order, since parents precede children:
   computation [i] is in its parent's class unless its event is on [p] *)
let class_ids u p =
  let p = Pid.to_int p in
  match u.columns.(p) with
  | Some col -> col
  | None ->
      let col = Array.make (size u) 0 in
      for i = 1 to size u - 1 do
        col.(i) <- (if u.pid.(i) = p then u.cid.(i) else col.(u.parent.(i)))
      done;
      u.columns.(p) <- Some col;
      col

let pset_key ps = List.map Pid.to_int (Pset.to_list ps)

let combined_class_ids u ps key =
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

(* a one-process partition is the enumeration's own class-id column:
   dense, and numbered in first-occurrence order, exactly as combining
   it would renumber it *)
let pset_class_ids u ps =
  require_unreduced u "pset_class_ids";
  match pset_key ps with
  | [ p ] -> class_ids u (Pid.of_int p)
  | key -> combined_class_ids u ps key

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

(* the parent chain: a stored computation extends its parent by one
   event, so its stored prefixes are its ancestors *)
let prefixes_of u i =
  let rec up i acc = if i < 0 then acc else up u.parent.(i) (i :: acc) in
  up i []

(* --- the extension relation ------------------------------------------

   In [`Canonical] mode a stored computation is its vector of
   per-process class ids (one computation per [D]-class, and [x [D] y]
   iff every projection agrees), and [i → j] is an edge iff [j]'s
   vector with one slot stepped back to its trie parent is [i]'s
   (DESIGN.md §6). So the edges come from probing an open-addressing
   index over the class-id columns: a probe is the triple (j, p, c), "the
   vector of j with slot p set to c", and is never materialized. A
   vector's hash is [Σ ids.(p) * mult.(p)], so a probe's hash is one
   O(1) adjustment of j's. *)

let trie_successors u =
  let ids = Array.init (Spec.n u.spec) (fun p -> class_ids u (Pid.of_int p)) in
  let n = Array.length ids and size = size u in
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
    (traces u)

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

   The body is the universe's stored form (DESIGN.md §14). After a
   header and a first-occurrence string table of payloads and internal
   tags, each process's trie is written once: its class count K_p, then
   per class c = 1 … K_p − 1 its parent class and its one event. Then
   one (parent, pid, class id) triple per computation after the root.
   The [reduce] byte is always 0: a symmetry-reduced universe has no
   body, and [deserialize] refuses any other value.

     body   := mode:u8 depth:i32 status reduce:u8 n:i32
               nstr:i32 (len:i32 bytes)^nstr
               (K_p:i32 class^(K_p−1))^n
               count:i32 (parent:i32 pid:i32 cid:i32)^(count−1)
     class  := parent:i32 kind:u8 (0 tag:i32
                                 | 1 dst:i32 payload:i32
                                 | 2 src:i32 payload:i32 seq:i32)

   An event's [lseq] and a send's [seq] are functions of the parent
   class's history, so they are not stored. [serialize] reads each
   class's parent and event off the trie, and parents and class ids off
   the run tree: it never builds a trace.

   The encoding is body-only. Framing (magic, format version, cache key,
   checksum) belongs to the snapshot container in [Hpl_serve.Snapshot];
   this layer only promises that any byte string either round-trips to a
   structurally valid universe of the given spec or yields [Error]. *)

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)

let add_i32 b v =
  if v < 0 || v > 0x3fffffff then
    invalid_arg "Universe.serialize: integer out of range";
  Buffer.add_int32_le b (Int32.of_int v)

let add_str b s =
  add_i32 b (String.length s);
  Buffer.add_string b s

let serialize u =
  if u.sym then
    Error
      "symmetry-reduced universes have no snapshot form; cache them in \
       memory only"
  else begin
    let count = size u in
    let b = Buffer.create (4096 + (12 * count)) in
    add_u8 b (match u.mode with `Full -> 0 | `Canonical -> 1);
    add_i32 b u.depth;
    (match u.status with
    | Complete -> add_u8 b 0
    | Truncated (Max_states k) ->
        add_u8 b 1;
        add_i32 b k
    | Truncated (Max_seconds s) ->
        add_u8 b 2;
        Buffer.add_int64_le b (Int64.bits_of_float s));
    add_u8 b 0 (* reduce *);
    let n = Spec.n u.spec in
    add_i32 b n;
    (* class ids are first reached in increasing index order, so K_p is
       one past p's largest stored class id; a [max_states] cut may have
       interned one more class that no stored computation reaches, and
       it is not written *)
    let classes = Array.make n 1 in
    for i = 1 to count - 1 do
      let p = u.pid.(i) in
      if u.cid.(i) >= classes.(p) then classes.(p) <- u.cid.(i) + 1
    done;
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
    (* the tries into a side buffer so the string table can precede them *)
    let tb = Buffer.create 4096 in
    Array.iteri
      (fun p k ->
        add_i32 tb k;
        for c = 1 to k - 1 do
          add_i32 tb u.trie_parent.(p).(c);
          match u.trie_event.(p).(c).Event.kind with
          | Event.Internal tag ->
              add_u8 tb 0;
              add_i32 tb (str_id tag)
          | Event.Send m ->
              add_u8 tb 1;
              add_i32 tb (Pid.to_int m.Msg.dst);
              add_i32 tb (str_id m.Msg.payload)
          | Event.Receive m ->
              add_u8 tb 2;
              add_i32 tb (Pid.to_int m.Msg.src);
              add_i32 tb (str_id m.Msg.payload);
              add_i32 tb m.Msg.seq
        done)
      classes;
    add_i32 b !nstr;
    List.iter (add_str b) (List.rev !str_order);
    Buffer.add_buffer b tb;
    add_i32 b count;
    for i = 1 to count - 1 do
      add_i32 b u.parent.(i);
      add_i32 b u.pid.(i);
      add_i32 b u.cid.(i)
    done;
    Ok (Buffer.contents b)
  end

exception Corrupt of string

(* Loading builds one [Event.t] per class, checked once per class: its
   parent class comes earlier, its peer is in range, no other class is
   the same (parent, event) step, and the process's rule allows the
   event after the parent class's history ([Spec.stage], run once per
   parent class, as enumeration runs it). Per computation the checks
   (parent earlier, class in range, no deeper than the depth, stored in
   enumeration order) are O(1) plus two walks up the run tree: to the
   nearest ancestor on the event's process ([on]), and, for a receive,
   to the message's send ([in_flight]).

   Class ids come back bit-identical to enumeration's. Enumeration
   numbers a process's classes by interning (parent class, event) in a
   hash-consed trie as computations are stored, so its ids are dense
   and first reached in increasing index order. The load checks that:
   - no two classes are the same step, so the stored trie is
     hash-consed;
   - each computation's class has for parent its process's class at
     the parent computation, so by induction a computation's class
     history is its projection;
   - ids are first reached in increasing order, and every class is
     reached.
   Re-interning the loaded events in index order would therefore meet
   each class's step for the first time exactly where its id is first
   reached, and give it that id: the stored ids are the ones replaying
   the trie would compute, and the [class_ids] columns built from them
   are enumeration's.

   The checks also make every loaded computation a computation of the
   spec: each event is allowed by its process's rule after the
   process's history, a receive's message is in flight, and [lseq] and
   send [seq] are derived. [Spec.valid] on the deepest computation
   stays as a spot check. *)
let deserialize spec blob =
  let len = String.length blob in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let u8 () =
    if !pos >= len then fail "truncated body";
    let v = Char.code (String.unsafe_get blob !pos) in
    incr pos;
    v
  in
  let i32 () =
    if !pos + 4 > len then fail "truncated body";
    let v = Int32.to_int (String.get_int32_le blob !pos) in
    pos := !pos + 4;
    if v < 0 || v > 0x3fffffff then fail "integer out of range";
    v
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
          if !pos + 8 > len then fail "truncated body";
          let s = Int64.float_of_bits (String.get_int64_le blob !pos) in
          pos := !pos + 8;
          if not (s > 0.0 && Float.is_finite s) then fail "bad time budget";
          Truncated (Max_seconds s)
      | t -> fail "bad status tag %d" t
    in
    (match u8 () with 0 -> () | t -> fail "bad reduce tag %d" t);
    let n = i32 () in
    if n <> Spec.n spec then
      fail "process count mismatch (snapshot has %d, spec has %d)" n
        (Spec.n spec);
    (* a count is plausible when the bytes left can hold that many of
       its smallest records, so no hostile count allocates more than the
       body's size *)
    let plausible k ~bytes what =
      if k > (len - !pos) / bytes then fail "implausible %s %d" what k
    in
    let nstr = i32 () in
    plausible nstr ~bytes:4 "string count";
    let strings = Array.init nstr (fun _ -> str ()) in
    let getstr i = if i >= nstr then fail "dangling string reference" else strings.(i) in
    (* each process's trie; class 0, the empty history, has a
       placeholder event *)
    let trie_parent = Array.make n [||] and event = Array.make n [||] in
    for pi = 0 to n - 1 do
      let p = Pid.of_int pi in
      let k = i32 () in
      if k < 1 then fail "p%d has no empty class" pi;
      plausible (k - 1) ~bytes:9 "class count";
      let parents = Array.make k (-1) in
      (* a class's event has its parent's [lseq] + 1 *)
      let events = Array.make k no_event in
      (* per class, its send count: a child send's [seq] *)
      let sends = Array.make k 0 in
      let staged = Array.make k None in
      let stage c =
        match staged.(c) with
        | Some f -> f
        | None ->
            let history = class_history parents events c in
            let f = Spec.stage spec p ~history in
            staged.(c) <- Some f;
            f
      in
      let steps = StepTbl.create (2 * k) in
      for c = 1 to k - 1 do
        let pc = i32 () in
        if pc >= c then
          fail "class %d of p%d: parent class %d is not earlier" c pi pc;
        let lseq = events.(pc).Event.lseq + 1 in
        let peer () =
          let q = i32 () in
          if q >= n then fail "class %d of p%d: peer %d out of range" c pi q;
          Pid.of_int q
        in
        let e, pool =
          match u8 () with
          | 0 -> (Event.internal ~pid:p ~lseq (getstr (i32 ())), [])
          | 1 ->
              let dst = peer () in
              let payload = getstr (i32 ()) in
              let m = Msg.make ~src:p ~dst ~seq:sends.(pc) ~payload in
              (Event.send ~pid:p ~lseq m, [])
          | 2 ->
              let src = peer () in
              let payload = getstr (i32 ()) in
              let m = Msg.make ~src ~dst:p ~seq:(i32 ()) ~payload in
              (Event.receive ~pid:p ~lseq m, [ m ])
          | t -> fail "class %d of p%d: bad event kind %d" c pi t
        in
        (match StepTbl.find_opt steps (pc, e) with
        | Some c' -> fail "classes %d and %d of p%d are the same step" c' c pi
        | None -> StepTbl.add steps (pc, e) c);
        if not (List.exists (Event.equal e) (stage pc pool)) then
          fail "class %d of p%d: %s is not a step of the process's rule" c pi
            (Event.to_string e);
        parents.(c) <- pc;
        events.(c) <- e;
        sends.(c) <- (sends.(pc) + if Event.is_send e then 1 else 0)
      done;
      trie_parent.(pi) <- parents;
      event.(pi) <- events
    done;
    let count = i32 () in
    if count < 1 then fail "implausible computation count %d" count;
    plausible (count - 1) ~bytes:12 "computation count";
    let parent = Array.make count (-1) and pid = Array.make count (-1) in
    let cid = Array.make count 0 in
    (* per computation, its number of events; dropped after the load *)
    let depths = Array.make count 0 in
    (* per process, the next class id to be reached for the first time *)
    let reached = Array.make n 1 in
    (* [on p a] is [a] or its nearest ancestor whose event is on [p],
       else the root *)
    let rec on p a = if a = 0 || pid.(a) = p then a else on p parent.(a) in
    (* newest first: a receive of [m]'s key before its send means
       already received; the root before it means never sent *)
    let rec in_flight m a =
      a > 0
      &&
      match event.(pid.(a)).(cid.(a)).Event.kind with
      | Event.Receive r when Pid.equal r.Msg.src m.Msg.src && r.Msg.seq = m.Msg.seq
        ->
          false
      | Event.Send s when Msg.equal s m -> true
      | Event.Send _ | Event.Receive _ | Event.Internal _ ->
          in_flight m parent.(a)
    in
    for i = 1 to count - 1 do
      let up = i32 () in
      if up >= i then fail "parent index %d not before child %d" up i;
      let pi = i32 () in
      if pi >= n then fail "pid %d out of range" pi;
      let c = i32 () in
      if c < 1 || c >= Array.length event.(pi) then
        fail "class id %d of p%d out of range at computation %d" c pi i;
      if c > reached.(pi) then
        fail "class %d of p%d first reached out of order at computation %d" c
          pi i;
      if c = reached.(pi) then reached.(pi) <- c + 1;
      if trie_parent.(pi).(c) <> cid.(on pi up) then
        fail
          "class %d of p%d does not extend the parent computation's class at \
           computation %d"
          c pi i;
      if depths.(up) >= depth then
        fail "computation %d is deeper than the universe's depth %d" i depth;
      let e = event.(pi).(c) in
      (match e.Event.kind with
      | Event.Receive m when not (in_flight m up) ->
          fail "receive of a message not in flight at computation %d" i
      | Event.Send _ | Event.Receive _ | Event.Internal _ -> ());
      (* enumeration stores a level's children parent by parent, and
         each parent's children in [Event.compare] order, so no
         computation is stored twice *)
      let prev = i - 1 in
      if
        up < parent.(prev)
        || up = parent.(prev)
           && Event.compare event.(pid.(prev)).(cid.(prev)) e >= 0
      then fail "computation %d is out of enumeration order" i;
      depths.(i) <- depths.(up) + 1;
      parent.(i) <- up;
      pid.(i) <- pi;
      cid.(i) <- c
    done;
    Array.iteri
      (fun pi next ->
        if next < Array.length event.(pi) then
          fail "class %d of p%d is never reached" next pi)
      reached;
    if !pos <> len then fail "%d trailing bytes" (len - !pos);
    let u =
      make ~spec ~mode ~depth ~status ~sym:false ~parent ~pid ~cid ~trie_parent
        ~trie_event:event
    in
    (* spot-check against the spec the caller claims this snapshot is
       for: the deepest stored computation, the one trace built here,
       must be one of its computations (catches key collisions and spec
       drift) *)
    if count > 1 && not (Spec.valid spec (trace_of u (count - 1))) then
      fail "snapshot is not a universe of the given spec";
    Ok u
  with Corrupt m -> Error m

let pp_stats fmt u =
  Format.fprintf fmt "universe: %d computations, depth %d, mode %s%s, %d processes%s"
    (size u) u.depth
    (match u.mode with `Full -> "full" | `Canonical -> "canonical")
    (if u.sym then ", reduce sym" else "")
    (Spec.n u.spec)
    (match u.status with
    | Complete -> ""
    | Truncated r -> Printf.sprintf " [TRUNCATED: %s]" (reason_to_string r))
