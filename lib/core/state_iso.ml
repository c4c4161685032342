type view = { name : string; observe : Pid.t -> Event.t list -> string }

let full =
  {
    name = "full";
    observe = (fun _ history -> String.concat ";" (List.map Event.to_string history));
  }

let counters =
  {
    name = "counters";
    observe =
      (fun _ history ->
        let s = List.length (List.filter Event.is_send history) in
        let r = List.length (List.filter Event.is_receive history) in
        let i = List.length (List.filter Event.is_internal history) in
        Printf.sprintf "%d/%d/%d" s r i);
  }

let last_event =
  {
    name = "last-event";
    observe =
      (fun _ history ->
        match List.rev history with
        | [] -> "init"
        | e :: _ -> Event.to_string e);
  }

let message_log =
  {
    name = "message-log";
    observe =
      (fun _ history ->
        history
        |> List.filter_map (fun e ->
               match e.Event.kind with
               | Event.Send m -> Some ("!" ^ m.Msg.payload)
               | Event.Receive m -> Some ("?" ^ m.Msg.payload)
               | Event.Internal _ -> None)
        |> List.sort String.compare
        |> String.concat ",");
  }

type t = {
  u : Universe.t;
  view : view;
  ids_by_pid : int array array; (* pid -> comp index -> state class id *)
  pset_memo : (int list, int array) Hashtbl.t;
}

let make u view =
  let nprocs = Spec.n (Universe.spec u) in
  let size = Universe.size u in
  let ids_by_pid =
    Array.init nprocs (fun pi ->
        let p = Pid.of_int pi in
        let tbl : (string, int) Hashtbl.t = Hashtbl.create (2 * size) in
        let next = ref 0 in
        let ids = Array.make size 0 in
        Universe.iter
          (fun i z ->
            let key = view.observe p (Trace.proj z p) in
            let id =
              match Hashtbl.find_opt tbl key with
              | Some id -> id
              | None ->
                  let id = !next in
                  incr next;
                  Hashtbl.add tbl key id;
                  id
            in
            ids.(i) <- id)
          u;
        ids)
  in
  { u; view; ids_by_pid; pset_memo = Hashtbl.create 8 }

let universe t = t.u
let view_name t = t.view.name

let pset_ids t ps =
  let key = List.map Pid.to_int (Pset.to_list ps) in
  match Hashtbl.find_opt t.pset_memo key with
  | Some ids -> ids
  | None ->
      let size = Universe.size t.u in
      let ids =
        if Pset.is_empty ps then Array.make size 0
        else begin
          let tbl : (int list, int) Hashtbl.t = Hashtbl.create (2 * size) in
          let next = ref 0 in
          Array.init size (fun i ->
              let combined =
                List.map (fun p -> t.ids_by_pid.(Pid.to_int p).(i)) (Pset.to_list ps)
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
      Hashtbl.add t.pset_memo key ids;
      ids

let iso t ps i j =
  let ids = pset_ids t ps in
  ids.(i) = ids.(j)

let iso_traces view x y ps =
  Pset.for_all
    (fun p -> String.equal (view.observe p (Trace.proj x p)) (view.observe p (Trace.proj y p)))
    ps

let class_of t ps i =
  let ids = pset_ids t ps in
  Bitset.of_pred (Universe.size t.u) (fun j -> ids.(j) = ids.(i))

let knows_ext t ps ext =
  let ids = pset_ids t ps in
  let size = Universe.size t.u in
  let nclasses = Array.fold_left (fun m id -> max m (id + 1)) 0 ids in
  (* a class is "good" unless it contains a point outside ext *)
  let good = Array.make nclasses true in
  for i = 0 to size - 1 do
    if not (Bitset.mem ext i) then good.(ids.(i)) <- false
  done;
  Bitset.of_pred size (fun i -> good.(ids.(i)))

module Laws = struct
  let s5_veridical t ps b =
    Bitset.subset (knows_ext t ps (Prop.extent t.u b)) (Prop.extent t.u b)

  let s5_positive_introspection t ps b =
    let k = knows_ext t ps (Prop.extent t.u b) in
    Bitset.equal (knows_ext t ps k) k

  let s5_negative_introspection t ps b =
    let nk = Bitset.complement (knows_ext t ps (Prop.extent t.u b)) in
    Bitset.equal (knows_ext t ps nk) nk

  let conjunction t ps a b =
    Bitset.equal
      (Bitset.inter
         (knows_ext t ps (Prop.extent t.u a))
         (knows_ext t ps (Prop.extent t.u b)))
      (knows_ext t ps (Prop.extent t.u (Prop.and_ a b)))

  let full_coincides u ps b =
    let t = make u full in
    Bitset.equal
      (knows_ext t ps (Prop.extent u b))
      (Knowledge.knows_ext u ps (Prop.extent u b))

  let refines fine coarse =
    (* same universe; every fine per-process class sits inside one
       coarse class *)
    Universe.size fine.u = Universe.size coarse.u
    && Array.for_all2
         (fun fids cids ->
           let size = Array.length fids in
           let map : (int, int) Hashtbl.t = Hashtbl.create size in
           let ok = ref true in
           for i = 0 to size - 1 do
             match Hashtbl.find_opt map fids.(i) with
             | None -> Hashtbl.add map fids.(i) cids.(i)
             | Some c -> if c <> cids.(i) then ok := false
           done;
           !ok)
         fine.ids_by_pid coarse.ids_by_pid

  let coarser_knows_less fine coarse ps b =
    (not (refines fine coarse))
    || Bitset.subset
         (knows_ext coarse ps (Prop.extent coarse.u b))
         (knows_ext fine ps (Prop.extent fine.u b))
end
