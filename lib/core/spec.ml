type intent =
  | Send_to of Pid.t * string
  | Recv_any
  | Recv_from of Pid.t
  | Recv_if of string * (Msg.t -> bool)
  | Do of string

type rule = Event.t list -> intent list
type t = { n : int; all : Pset.t; rule : Pid.t -> rule }

let make ~n rule =
  if n < 1 then invalid_arg "Spec.make: need at least one process";
  { n; all = Pset.all n; rule }

let n s = s.n
let all s = s.all
let pids s = Pset.to_list s.all
let rule_of s p = s.rule p

let local_send_count history =
  List.fold_left (fun k e -> if Event.is_send e then k + 1 else k) 0 history

(* The per-process alphabet: the events one intent stands for, given the
   process's local history and a pool of deliverable messages. Shared by
   [enabled_on] (which passes the trace's actual in-flight messages) and
   the static analyzer in [lib/analysis] (which passes an
   over-approximate candidate pool). *)
let intent_events p ~history ~pool intent =
  let lseq = List.length history in
  let here m = Pid.equal m.Msg.dst p in
  match intent with
  | Send_to (dst, payload) ->
      let sends = local_send_count history in
      [ Event.send ~pid:p ~lseq (Msg.make ~src:p ~dst ~seq:sends ~payload) ]
  | Recv_any ->
      List.filter_map
        (fun m -> if here m then Some (Event.receive ~pid:p ~lseq m) else None)
        pool
  | Recv_from src ->
      List.filter_map
        (fun m ->
          if here m && Pid.equal m.Msg.src src then
            Some (Event.receive ~pid:p ~lseq m)
          else None)
        pool
  | Recv_if (_, accept) ->
      List.filter_map
        (fun m ->
          if here m && accept m then Some (Event.receive ~pid:p ~lseq m)
          else None)
        pool
  | Do tag -> [ Event.internal ~pid:p ~lseq tag ]

let step_events s p ~history ~pool =
  s.rule p history
  |> List.concat_map (intent_events p ~history ~pool)
  |> List.sort_uniq Event.compare

let enabled_on s z p =
  step_events s p ~history:(Trace.proj z p) ~pool:(Trace.in_flight z)

(* [Trace.in_flight] scans the whole trace: compute the pool once per
   state, not once per process *)
let enabled s z =
  let pool = Trace.in_flight z in
  List.concat_map
    (fun p -> step_events s p ~history:(Trace.proj z p) ~pool)
    (pids s)
  |> List.sort_uniq Event.compare

let extensions s z = List.map (Trace.snoc z) (enabled s z)

let validity_error s z =
  match Trace.well_formed_error z with
  | Some reason -> Some ("not well-formed: " ^ reason)
  | None ->
      let step (prefix, err) e =
        match err with
        | Some _ -> (prefix, err)
        | None ->
            if List.exists (Event.equal e) (enabled_on s prefix e.Event.pid) then
              (Trace.snoc prefix e, None)
            else
              ( prefix,
                Some
                  (Printf.sprintf "event %s not enabled after %d events"
                     (Event.to_string e) (Trace.length prefix)) )
      in
      let _, err = List.fold_left step (Trace.empty, None) (Trace.to_list z) in
      err

let valid s z = Option.is_none (validity_error s z)
