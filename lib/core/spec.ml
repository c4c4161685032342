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

(* The per-process alphabet, defined once: what one intent stands for
   given the process's local history. A send or an internal event is
   fixed by the history; a receive intent is a test on deliverable
   messages, which come from a pool — the in-flight messages of a
   computation, or an over-approximate candidate pool in the static
   analyzer ([lib/analysis]). *)
type letter = Fixed of Event.t | Accepts of (Msg.t -> bool)

let letter p ~history ~lseq intent =
  let here m = Pid.equal m.Msg.dst p in
  match intent with
  | Send_to (dst, payload) ->
      let seq = local_send_count history in
      Fixed (Event.send ~pid:p ~lseq (Msg.make ~src:p ~dst ~seq ~payload))
  | Do tag -> Fixed (Event.internal ~pid:p ~lseq tag)
  | Recv_any -> Accepts here
  | Recv_from src -> Accepts (fun m -> here m && Pid.equal m.Msg.src src)
  | Recv_if (_, accept) -> Accepts (fun m -> here m && accept m)

let intent_events p ~history ~pool intent =
  let lseq = List.length history in
  match letter p ~history ~lseq intent with
  | Fixed e -> [ e ]
  | Accepts ok ->
      List.filter_map
        (fun m -> if ok m then Some (Event.receive ~pid:p ~lseq m) else None)
        pool

(* One run of [p]'s rule. All of [p]'s next events share its pid and
   [lseq], and [Event.compare] then ranks sends before receives before
   internal events, so the sorted alphabet is the fixed sends, the
   pool's receives, then the fixed internal events. *)
let stage s p ~history =
  let lseq = List.length history in
  let fixed, accepts =
    List.partition_map
      (fun intent ->
        match letter p ~history ~lseq intent with
        | Fixed e -> Left e
        | Accepts ok -> Right ok)
      (s.rule p history)
  in
  let fixed = List.sort_uniq Event.compare fixed in
  match accepts with
  | [] -> fun _ -> fixed
  | _ ->
      let sends, internals = List.partition Event.is_send fixed in
      fun pool ->
        match
          List.filter_map
            (fun m ->
              if List.exists (fun ok -> ok m) accepts then
                Some (Event.receive ~pid:p ~lseq m)
              else None)
            pool
        with
        | [] -> fixed
        | recvs -> sends @ List.sort_uniq Event.compare recvs @ internals

let enabled_on s z p = stage s p ~history:(Trace.proj z p) (Trace.in_flight z)

(* [Trace.in_flight] scans the whole trace: compute the pool once per
   state, not once per process. [Event.compare] is pid-major, so the
   per-process lists concatenated in pid order are sorted. *)
let enabled s z =
  let pool = Trace.in_flight z in
  List.concat_map (fun p -> stage s p ~history:(Trace.proj z p) pool) (pids s)

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
