open Hpl_core

let crash_tag = "crash"
let recover_tag = "recover"

let is_crash e =
  match e.Event.kind with
  | Event.Internal t -> String.equal t crash_tag
  | _ -> false

let is_recover e =
  match e.Event.kind with
  | Event.Internal t -> String.equal t recover_tag
  | _ -> false

(* -- crash transformers ------------------------------------------------- *)

let crash_stop ~pid ~after s =
  let n = Spec.n s in
  if Pid.to_int pid < 0 || Pid.to_int pid >= n then
    invalid_arg "Faults.crash_stop: pid outside the system";
  if after < 0 then invalid_arg "Faults.crash_stop: negative event count";
  Spec.make ~n (fun p history ->
      if Pid.equal p pid && List.length history >= after then []
      else Spec.rule_of s p history)

let crash_any ~upto s =
  let n = Spec.n s in
  if upto < 0 || upto > n then
    invalid_arg "Faults.crash_any: upto must be within 0..n";
  Spec.make ~n (fun p history ->
      if Pid.to_int p >= upto then Spec.rule_of s p history
      else if List.exists is_crash history then []
      else
        (* a process that enables nothing gains no crash event: a crash
           of a halted process is unobservable, and leaving it out keeps
           finite systems finite and commutes with [bound_events] *)
        match Spec.rule_of s p history with
        | [] -> []
        | intents -> intents @ [ Spec.Do crash_tag ])

let crash_recover ~pid ~after ~upto s =
  let n = Spec.n s in
  if Pid.to_int pid < 0 || Pid.to_int pid >= n then
    invalid_arg "Faults.crash_recover: pid outside the system";
  if after < 0 then invalid_arg "Faults.crash_recover: negative event count";
  if upto < 1 then invalid_arg "Faults.crash_recover: need at least one recovery";
  let is_fault e = is_crash e || is_recover e in
  Spec.make ~n (fun p history ->
      if not (Pid.equal p pid) then Spec.rule_of s p history
      else
        let crashes = List.length (List.filter is_crash history) in
        let recovers = List.length (List.filter is_recover history) in
        if crashes > recovers then
          (* down: the only thing a crashed process can do is come back
             up — and only while it has recoveries left *)
          if recovers < upto then [ Spec.Do recover_tag ] else []
        else
          (* alive: the crash quota counts protocol events since the
             last recovery (each life gets a fresh quota) *)
          let since_recover =
            List.fold_left
              (fun acc e -> if is_recover e then 0 else acc + 1)
              0 history
          in
          if since_recover >= after then [ Spec.Do crash_tag ]
          else
            (* the underlying rule never sees the fault bookkeeping *)
            Spec.rule_of s p (List.filter (fun e -> not (is_fault e)) history))

(* -- channel routing ----------------------------------------------------- *)

type channel_fault = { drop : bool; dup : bool }

(* Payload encodings. A routed send carries its real destination; a
   forward (or duplicate) carries the original sender and the original
   sequence number, so the receiver-side translation can reconstruct
   the exact fault-free message value — duplicates decode to the same
   original (src, seq), which is how a protocol can notice them. *)

let cut c s =
  match String.index_opt s c with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let enc_routed ~dst payload = Printf.sprintf "R:%d:%s" (Pid.to_int dst) payload

let dec_routed payload =
  if String.length payload >= 2 && payload.[0] = 'R' && payload.[1] = ':' then
    match cut ':' (String.sub payload 2 (String.length payload - 2)) with
    | Some (d, pl) -> (
        match int_of_string_opt d with Some d -> Some (d, pl) | None -> None)
    | None -> None
  else None

let enc_forward ~dup ~src ~seq payload =
  Printf.sprintf "%c:%d:%d:%s"
    (if dup then 'D' else 'F')
    (Pid.to_int src) seq payload

let dec_forward payload =
  if
    String.length payload >= 2
    && (payload.[0] = 'F' || payload.[0] = 'D')
    && payload.[1] = ':'
  then
    match cut ':' (String.sub payload 2 (String.length payload - 2)) with
    | Some (srci, rest) -> (
        match cut ':' rest with
        | Some (seq, pl) -> (
            match (int_of_string_opt srci, int_of_string_opt seq) with
            | Some srci, Some seq -> Some (srci, seq, pl)
            | _ -> None)
        | None -> None)
    | None -> None
  else None

let drop_tag ~src ~dst payload =
  Printf.sprintf "drop:p%d->p%d:%s" (Pid.to_int src) (Pid.to_int dst) payload

let is_drop_tag t = String.length t >= 5 && String.sub t 0 5 = "drop:"

(* Translate one event of a real process's raw history back to its
   fault-free form: a routed send is presented as the original send, a
   forwarded receive as a receive of the original message. [is_daemon]
   recognizes daemon pids. *)
let translate_event ~is_daemon p e =
  match e.Event.kind with
  | Event.Send m when is_daemon m.Msg.dst -> (
      match dec_routed m.Msg.payload with
      | Some (d, pl) ->
          Event.send ~pid:p ~lseq:e.Event.lseq
            (Msg.make ~src:p ~dst:(Pid.of_int d) ~seq:m.Msg.seq ~payload:pl)
      | None -> e)
  | Event.Receive m when is_daemon m.Msg.src -> (
      match dec_forward m.Msg.payload with
      | Some (srci, seq, pl) ->
          Event.receive ~pid:p ~lseq:e.Event.lseq
            (Msg.make ~src:(Pid.of_int srci) ~dst:p ~seq ~payload:pl)
      | None -> e)
  | _ -> e

let route s faults =
  let n = Spec.n s in
  if faults = [] then invalid_arg "Faults.route: empty channel list";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun ((a, b), _) ->
      let ai = Pid.to_int a and bi = Pid.to_int b in
      if ai < 0 || ai >= n || bi < 0 || bi >= n then
        invalid_arg
          (Printf.sprintf "Faults.route: channel p%d->p%d outside the %d-process system"
             ai bi n);
      if ai = bi then
        invalid_arg (Printf.sprintf "Faults.route: self-loop channel p%d->p%d" ai bi);
      if Hashtbl.mem seen (ai, bi) then
        invalid_arg
          (Printf.sprintf "Faults.route: duplicate channel p%d->p%d" ai bi);
      Hashtbl.add seen (ai, bi) ())
    faults;
  let k = List.length faults in
  let chans = Array.of_list faults in
  (* channel (src,dst) -> daemon pid index *)
  let daemon_of = Hashtbl.create 8 in
  Array.iteri
    (fun i ((a, b), _) ->
      Hashtbl.replace daemon_of (Pid.to_int a, Pid.to_int b) (Pid.of_int (n + i)))
    chans;
  let routed src dst = Hashtbl.find_opt daemon_of (Pid.to_int src, Pid.to_int dst) in
  let is_daemon p = Pid.to_int p >= n in
  (* one daemon per channel: receive routed messages, then for each in
     arrival order forward it, drop it (if allowed), or — after a
     forward on a duplicating channel — forward it once more *)
  let daemon_rule ci history =
    let (src, dst), fault = chans.(ci) in
    let queued =
      List.filter_map
        (fun e ->
          match e.Event.kind with
          | Event.Receive m -> (
              match dec_routed m.Msg.payload with
              | Some (_, pl) -> Some (m.Msg.seq, pl)
              | None -> None)
          | _ -> None)
        history
    in
    let handled, dup_candidate =
      List.fold_left
        (fun (h, cand) e ->
          match e.Event.kind with
          | Event.Send m ->
              if String.length m.Msg.payload > 0 && m.Msg.payload.[0] = 'D' then
                (h, None)
              else (h + 1, if fault.dup then Some (List.nth queued h) else None)
          | Event.Internal t when is_drop_tag t -> (h + 1, None)
          | _ -> (h, cand))
        (0, None) history
    in
    let next =
      if handled < List.length queued then begin
        let seq, pl = List.nth queued handled in
        Spec.Send_to (dst, enc_forward ~dup:false ~src ~seq pl)
        ::
        (if fault.drop then [ Spec.Do (drop_tag ~src ~dst pl) ] else [])
      end
      else []
    in
    let dup_intent =
      match dup_candidate with
      | Some (seq, pl) -> [ Spec.Send_to (dst, enc_forward ~dup:true ~src ~seq pl) ]
      | None -> []
    in
    (Spec.Recv_any :: next) @ dup_intent
  in
  let wrap_pred p pred m =
    if is_daemon m.Msg.src then
      match dec_forward m.Msg.payload with
      | Some (srci, seq, pl) ->
          pred (Msg.make ~src:(Pid.of_int srci) ~dst:p ~seq ~payload:pl)
      | None -> false
    else pred m
  in
  Spec.make ~n:(n + k) (fun p history ->
      let pi = Pid.to_int p in
      if pi >= n then daemon_rule (pi - n) history
      else
        let local = List.map (translate_event ~is_daemon p) history in
        Spec.rule_of s p local
        |> List.map (fun intent ->
               match intent with
               | Spec.Send_to (dst, payload) -> (
                   match routed p dst with
                   | Some daemon -> Spec.Send_to (daemon, enc_routed ~dst payload)
                   | None -> intent)
               | Spec.Recv_from src -> (
                   match routed src p with
                   | Some daemon ->
                       Spec.Recv_if
                         ( Printf.sprintf "from-p%d-routed" (Pid.to_int src),
                           fun m ->
                             Pid.equal m.Msg.src src
                             || Pid.equal m.Msg.src daemon
                                && Option.is_some (dec_forward m.Msg.payload) )
                   | None -> intent)
               | Spec.Recv_if (name, pred) -> Spec.Recv_if (name, wrap_pred p pred)
               | Spec.Recv_any | Spec.Do _ -> intent))

let all_pairs n =
  List.concat
    (List.init n (fun i ->
         List.filter_map
           (fun j -> if i = j then None else Some (Pid.of_int i, Pid.of_int j))
           (List.init n Fun.id)))

let lossy ?channels s =
  let chans = match channels with Some c -> c | None -> all_pairs (Spec.n s) in
  route s (List.map (fun c -> (c, { drop = true; dup = false })) chans)

let duplicating ?channels s =
  let chans = match channels with Some c -> c | None -> all_pairs (Spec.n s) in
  route s (List.map (fun c -> (c, { drop = false; dup = true })) chans)

let view ~n z =
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "faults.view_calls" 1;
    Hpl_obs.count "faults.view_events" (Trace.length z)
  end;
  let is_daemon p = Pid.to_int p >= n in
  Trace.to_list z
  |> List.filter_map (fun e ->
         if is_daemon e.Event.pid then None
         else Some (translate_event ~is_daemon e.Event.pid e))
  |> Trace.of_list

let delivery_channel ~n e =
  match e.Event.kind with
  | Event.Receive m ->
      let src = Pid.to_int m.Msg.src and dst = Pid.to_int m.Msg.dst in
      if dst >= n then None (* daemon pickup: the message is still in the network *)
      else if src >= n then
        (* daemon forward: decode the original sender *)
        (match dec_forward m.Msg.payload with
        | Some (srci, _, _) -> Some (srci, dst)
        | None -> None)
      else Some (src, dst)
  | _ -> None

(* -- scenarios ------------------------------------------------------------ *)

module Scenario = struct
  type item =
    | Crash_stop of { pid : int; after : int }
    | Crash_any of { upto : int }
    | Drop of channel_pat
    | Dup of channel_pat
    | Partition of { group : int list; t0 : int; t1 : int }
    | Recover of { pid : int; upto : int }

  and channel_pat = All_channels | Channel of int * int

  type t = item list

  let parse_pid tok =
    let tok =
      if String.length tok >= 2 && tok.[0] = 'p' then
        String.sub tok 1 (String.length tok - 1)
      else tok
    in
    match int_of_string_opt tok with Some i when i >= 0 -> Some i | _ -> None

  let parse_channel rest =
    if String.equal rest "*" then Some All_channels
    else
      match cut '-' rest with
      | Some (a, b)
        when String.length b >= 1 && b.[0] = '>' ->
          let b = String.sub b 1 (String.length b - 1) in
          (match (parse_pid a, parse_pid b) with
          | Some a, Some b -> Some (Channel (a, b))
          | _ -> None)
      | _ -> None

  let parse_item itm =
    match cut ':' itm with
    | Some ("crash", rest) -> (
        match cut '@' rest with
        | Some (p, k) -> (
            match (parse_pid p, int_of_string_opt k) with
            | Some pid, Some after when after >= 0 ->
                Ok (Crash_stop { pid; after })
            | _ ->
                Error (Printf.sprintf "bad fault item %S (want crash:pN@K)" itm))
        | None -> Error (Printf.sprintf "bad fault item %S (want crash:pN@K)" itm))
    | Some ("crash-any", rest) -> (
        match int_of_string_opt rest with
        | Some k when k >= 0 -> Ok (Crash_any { upto = k })
        | _ -> Error (Printf.sprintf "bad fault item %S (want crash-any:K)" itm))
    | Some ("drop", rest) -> (
        match parse_channel rest with
        | Some pat -> Ok (Drop pat)
        | None ->
            Error (Printf.sprintf "bad fault item %S (want drop:pA->pB or drop:*)" itm))
    | Some ("dup", rest) -> (
        match parse_channel rest with
        | Some pat -> Ok (Dup pat)
        | None ->
            Error (Printf.sprintf "bad fault item %S (want dup:pA->pB or dup:*)" itm))
    | Some ("partition", rest) -> (
        let err () =
          Error
            (Printf.sprintf "bad fault item %S (want partition:pA|pB@t0-t1)" itm)
        in
        match cut '@' rest with
        | Some (grp, win) -> (
            let pids =
              String.split_on_char '|' grp |> List.map String.trim
              |> List.map parse_pid
            in
            match cut '-' win with
            | Some (a, b) -> (
                match (int_of_string_opt a, int_of_string_opt b) with
                | Some t0, Some t1
                  when t0 >= 0 && t1 >= t0 && pids <> []
                       && List.for_all Option.is_some pids ->
                    Ok
                      (Partition
                         { group = List.filter_map Fun.id pids; t0; t1 })
                | _ -> err ())
            | None -> err ())
        | None -> err ())
    | Some ("recover", rest) -> (
        let err () =
          Error
            (Printf.sprintf
               "bad fault item %S (want recover:pN@K with K >= 1 recoveries)" itm)
        in
        match cut '@' rest with
        | Some (p, k) -> (
            match (parse_pid p, int_of_string_opt k) with
            | Some pid, Some upto when upto >= 1 -> Ok (Recover { pid; upto })
            | _ -> err ())
        | None -> err ())
    | _ ->
        Error
          (Printf.sprintf
             "unknown fault item %S (want crash:pN@K, crash-any:K, drop:pA->pB, dup:pA->pB, * for all channels, partition:pA|pB@t0-t1, or recover:pN@K)"
             itm)

  let parse s =
    let items =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun x -> not (String.equal x ""))
    in
    if items = [] then Error "empty fault scenario"
    else
      List.fold_left
        (fun acc itm ->
          match (acc, parse_item itm) with
          | Error _, _ -> acc
          | Ok t, Ok i -> Ok (t @ [ i ])
          | Ok _, Error e -> Error e)
        (Ok []) items

  let pat_to_string = function
    | All_channels -> "*"
    | Channel (a, b) -> Printf.sprintf "p%d->p%d" a b

  let item_to_string = function
    | Crash_stop { pid; after } -> Printf.sprintf "crash:p%d@%d" pid after
    | Crash_any { upto } -> Printf.sprintf "crash-any:%d" upto
    | Drop pat -> "drop:" ^ pat_to_string pat
    | Dup pat -> "dup:" ^ pat_to_string pat
    | Partition { group; t0; t1 } ->
        Printf.sprintf "partition:%s@%d-%d"
          (String.concat "|" (List.map (Printf.sprintf "p%d") group))
          t0 t1
    | Recover { pid; upto } -> Printf.sprintf "recover:p%d@%d" pid upto

  let to_string t = String.concat "," (List.map item_to_string t)

  let routes_channels t =
    List.exists (function Drop _ | Dup _ | Partition _ -> true | _ -> false) t

  let partition_windows t =
    List.filter_map
      (function
        | Partition { group; t0; t1 } -> Some (t0, t1, group) | _ -> None)
      t

  let without_partitions t =
    List.filter (function Partition _ -> false | _ -> true) t

  (* merge every Drop/Dup item into one per-channel fault map, expanding
     [*]; deterministic order: sorted by (src, dst) *)
  let all_ordered_pairs n =
    List.concat
      (List.init n (fun i ->
           List.filter_map
             (fun j -> if i = j then None else Some (i, j))
             (List.init n Fun.id)))

  let crossing_pairs n group =
    List.filter
      (fun (i, j) -> List.mem i group <> List.mem j group)
      (all_ordered_pairs n)

  let channel_faults n t =
    let tbl = Hashtbl.create 8 in
    let add_chans chans set =
      List.iter
        (fun c ->
          let cur =
            Option.value ~default:{ drop = false; dup = false }
              (Hashtbl.find_opt tbl c)
          in
          Hashtbl.replace tbl c (set cur))
        chans
    in
    let add pat set =
      let chans =
        match pat with
        | All_channels -> all_ordered_pairs n
        | Channel (a, b) -> [ (a, b) ]
      in
      add_chans chans set
    in
    List.iter
      (function
        | Drop pat -> add pat (fun f -> { f with drop = true })
        | Dup pat -> add pat (fun f -> { f with dup = true })
        | Partition { group; _ } ->
            (* the exact engine has no global clock, so a partition
               window is over-approximated as whole-run lossiness on the
               boundary-crossing channels; the sim engine and the Monte
               Carlo sampler honor the [t0, t1) window precisely *)
            add_chans (crossing_pairs n group) (fun f -> { f with drop = true })
        | Crash_stop _ | Crash_any _ | Recover _ -> ())
      t;
    Hashtbl.fold (fun c f acc -> (c, f) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

  let validate n t =
    let bad fmt = Printf.ksprintf (fun e -> Error e) fmt in
    List.fold_left
      (fun acc item ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match item with
            | Crash_stop { pid; _ } when pid >= n ->
                bad "crash:p%d: pid out of range for a %d-process system" pid n
            | Crash_any { upto } when upto > n ->
                bad "crash-any:%d: more processes than the system has (%d)" upto n
            | Drop (Channel (a, b)) | Dup (Channel (a, b)) ->
                if a >= n || b >= n then
                  bad "channel p%d->p%d out of range for a %d-process system" a b n
                else if a = b then bad "channel p%d->p%d is a self-loop" a b
                else Ok ()
            | Partition { group; _ } -> (
                match List.find_opt (fun p -> p >= n) group with
                | Some p ->
                    bad "partition: pid p%d out of range for a %d-process system"
                      p n
                | None ->
                    let distinct = List.sort_uniq Int.compare group in
                    if List.length distinct <> List.length group then
                      bad "partition: duplicate pid in group"
                    else if List.length distinct >= n then
                      bad
                        "partition: the group must leave at least one process \
                         on the other side"
                    else Ok ())
            | Recover { pid; _ } ->
                if pid >= n then
                  bad "recover:p%d: pid out of range for a %d-process system"
                    pid n
                else if
                  not
                    (List.exists
                       (function
                         | Crash_stop { pid = p; _ } -> p = pid | _ -> false)
                       t)
                then
                  bad
                    "recover:p%d: needs a matching crash:p%d@K item (recovery \
                     is from a scheduled crash)"
                    pid pid
                else if
                  List.length
                    (List.filter
                       (function
                         | Recover { pid = p; _ } -> p = pid | _ -> false)
                       t)
                  > 1
                then bad "recover:p%d: duplicate recovery item" pid
                else Ok ()
            | _ -> Ok ()))
      (Ok ()) t

  (* Channel faults must name channels the system actually has: routing
     a never-used channel through a daemon silently changes nothing,
     which always means a typo in the scenario. The channel graph comes
     from the caller (the static analyzer owns extraction; this library
     stays below it in the dependency order). Only explicitly named
     channels are checked — [drop:*]/[dup:*] quantify over whatever
     channels exist, so they are vacuously fine on the rest. *)
  let validate_channels t ~channels =
    let known (a, b) = List.exists (fun c -> c = (a, b)) channels in
    let describe () =
      match channels with
      | [] -> "the spec has no channels at all"
      | cs ->
          "the spec's channels are "
          ^ String.concat ", "
              (List.map (fun (a, b) -> Printf.sprintf "p%d->p%d" a b) cs)
    in
    List.fold_left
      (fun acc item ->
        match (acc, item) with
        | Error _, _ -> acc
        | Ok (), (Drop (Channel (a, b)) | Dup (Channel (a, b)))
          when not (known (a, b)) ->
            Error
              (Printf.sprintf "%s: no such channel in this spec (%s)"
                 (item_to_string item) (describe ()))
        | Ok (), _ -> acc)
      (Ok ()) t

  let apply t s =
    let n = Spec.n s in
    match validate n t with
    | Error _ as e -> e
    | Ok () ->
        let cf =
          channel_faults n t
          |> List.map (fun ((a, b), f) -> ((Pid.of_int a, Pid.of_int b), f))
        in
        (* one network daemon per routed channel *)
        Hpl_obs.count "faults.daemons" (List.length cf);
        let s = if cf = [] then s else route s cf in
        let recover_of pid =
          List.find_map
            (function
              | Recover { pid = p; upto } when p = pid -> Some upto | _ -> None)
            t
        in
        Ok
          (List.fold_left
             (fun s item ->
               match item with
               | Crash_stop { pid; after } -> (
                   match recover_of pid with
                   | Some upto ->
                       crash_recover ~pid:(Pid.of_int pid) ~after ~upto s
                   | None -> crash_stop ~pid:(Pid.of_int pid) ~after s)
               | Crash_any { upto } -> crash_any ~upto s
               | Drop _ | Dup _ | Partition _ | Recover _ -> s)
             s t)

  let apply_exn t s =
    match apply t s with Ok s -> s | Error e -> invalid_arg ("Faults." ^ e)

  let suggested_depth t d =
    let d = if routes_channels t then 2 * d else d in
    d
    + List.fold_left
        (fun acc -> function
          | Crash_any { upto } -> acc + upto
          | Recover { upto; _ } -> acc + (2 * upto)
          | Crash_stop _ | Drop _ | Dup _ | Partition _ -> acc)
        0 t

  let view t ~n z = if routes_channels t then view ~n z else z
end
