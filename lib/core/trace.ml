(* A trace stores its events in reverse so that [snoc] is O(1); every
   ordered observation reverses on demand.

   [h] is a structural hash of the event sequence, maintained
   incrementally by [snoc]: it is a pure function of the ordered event
   hashes, so [equal a b] implies [a.h = b.h] and hashtable probes
   ([Universe.TraceTbl]) need no O(length) rebuild. *)
type t = { rev : Event.t list; len : int; h : int }

(* FNV-1a-style step: order-sensitive, cheap, and stable across runs. *)
let mix h eh = ((h * 0x01000193) lxor eh) land max_int
let empty = { rev = []; len = 0; h = 0x811c9dc5 }
let snoc z e = { rev = e :: z.rev; len = z.len + 1; h = mix z.h (Event.hash e) }
let of_list es = List.fold_left snoc empty es
let to_list z = List.rev z.rev
let length z = z.len
let is_empty z = z.len = 0
let last z = match z.rev with [] -> None | e :: _ -> Some e

let nth z i =
  if i < 0 || i >= z.len then invalid_arg "Trace.nth: out of bounds";
  List.nth z.rev (z.len - 1 - i)

(* Physical equality is the fast accept (a lookup of a stored
   computation probes with the stored value itself), the cached hash
   the fast reject: unequal hashes cannot be equal traces, equal hashes
   fall through to the structural check. *)
let equal a b =
  a == b || (a.len = b.len && a.h = b.h && List.equal Event.equal a.rev b.rev)

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else List.compare Event.compare a.rev b.rev

let hash z = z.h

let proj z p =
  List.fold_left
    (fun acc e -> if Pid.equal e.Event.pid p then e :: acc else acc)
    [] z.rev

let proj_set z ps =
  List.fold_left (fun acc e -> if Event.on e ps then e :: acc else acc) [] z.rev

let local_length z p =
  List.fold_left
    (fun n e -> if Pid.equal e.Event.pid p then n + 1 else n)
    0 z.rev

let send_count z p =
  List.fold_left
    (fun n e -> if Pid.equal e.Event.pid p && Event.is_send e then n + 1 else n)
    0 z.rev

let events_on = proj_set
let mem z e = List.exists (Event.equal e) z.rev

let is_prefix x z =
  x.len <= z.len
  &&
  (* x.rev must equal z.rev with the first (z.len - x.len) elements dropped *)
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  List.equal Event.equal x.rev (drop (z.len - x.len) z.rev)

let suffix ~prefix z =
  if not (is_prefix prefix z) then invalid_arg "Trace.suffix: not a prefix";
  let rec take n l acc =
    if n = 0 then acc
    else match l with [] -> acc | e :: t -> take (n - 1) t (e :: acc)
  in
  take (z.len - prefix.len) z.rev []

let append z es = List.fold_left snoc z es

(* [z.rev] lists events backwards, so a prepending fold over it yields
   messages in forward (execution) order. *)
let sent z =
  List.fold_left
    (fun acc e ->
      match e.Event.kind with
      | Event.Send m -> m :: acc
      | Event.Receive _ | Event.Internal _ -> acc)
    [] z.rev

let received z =
  List.fold_left
    (fun acc e ->
      match e.Event.kind with
      | Event.Receive m -> m :: acc
      | Event.Send _ | Event.Internal _ -> acc)
    [] z.rev

let in_flight z =
  (* O(S+R): index received message keys instead of scanning the receive
     list once per send. Keys [(src,seq)] identify messages in any
     well-formed trace (each key is sent at most once). *)
  let recvd : (Pid.t * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.Event.kind with
      | Event.Receive m -> Hashtbl.replace recvd (Msg.key m) ()
      | Event.Send _ | Event.Internal _ -> ())
    z.rev;
  List.filter (fun m -> not (Hashtbl.mem recvd (Msg.key m))) (sent z)

let well_formed_error z =
  let events = to_list z in
  let exception Bad of string in
  let local_next : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let sent_keys : (Pid.t * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let send_counts : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let recv_keys : (Pid.t * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  try
    List.iter
      (fun e ->
        let p = Pid.to_int e.Event.pid in
        let expect = get local_next p in
        if e.Event.lseq <> expect then
          raise
            (Bad
               (Printf.sprintf "event %s: lseq %d, expected %d"
                  (Event.to_string e) e.Event.lseq expect));
        Hashtbl.replace local_next p (expect + 1);
        (match e.Event.kind with
        | Event.Send m ->
            if not (Pid.equal m.Msg.src e.Event.pid) then
              raise (Bad (Printf.sprintf "send %s: src mismatch" (Event.to_string e)));
            if Hashtbl.mem sent_keys (Msg.key m) then
              raise (Bad (Printf.sprintf "message %s sent twice" (Msg.to_string m)));
            if m.Msg.seq <> get send_counts p then
              raise
                (Bad
                   (Printf.sprintf "message %s: seq %d, expected %d"
                      (Msg.to_string m) m.Msg.seq (get send_counts p)));
            Hashtbl.replace sent_keys (Msg.key m) ();
            Hashtbl.replace send_counts p (get send_counts p + 1)
        | Event.Receive m ->
            if not (Pid.equal m.Msg.dst e.Event.pid) then
              raise (Bad (Printf.sprintf "receive %s: dst mismatch" (Event.to_string e)));
            if not (Hashtbl.mem sent_keys (Msg.key m)) then
              raise
                (Bad (Printf.sprintf "message %s received before sent" (Msg.to_string m)));
            if Hashtbl.mem recv_keys (Msg.key m) then
              raise (Bad (Printf.sprintf "message %s received twice" (Msg.to_string m)));
            Hashtbl.replace recv_keys (Msg.key m) ()
        | Event.Internal _ -> ()))
      events;
    None
  with Bad reason -> Some reason

let well_formed z = Option.is_none (well_formed_error z)

let permutation_of x y =
  x.len = y.len
  &&
  let pids z =
    List.sort_uniq Pid.compare (List.map (fun e -> e.Event.pid) z.rev)
  in
  let ps = List.sort_uniq Pid.compare (pids x @ pids y) in
  List.for_all (fun p -> List.equal Event.equal (proj x p) (proj y p)) ps

let remove z e =
  if not (mem z e) then invalid_arg "Trace.remove: event not in trace";
  of_list (List.filter (fun e' -> not (Event.equal e e')) (to_list z))

let pp fmt z =
  Format.fprintf fmt "[@[<hov>%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ";@ ")
       Event.pp)
    (to_list z)

let to_string z = Format.asprintf "%a" pp z
