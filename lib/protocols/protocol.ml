open Hpl_core

(* -- parameters --------------------------------------------------------- *)

type param = {
  key : string;
  default : int;
  lo : int;
  hi : int option;
  pdoc : string;
}

type values = (string * int) list

let param ?(lo = 1) ?hi key default pdoc = { key; default; lo; hi; pdoc }

let get values key =
  match List.assoc_opt key values with
  | Some v -> v
  | None -> invalid_arg ("Protocol.get: unknown parameter " ^ key)

(* -- the protocol record ------------------------------------------------- *)

type t = {
  name : string;
  doc : string;
  params : param list;
  spec : values -> Spec.t;
  atoms : values -> (string * Prop.t) list;
  symmetry : values -> Symmetry.perm list;
  canonical_trace : (values -> Trace.t) option;
  suggested_depth : int;
  fault_scenarios : string list;
  lint_expect : string list;
}

let make ~name ~doc ?(params = []) ?(atoms = fun _ -> [])
    ?(symmetry = fun _ -> []) ?canonical_trace ?(suggested_depth = 6)
    ?(fault_scenarios = []) ?(lint_expect = []) spec =
  if name = "" then invalid_arg "Protocol.make: empty name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '-' -> ()
      | _ -> invalid_arg "Protocol.make: name must match [a-z0-9-]+")
    name;
  {
    name;
    doc;
    params;
    spec;
    atoms;
    symmetry;
    canonical_trace;
    suggested_depth;
    fault_scenarios;
    lint_expect;
  }

let name t = t.name
let doc t = t.doc
let params t = t.params
let suggested_depth t = t.suggested_depth
let fault_scenarios t = t.fault_scenarios
let lint_expect t = t.lint_expect
let defaults t = List.map (fun p -> (p.key, p.default)) t.params

(* -- instances ----------------------------------------------------------- *)

type instance = { proto : t; values : values }

let proto i = i.proto
let values i = i.values

let instantiate t args =
  let check p v =
    if v < p.lo then
      Error (Printf.sprintf "%s: %s must be >= %d (got %d)" t.name p.key p.lo v)
    else
      match p.hi with
      | Some hi when v > hi ->
          Error
            (Printf.sprintf "%s: %s must be <= %d (got %d)" t.name p.key hi v)
      | _ -> Ok (p.key, v)
  in
  let rec go ps args acc =
    match (ps, args) with
    | ps, [] -> Ok (List.rev acc @ List.map (fun p -> (p.key, p.default)) ps)
    | [], _ :: _ ->
        Error
          (Printf.sprintf "%s takes at most %d parameter(s)" t.name
             (List.length t.params))
    | p :: ps, v :: args -> (
        match check p v with
        | Ok kv -> go ps args (kv :: acc)
        | Error _ as e -> e)
  in
  match go t.params args [] with
  | Ok values -> Ok { proto = t; values }
  | Error e -> Error e

let default_instance t = { proto = t; values = defaults t }
let spec_of i = i.proto.spec i.values
let atoms_of i = i.proto.atoms i.values
let generators_of i = i.proto.symmetry i.values

let symmetry_of i =
  match generators_of i with
  | [] -> None
  | gens ->
      let n = Spec.n (spec_of i) in
      Some (Symmetry.of_generators ~n gens)
let atom_env i name = List.assoc_opt name (atoms_of i)
let canonical_trace_of i = Option.map (fun f -> f i.values) i.proto.canonical_trace
let depth_of i = i.proto.suggested_depth

let instance_name i =
  match i.proto.params with
  | [] -> i.proto.name
  | ps ->
      i.proto.name
      ^ String.concat ""
          (List.map (fun p -> ":" ^ string_of_int (get i.values p.key)) ps)

(* -- history & predicate helpers (shared by registered specs) ------------ *)

let sends history = List.length (List.filter Event.is_send history)
let recvs history = List.length (List.filter Event.is_receive history)

let sends_of history payload =
  List.length
    (List.filter
       (fun e ->
         match e.Event.kind with
         | Event.Send m -> String.equal m.Msg.payload payload
         | _ -> false)
       history)

let recvs_of history payload =
  List.length
    (List.filter
       (fun e ->
         match e.Event.kind with
         | Event.Receive m -> String.equal m.Msg.payload payload
         | _ -> false)
       history)

let did history tag =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Internal t -> String.equal t tag
      | _ -> false)
    history

let did_prop name p tag =
  Prop.make name (fun z -> did (Trace.proj z p) tag)

let received_prop name p payload =
  Prop.make name (fun z -> recvs_of (Trace.proj z p) payload > 0)

let sent_prop name p payload =
  Prop.make name (fun z -> sends_of (Trace.proj z p) payload > 0)

(* The star skeleton shared by wave/collect protocols (echo, quorum
   writes, several termination detectors): the hub sends [request] to
   every other process in pid order; each optionally performs [work]
   and replies [reply]; once [quorum] replies are in, the hub performs
   [finish]. *)
let star_spec ~n ?quorum ?work ~request ~reply ~finish () =
  if n < 2 then invalid_arg "Protocol.star_spec: need at least two processes";
  let q = match quorum with Some q -> q | None -> n - 1 in
  if q < 1 || q > n - 1 then invalid_arg "Protocol.star_spec: bad quorum";
  let hub = Pid.of_int 0 in
  Spec.make ~n (fun p history ->
      if Pid.equal p hub then begin
        let s = sends history in
        if s < n - 1 then [ Spec.Send_to (Pid.of_int (s + 1), request) ]
        else if recvs history < q then [ Spec.Recv_any ]
        else if did history finish then [ Spec.Recv_any ]
        else [ Spec.Do finish ]
      end
      else if recvs history = 0 then [ Spec.Recv_any ]
      else
        match work with
        | Some w when not (did history w) -> [ Spec.Do w ]
        | _ -> if sends history = 0 then [ Spec.Send_to (hub, reply) ] else [])

let first_walk spec ~depth =
  let rec go z k =
    if k = 0 then z
    else
      match Spec.enabled spec z with
      | [] -> z
      | e :: _ -> go (Trace.append z [ e ]) (k - 1)
  in
  go Trace.empty depth

(* -- registry ------------------------------------------------------------ *)

module Registry = struct
  let table : (string, t Lazy.t) Hashtbl.t = Hashtbl.create 64

  let register_lazy name t =
    if Hashtbl.mem table name then
      invalid_arg ("Protocol.Registry.register: duplicate name " ^ name);
    Hashtbl.replace table name t

  let register t = register_lazy t.name (Lazy.from_val t)
  let find name = Option.map Lazy.force (Hashtbl.find_opt table name)

  (* sorted keys; reading them forces no entry *)
  let names () =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

  let list () = List.filter_map find (names ())

  (* Levenshtein with the classic two-row table; names are short, so no
     need for banding or early exit *)
  let edit_distance a b =
    let la = String.length a and lb = String.length b in
    let prev = Array.init (lb + 1) Fun.id in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)

  (* the closest registered name, if it is close enough that the input
     was plausibly a typo of it (distance at most 1/3 of its length) *)
  let suggestion name =
    let best =
      List.fold_left
        (fun acc candidate ->
          let d = edit_distance name candidate in
          match acc with
          | Some (_, bd) when bd <= d -> acc
          | _ -> Some (candidate, d))
        None (names ())
    in
    match best with
    | Some (candidate, d) when d * 3 <= String.length candidate ->
        Printf.sprintf " — did you mean '%s'?" candidate
    | _ -> ""

  let parse s =
    match String.split_on_char ':' s with
    | [] | [ "" ] -> Error "empty protocol name"
    | name :: rest -> (
        match find name with
        | None ->
            Error
              (Printf.sprintf
                 "unknown protocol %S%s (run `hpl list` for names)" name
                 (suggestion name))
        | Some t -> (
            let ints = List.map int_of_string_opt rest in
            match
              List.find_opt Option.is_none ints
            with
            | Some _ ->
                Error
                  (Printf.sprintf "%s: parameters must be integers (got %S)" name
                     s)
            | None -> instantiate t (List.filter_map Fun.id ints)))
end
