open Hpl_core

type config = { max_cached_states : int; cache_dir : string option }

(* Deterministic mutable counters on the server itself (they must work
   with observability disabled, and the property tests assert exact
   arithmetic on them); each bump is mirrored into the Hpl_obs counter
   surface, which aggregates when an in-process caller has enabled it
   (the daemon does not) and is a single flag check otherwise. *)
type counters = {
  mutable requests : int;  (** queries that consulted the cache *)
  mutable cache_hit : int;
  mutable cache_miss : int;
  mutable bypass : int;  (** wall-clock-budget queries, never cached *)
  mutable snapshot_load : int;
  mutable snapshot_invalid : int;
  mutable snapshot_write : int;
  mutable errors : int;  (** malformed frames and exit-2 requests *)
}

type t = {
  cfg : config;
  cache : Cache.t;
  c : counters;
  mutable stop : bool;
}

let create cfg =
  if cfg.max_cached_states < 1 then
    invalid_arg "Serve.create: max_cached_states < 1";
  {
    cfg;
    cache = Cache.create ~max_states:cfg.max_cached_states;
    c =
      {
        requests = 0;
        cache_hit = 0;
        cache_miss = 0;
        bypass = 0;
        snapshot_load = 0;
        snapshot_invalid = 0;
        snapshot_write = 0;
        errors = 0;
      };
    stop = false;
  }

let stopped t = t.stop

let counters t =
  [
    ("requests", t.c.requests);
    ("cache_hit", t.c.cache_hit);
    ("cache_miss", t.c.cache_miss);
    ("bypass", t.c.bypass);
    ("snapshot_load", t.c.snapshot_load);
    ("snapshot_invalid", t.c.snapshot_invalid);
    ("snapshot_write", t.c.snapshot_write);
    ("evictions", Cache.evictions t.cache);
    ("cached_entries", Cache.entries t.cache);
    ("cached_states", Cache.stored_states t.cache);
    ("errors", t.c.errors);
  ]

let counters_json t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t))

(* Everything that can change the enumerated universe is in the key:
   protocol source identity (params and, for files, content hash
   included), depth, fault scenario, reduction (none or sym), mode, and
   the state budget (truncation changes the stored set). Wall-clock
   budgets never reach the cache at all. *)
let cache_key st ~mode ~reduce =
  Printf.sprintf "hpl1|%s|depth=%d|faults=%s|reduce=%s|mode=%s|max_states=%s"
    st.Query.src_key st.Query.depth
    (Option.value st.Query.faults_str ~default:"-")
    (if Option.is_some reduce then "sym" else "none")
    (match mode with `Full -> "full" | `Canonical -> "canonical")
    (match st.Query.budget.Universe.max_states with
    | Some k -> string_of_int k
    | None -> "-")

(* -- request handling --------------------------------------------------- *)

exception Bad_request of string

(* Error replies carry the exact bytes the CLI would print on stderr,
   "hpl: " prefix and trailing newline included, so process-level
   conformance can compare them byte for byte. *)
let err_reply t ~id msg =
  t.c.errors <- t.c.errors + 1;
  Hpl_obs.count "server.errors" 1;
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool false);
      ("exit", Json.Int 2);
      ("error", Json.Str ("hpl: " ^ msg ^ "\n"));
    ]

let field req k =
  match Json.member k req with
  | None | Some Json.Null -> None
  | Some (Json.Str s) -> Some s
  | Some (Json.Int n) -> Some (string_of_int n)
  | Some (Json.Float f) -> Some (Printf.sprintf "%g" f)
  | Some _ ->
      raise
        (Bad_request (Printf.sprintf "field %S must be a string or number" k))

(* Produce the universe for a resolved request: memory cache, then
   snapshot directory, then enumeration (writing a fresh snapshot on
   the way out). Returns provenance for the reply. *)
let obtain t st ~mode ~reduce ~key =
  if st.Query.budget.Universe.max_seconds <> None then begin
    t.c.bypass <- t.c.bypass + 1;
    Hpl_obs.count "server.bypass" 1;
    (Query.enumerate ~mode st ~reduce, "bypass", "bypass")
  end
  else begin
    t.c.requests <- t.c.requests + 1;
    Hpl_obs.count "server.requests" 1;
    match Cache.find t.cache key with
    | Some u ->
        t.c.cache_hit <- t.c.cache_hit + 1;
        Hpl_obs.count "server.cache_hit" 1;
        (u, "hit", "memory")
    | None ->
        t.c.cache_miss <- t.c.cache_miss + 1;
        Hpl_obs.count "server.cache_miss" 1;
        let enumerate_and_snapshot dir =
          let u =
            Hpl_obs.span "serve.enumerate" (fun () ->
                Query.enumerate ~mode st ~reduce)
          in
          (match dir with
          | None -> ()
          | Some dir -> (
              match Snapshot.save ~dir ~key u with
              | Ok () ->
                  t.c.snapshot_write <- t.c.snapshot_write + 1;
                  Hpl_obs.count "server.snapshot_write" 1
              | Error _ -> ()));
          (u, "enumerated")
        in
        let u, source =
          match t.cfg.cache_dir with
          | None -> enumerate_and_snapshot None
          | Some dir -> (
              match Snapshot.load ~dir ~key st.Query.spec with
              | Ok u ->
                  t.c.snapshot_load <- t.c.snapshot_load + 1;
                  Hpl_obs.count "server.snapshot_load" 1;
                  (u, "snapshot")
              | Error Snapshot.Absent -> enumerate_and_snapshot (Some dir)
              | Error (Snapshot.Cache_invalid _) ->
                  (* stale or corrupt file: fall back to enumeration;
                     the fresh snapshot overwrites the bad one *)
                  t.c.snapshot_invalid <- t.c.snapshot_invalid + 1;
                  Hpl_obs.count "server.snapshot_invalid" 1;
                  enumerate_and_snapshot (Some dir))
        in
        Cache.add t.cache key u;
        (u, "miss", source)
  end

let handle_query t ~id ~op req =
  let t0 = Unix.gettimeofday () in
  (* like the CLI's knows/check/extent, which take no --reduce: the
     knowledge and temporal operators refuse a symmetry-reduced
     universe *)
  if op <> "enumerate-stats" && field req "reduce" <> None then
    raise
      (Bad_request
         (Printf.sprintf
            "field \"reduce\" is for enumerate-stats only; %s always runs \
             on the unreduced universe"
            op));
  let proto = field req "protocol" in
  let file = field req "file" in
  let depth = field req "depth" in
  let faults = field req "faults" in
  let max_states = field req "max-states" in
  let max_seconds = field req "max-seconds" in
  (* parse the formula before resolving, like the CLI does — a bad
     formula is reported even when the protocol is also bad *)
  let formula =
    match op with
    | "check" -> (
        match field req "formula" with
        | None -> raise (Bad_request "check needs a \"formula\" field")
        | Some text -> (
            match Formula.parse text with
            | Error e -> raise (Bad_request ("parse error: " ^ e))
            | Ok f -> Some f))
    | _ -> None
  in
  let atom =
    match op with
    | "extent" -> (
        match field req "atom" with
        | None -> raise (Bad_request "extent needs an \"atom\" field")
        | Some a -> Some a)
    | _ -> None
  in
  match Query.resolve ?proto ?file ?depth ?faults ?max_states ?max_seconds ()
  with
  | Error m -> err_reply t ~id m
  | Ok st -> (
      let mode =
        match field req "mode" with
        | None | Some "canonical" -> `Canonical
        | Some "full" -> `Full
        | Some m ->
            raise
              (Bad_request (Printf.sprintf "bad mode %S (want canonical|full)" m))
      in
      let reduce_str = Option.value (field req "reduce") ~default:"none" in
      match Query.resolve_reduce st ~mode reduce_str with
      | Error m -> err_reply t ~id m
      | Ok reduce ->
          let key = cache_key st ~mode ~reduce in
          let u, cache, source = obtain t st ~mode ~reduce ~key in
          let outcome =
            match (op, formula, atom) with
            | "check", Some f, _ -> Query.run_check st u f
            | "extent", _, Some a -> Query.run_extent st u ~atom:a
            | "knows", _, _ -> Query.run_knows st u
            | _ -> Query.run_stats u
          in
          if outcome.Query.code = 2 then t.c.errors <- t.c.errors + 1;
          Json.Obj
            [
              ("id", id);
              ("ok", Json.Bool (outcome.Query.code <> 2));
              ("op", Json.Str op);
              ("exit", Json.Int outcome.Query.code);
              ("answer", Json.Str outcome.Query.out);
              ( "error",
                if outcome.Query.err = "" then Json.Null
                else Json.Str outcome.Query.err );
              ("cache", Json.Str cache);
              ("source", Json.Str source);
              ( "universe",
                Json.Obj
                  [
                    ("size", Json.Int (Universe.size u));
                    ("depth", Json.Int (Universe.depth u));
                    ( "truncated",
                      Json.Bool (Universe.status u <> Universe.Complete) );
                  ] );
              ( "elapsed_us",
                Json.Int
                  (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)) );
              ("counters", counters_json t);
            ])

let handle_request t ~id req =
  match field req "op" with
  | None -> err_reply t ~id "request needs an \"op\" field"
  | Some "shutdown" ->
      t.stop <- true;
      Json.Obj
        [
          ("id", id);
          ("ok", Json.Bool true);
          ("op", Json.Str "shutdown");
          ("exit", Json.Int 0);
        ]
  | Some "server-stats" ->
      Json.Obj
        [
          ("id", id);
          ("ok", Json.Bool true);
          ("op", Json.Str "server-stats");
          ("exit", Json.Int 0);
          ("counters", counters_json t);
        ]
  | Some (("knows" | "check" | "extent" | "enumerate-stats") as op) ->
      Hpl_obs.span "serve.request"
        ~args:(fun () -> [ ("op", op) ])
        (fun () -> handle_query t ~id ~op req)
  | Some op ->
      err_reply t ~id
        (Printf.sprintf
           "unknown op %S (expected \
            knows|check|extent|enumerate-stats|server-stats|shutdown)"
           op)

let handle_line t line =
  let reply =
    match Json.parse line with
    | Error m ->
        t.c.errors <- t.c.errors + 1;
        Hpl_obs.count "server.bad_frames" 1;
        Json.Obj
          [
            ("id", Json.Null);
            ("ok", Json.Bool false);
            ("exit", Json.Int 2);
            ("error", Json.Str (Printf.sprintf "hpl: malformed frame: %s\n" m));
          ]
    | Ok req -> (
        let id = Option.value (Json.member "id" req) ~default:Json.Null in
        match handle_request t ~id req with
        | reply -> reply
        | exception Bad_request m -> err_reply t ~id m
        | exception e ->
            (* one bad request must not take the daemon down *)
            err_reply t ~id ("internal error: " ^ Printexc.to_string e))
  in
  Json.to_string reply

(* -- transports --------------------------------------------------------- *)

let run_pipe t ic oc =
  let rec loop () =
    if t.stop then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          if String.trim line = "" then loop ()
          else begin
            output_string oc (handle_line t line);
            output_char oc '\n';
            flush oc;
            loop ()
          end
  in
  loop ()

let run_socket t ~path =
  (* a client hanging up mid-reply must be an EPIPE error on the
     connection, not a fatal signal for the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    (if Sys.file_exists path then
       if (Unix.stat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
       else
         failwith
           (Printf.sprintf "--socket %s: exists and is not a socket" path));
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind sock (Unix.ADDR_UNIX path);
       Unix.listen sock 8;
       sock
     with e ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e)
  with
  | exception Failure m -> Error m
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "--socket %s: %s" path (Unix.error_message e))
  | sock ->
      let serve_conn fd =
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try run_pipe t ic oc
         with Sys_error _ | Unix.Unix_error _ -> ());
        (try flush oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let rec accept_loop () =
        if t.stop then ()
        else begin
          (match Unix.accept sock with
          | fd, _ -> serve_conn fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()
