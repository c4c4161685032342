(* The in-process replay behind --trace 1. It runs a workload's queries
   through the same public functions bin/hpl.ml and Serve.handle_line
   call, one span around each call into a layer, so the time splits by
   layer. Spans live in this module's own buffer; Hpl_obs stays
   disabled, so the code under the spans is the probe-free program. *)

open Hpl_core
open Hpl_serve
open Workload

external now : unit -> float = "hplbench_now"

let () = Hpl_protocols.Builtins.init ()

(* -- spans -------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** -1 for a query's root span *)
  qid : int;  (** -1 outside the timed queries (warm-up) *)
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let qid = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    current := parent;
    spans := { id; name; t0; t1; parent; qid = !qid } :: !spans;
    r
  end

let take_spans () =
  let s = List.rev !spans in
  spans := [];
  s

(* -- the layers --------------------------------------------------------- *)

(* Exactly the CLI's resolution: formula first, then the setup, then the
   reduction (only [enumerate] attaches static independence). *)
let resolve q =
  let formula =
    match (q.op, q.arg) with
    | "check", Some text -> (
        match Formula.parse text with
        | Ok f -> Some f
        | Error e -> failwith ("parse error: " ^ e))
    | _ -> None
  in
  match
    Query.resolve ?proto:q.proto ?file:q.file ?depth:q.depth ?faults:q.faults
      ?max_seconds:q.max_seconds ()
  with
  | Error e -> failwith e
  | Ok st -> (
      match
        Query.resolve_reduce st ~mode:`Canonical ~indep:(q.op = "enumerate")
          (Option.value q.reduce ~default:"none")
      with
      | Error e -> failwith e
      | Ok reduce -> (st, reduce, formula))

(* computations enumerated by traced calls, for enumerate.states *)
let states = ref 0

let enumerate st ~reduce =
  span "enumerate" (fun () ->
      let u = Query.enumerate st ~reduce in
      if !tracing then states := !states + Universe.size u;
      u)

let eval q st u formula =
  span ("eval." ^ q.op) (fun () ->
      match (q.op, formula, q.arg) with
      | "check", Some f, _ -> Query.run_check st u f
      | "extent", _, Some atom -> Query.run_extent st u ~atom
      | "knows", _, _ -> Query.run_knows st u
      | _ -> Query.run_stats u)

(* One CLI query, as [hpl <argv>] computes it in its own process. *)
let cli_query q =
  span "query" (fun () ->
      let st, reduce, formula = span "query.resolve" (fun () -> resolve q) in
      let u = enumerate st ~reduce in
      eval q st u formula)

(* -- the server path ---------------------------------------------------- *)

(* The server's request path taken apart: the calls Serve.handle_query
   (lib/serve/serve.ml) makes, in the same order, over a cache this
   module owns. It copies only what the spans need; the traced run
   checks its answers and cache counters against Serve.handle_line. *)
type server = {
  cache : Cache.t;
  dir : string option;
  mutable hits : int;
  mutable misses : int;
  mutable loads : int;
  mutable bypasses : int;
}

let server ~max_states ~dir =
  {
    cache = Cache.create ~max_states;
    dir;
    hits = 0;
    misses = 0;
    loads = 0;
    bypasses = 0;
  }

let counters s =
  [
    ("cache_hit", s.hits);
    ("cache_miss", s.misses);
    ("evictions", Cache.evictions s.cache);
    ("snapshot_load", s.loads);
    ("bypass", s.bypasses);
  ]

let obtain s st ~reduce ~key ~bypass =
  if bypass then begin
    s.bypasses <- s.bypasses + 1;
    (enumerate st ~reduce, "bypass", "bypass")
  end
  else
    match span "cache.find" (fun () -> Cache.find s.cache key) with
    | Some u ->
        s.hits <- s.hits + 1;
        (u, "hit", "memory")
    | None ->
        s.misses <- s.misses + 1;
        let fresh () =
          let u = enumerate st ~reduce in
          Option.iter
            (fun dir ->
              span "snapshot.save" (fun () ->
                  ignore (Snapshot.save ~dir ~key u : (unit, string) result)))
            s.dir;
          (u, "enumerated")
        in
        let u, source =
          match s.dir with
          | None -> fresh ()
          | Some dir -> (
              match
                span "snapshot.load" (fun () ->
                    Snapshot.load ~dir ~key st.Query.spec)
              with
              | Ok u ->
                  s.loads <- s.loads + 1;
                  (u, "snapshot")
              | Error _ -> fresh ())
        in
        span "cache.add" (fun () -> Cache.add s.cache key u);
        (u, "miss", source)

let serve_query s q line =
  span "query" (fun () ->
      let req =
        match span "json.parse" (fun () -> Json.parse line) with
        | Ok r -> r
        | Error e -> failwith e
      in
      let id = Option.value (Json.member "id" req) ~default:Json.Null in
      let st, reduce, formula, key =
        span "query.resolve" (fun () ->
            let st, reduce, formula = resolve q in
            (st, reduce, formula, Serve.cache_key st ~mode:`Canonical ~reduce))
      in
      let u, cache, source =
        obtain s st ~reduce ~key ~bypass:(q.max_seconds <> None)
      in
      let o = eval q st u formula in
      (* the reply's fields that carry the answer; printing the answer
         string is most of the real reply's cost *)
      let reply =
        span "json.print" (fun () ->
            Json.to_string
              (Json.Obj
                 [
                   ("id", id);
                   ("exit", Json.Int o.Query.code);
                   ("answer", Json.Str o.Query.out);
                   ("cache", Json.Str cache);
                   ("source", Json.Str source);
                   ("size", Json.Int (Universe.size u));
                 ]))
      in
      ignore (Sys.opaque_identity reply);
      o)

(* -- probes ------------------------------------------------------------- *)

let setup_of q = match resolve q with st, reduce, _ -> (st, reduce)

(* Live heap the universe of [q] keeps, in MB: what a process holding
   the answer pays in memory beyond its code. *)
let heap_mb q =
  let st, reduce = setup_of q in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let u = Query.enumerate st ~reduce in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity u);
  float ((live1 - live0) * (Sys.word_size / 8)) /. 1048576.0

let time f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

(* Median seconds of [Query.load] on a spec file. *)
let load_s ~reps path =
  median (List.init reps (fun _ -> time (fun () -> Query.load path)))

(* The interpreter's cost over compiled rules: the same ring universe
   from corpus/specs/ring.hpl and from the registry, alternated. *)
let dsl_over_builtin ~reps =
  let setup src =
    setup_of (parse_argv (("enumerate" :: src) @ [ "-d"; "8" ]))
  in
  let spec = setup [ "-f"; "corpus/specs/ring.hpl" ]
  and builtin = setup [ "-s"; "ring" ] in
  let run (st, reduce) () = Query.enumerate st ~reduce in
  let ts =
    List.init reps (fun _ ->
        let a = time (run spec) in
        let b = time (run builtin) in
        (a, b))
  in
  median (List.map fst ts) /. median (List.map snd ts)
