(* hplbench: the repository benchmark (see README.md).

   --trace 0 times the real hpl binary from outside, one process per CLI
   query or one `hpl serve --pipe` child per round, checks every answer
   against expected.tsv and prints the end-to-end metrics. --trace 1
   runs the same stream through the real program and through a replay
   with a span around each layer call (replay.ml), and prints the
   per-layer metrics. Either way the last stdout line is one JSON object
   with the keys correct, attempted, failed and metrics. Run from the
   root of a checkout, after `dune build` (run.sh does both). *)

open Workload
module Json = Hpl_serve.Json

external now : unit -> float = "hplbench_now"

external wait4 : int -> int * float * int = "hplbench_wait4"
(** exit code (128 + signal when killed), CPU seconds, max RSS in kB *)

(* hplbench is built at _build/default/benchmark/hplbench.exe, beside
   the hpl it measures. Its output (snapshot caches, Chrome traces) goes
   to _build/hplbench, outside dune's build context. *)
let build_dir = Filename.dirname (Filename.dirname Sys.executable_name)
let hpl = Filename.concat build_dir "bin/hpl.exe"
let out_dir = Filename.concat (Filename.dirname build_dir) "hplbench"
let expected_path = "benchmark/expected.tsv"
let timeout_s = 10.0

type kind = Cli | Serve of { max_states : int; snapshots : bool }
type workload = {
  name : string;
  kind : kind;
  round_s : float;  (** a round's length on the machine README.md names *)
}

(* README.md says what each workload stresses and why. *)
let workloads =
  [
    { name = "cli-enumerate"; kind = Cli; round_s = 3.5 };
    { name = "cli-knowledge"; kind = Cli; round_s = 3.0 };
    {
      name = "serve-warm";
      kind = Serve { max_states = 1_000_000; snapshots = false };
      round_s = 1.0;
    };
    {
      name = "serve-churn";
      kind = Serve { max_states = 16_000; snapshots = true };
      round_s = 1.6;
    };
  ]

(* [seconds] buys a whole number of rounds at the workload's nominal
   round length, so every run of a seed does the same work and every
   count repeats exactly. *)
let rounds_for w ~seconds =
  max 1 (int_of_float (Float.round (seconds /. w.round_s)))

let pool_path w = Printf.sprintf "benchmark/pools/%s.txt" w.name

let all_queries () =
  List.concat_map (fun w -> List.map snd (load_pool (pool_path w))) workloads
let cache_dir w = Filename.concat out_dir (w.name ^ "-cache")

(* -- answers ------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      if !failed <= 20 then prerr_endline ("hplbench: FAIL " ^ m))
    fmt

let show q = String.concat " " q.argv

let check_digest expected q ~code ~size ~fnv =
  incr attempted;
  match Hashtbl.find_opt expected (key q) with
  | None -> fail "%s: no reference answer" (show q)
  | Some e ->
      if code <> e.code || size <> e.size || fnv <> e.fnv then
        fail "%s: exit %d, %d computations, stdout %s; want exit %d, %d, %s"
          (show q) code size fnv e.code e.size e.fnv

let size_of out = Option.value (universe_size out) ~default:(-1)

let check expected q ~code ~out =
  check_digest expected q ~code ~size:(size_of out) ~fnv:(fnv out)

(* -- one hpl process per query ------------------------------------------ *)

type proc = {
  code : int;
  out : string;
  wall : float;
  cpu : float;
  rss_kb : int;
}

let chunk = Bytes.create 65536

let select_read fds left =
  match Unix.select fds [] [] left with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Wall time runs from the spawn to the exit with stdout drained. A
   process still running after [timeout_s] is killed. *)
let spawn_wait exe argv =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: argv)) in_r out_w err_w
  in
  List.iter Unix.close [ in_r; in_w; out_w; err_w ];
  let out = Buffer.create 1024 in
  let deadline = t0 +. timeout_s in
  let rec drain fds =
    if fds <> [] then begin
      let left = deadline -. now () in
      if left <= 0.0 then Unix.kill pid Sys.sigkill
      else
        let ready = select_read fds left in
        drain
          (List.filter
             (fun fd ->
               (not (List.mem fd ready))
               ||
               let n = Unix.read fd chunk 0 (Bytes.length chunk) in
               if fd = out_r then Buffer.add_subbytes out chunk 0 n;
               n > 0)
             fds)
    end
  in
  drain [ out_r; err_r ];
  let code, cpu, rss_kb = wait4 pid in
  let wall = now () -. t0 in
  Unix.close out_r;
  Unix.close err_r;
  { code; out = Buffer.contents out; wall; cpu; rss_kb }

let run_hpl = spawn_wait hpl

(* -- an hpl serve child ---------------------------------------------------- *)

type server = {
  pid : int;
  tx : Unix.file_descr;
  rx : Unix.file_descr;
  pending : Buffer.t;
}

exception Lost

let spawn_server w =
  let args =
    match w.kind with
    | Cli -> invalid_arg "spawn_server"
    | Serve { max_states; snapshots } ->
        [ "serve"; "--pipe"; "--max-cached-states"; string_of_int max_states ]
        @ if snapshots then [ "--cache-dir"; cache_dir w ] else []
  in
  let in_r, tx = Unix.pipe ~cloexec:true () in
  let rx, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process hpl (Array.of_list (hpl :: args)) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; tx; rx; pending = Buffer.create 4096 }

let rec recv srv deadline =
  let s = Buffer.contents srv.pending in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear srv.pending;
      Buffer.add_substring srv.pending s (i + 1) (String.length s - i - 1);
      String.sub s 0 i
  | None ->
      let left = deadline -. now () in
      if left <= 0.0 then raise Lost;
      if select_read [ srv.rx ] left <> [] then begin
        let n = Unix.read srv.rx chunk 0 (Bytes.length chunk) in
        if n = 0 then raise Lost;
        Buffer.add_subbytes srv.pending chunk 0 n
      end;
      recv srv deadline

(* One frame out, one reply line back; [Lost] when the child died or
   did not answer within [timeout_s]. *)
let ask srv frame =
  let s = frame ^ "\n" in
  let rec write off =
    if off < String.length s then
      write (off + Unix.write_substring srv.tx s off (String.length s - off))
  in
  (try write 0 with Unix.Unix_error _ -> raise Lost);
  recv srv (now () +. timeout_s)

(* Close the child's input and wait for it. *)
let stop_server srv =
  Unix.close srv.tx;
  let deadline = now () +. timeout_s in
  let rec drain () =
    let left = deadline -. now () in
    if left <= 0.0 then Unix.kill srv.pid Sys.sigkill
    else if select_read [ srv.rx ] left = [] then drain ()
    else
      match Unix.read srv.rx chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | _ -> drain ()
      | exception Unix.Unix_error _ -> ()
  in
  drain ();
  Unix.close srv.rx;
  let code, _, _ = wait4 srv.pid in
  if code <> 0 then fail "hpl serve exited with code %d" code

let read_proc pid file =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" pid file)
    In_channel.input_all

(* The child's peak RSS in kB. Not wait4's ru_maxrss: Linux starts a
   child's ru_maxrss at its parent's peak, carried across exec, and this
   program holds a whole round of replies. VmHWM is the child's own. *)
let proc_hwm_kb pid =
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (read_proc pid "status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* The child's CPU seconds so far, to the nanosecond: the first field
   of /proc/<pid>/schedstat. *)
let proc_cpu pid =
  Scanf.sscanf (read_proc pid "schedstat") "%d" (fun ns -> float ns *. 1e-9)

let counter name c =
  Option.value (Option.bind c (Json.int_member name)) ~default:0

(* Check a reply against the reference; its counters object. *)
let check_reply expected q line ~want_hit =
  match Json.parse line with
  | Error m ->
      incr attempted;
      fail "%s: unreadable reply (%s)" (show q) m;
      None
  | Ok r ->
      let code = Option.value (Json.int_member "exit" r) ~default:(-1) in
      let out = Option.value (Json.str_member "answer" r) ~default:"" in
      check expected q ~code ~out;
      let cache = Json.str_member "cache" r in
      if want_hit && cache <> Some "hit" then
        fail "%s: cache %s, want a hit" (show q)
          (Option.value cache ~default:"-");
      Json.member "counters" r

let warm_server expected srv warm =
  List.fold_left
    (fun _ q ->
      check_reply expected q (ask srv (frame ~id:0 q)) ~want_hit:false)
    None warm

(* -- rounds ------------------------------------------------------------- *)

type round = {
  lat : float array;  (** seconds per query *)
  wall : float;
  cpu : float array;  (** hpl CPU seconds per query *)
  rss_kb : int;
}

let server_counters =
  [ "cache_hit"; "cache_miss"; "evictions"; "snapshot_load"; "bypass" ]

let cli_round expected qs =
  let t0 = now () in
  let runs = Array.map (fun q -> run_hpl q.argv) qs in
  let wall = now () -. t0 in
  Array.iteri (fun i p -> check expected qs.(i) ~code:p.code ~out:p.out) runs;
  {
    lat = Array.map (fun (p : proc) -> p.wall) runs;
    wall;
    cpu = Array.map (fun (p : proc) -> p.cpu) runs;
    rss_kb = Array.fold_left (fun a (p : proc) -> max a p.rss_kb) 0 runs;
  }

(* A round against a newly started daemon, warmed by the warm-up pass:
   the cache starts every round in the same state, so every round's
   hits, misses and loads are the same counts. hpl serve keeps every
   Hpl_obs span it records, so a daemon slows down and grows as it
   ages; a fresh one per round keeps the rounds alike. *)
let serve_round w expected ~warm ~want_hit qs frames =
  let srv = spawn_server w in
  ignore (warm_server expected srv warm);
  let n = Array.length frames in
  let lat = Array.make n 0.0 and cpu = Array.make n 0.0 in
  let replies = Array.make n "" in
  let t0 = now () in
  let cpu_last = ref (proc_cpu srv.pid) in
  (try
     for i = 0 to n - 1 do
       let t = now () in
       replies.(i) <- ask srv frames.(i);
       lat.(i) <- now () -. t;
       let c = proc_cpu srv.pid in
       cpu.(i) <- c -. !cpu_last;
       cpu_last := c
     done
   with Lost ->
     let got =
       Array.fold_left (fun a r -> if r = "" then a else a + 1) 0 replies
     in
     attempted := !attempted + n - got;
     fail "%d queries lost: hpl serve died or stopped answering" (n - got);
     stop_server srv;
     raise Lost);
  let wall = now () -. t0 in
  let rss_kb = proc_hwm_kb srv.pid in
  stop_server srv;
  Array.iteri
    (fun i line -> ignore (check_reply expected qs.(i) line ~want_hit))
    replies;
  { lat; wall; cpu; rss_kb }

(* [n] rounds, or fewer once [limit] seconds have passed (a badly
   slowed build must still finish in time); at least one. *)
let timed_rounds ~n ~limit f =
  let t0 = now () in
  let rec go k acc =
    let acc = f () :: acc in
    if k >= n || now () -. t0 > limit then List.rev acc else go (k + 1) acc
  in
  go 1 []

(* -- set-up ------------------------------------------------------------- *)

type state = {
  pool : (int * query) list;
  expected : (string, expected) Hashtbl.t;
  warm : query list;  (** each template once, in pool order *)
}

let rec dedup seen = function
  | [] -> []
  | q :: r ->
      if List.mem (key q) seen then dedup seen r
      else q :: dedup (key q :: seen) r

let reset_dir d =
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755

(* Pool and reference load, then one pass over every template: through
   fresh processes for the CLI workloads, through a newly spawned
   daemon for the serve ones (the pass fills its cache, and on
   serve-churn writes every snapshot). Wall-clock-budget templates
   bypass the cache, so they are not part of a daemon's warm-up. *)
let setup w =
  (match w.kind with
  | Serve { snapshots = true; _ } -> reset_dir (cache_dir w)
  | _ -> ());
  let t0 = now () in
  let pool = load_pool (pool_path w) in
  let expected = load_expected expected_path in
  check_anchors (all_queries ()) expected;
  List.iter
    (fun (_, q) ->
      if not (Hashtbl.mem expected (key q)) then
        failwith (Printf.sprintf "%s: no reference answer" (show q)))
    pool;
  let templates = dedup [] (List.map snd pool) in
  match w.kind with
  | Cli ->
      List.iter
        (fun q ->
          let p = run_hpl q.argv in
          check expected q ~code:p.code ~out:p.out)
        templates;
      (now () -. t0, { pool; expected; warm = templates })
  | Serve _ ->
      let warm = List.filter (fun q -> q.max_seconds = None) templates in
      let srv = spawn_server w in
      ignore (warm_server expected srv warm);
      let dt = now () -. t0 in
      stop_server srv;
      (dt, { pool; expected; warm })

let stream st ~seed =
  let qs = round ~seed st.pool in
  (qs, Array.mapi (fun i q -> frame ~id:(i + 1) q) qs)

let run_round w st qs frames =
  match w.kind with
  | Cli -> cli_round st.expected qs
  | Serve _ ->
      serve_round w st.expected ~warm:st.warm
        ~want_hit:(w.name = "serve-warm") qs frames

(* -- reporting ---------------------------------------------------------- *)

type metric = {
  name : string;
  unit : string;
  value : float;
  values : float list;  (** per round, or per pass *)
}

let metric name unit values = { name; unit; value = median values; values }

(* A table on stderr (with each metric's spread over rounds), then the
   result line on stdout. *)
let report metrics =
  List.iter
    (fun m ->
      Printf.eprintf "hplbench: %-28s %14.6g %-6s spread %5.1f%%  [%s]\n"
        m.name m.value m.unit
        (100.0 *. spread m.values)
        (String.concat " " (List.map (Printf.sprintf "%.6g") m.values)))
    metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj
                         [
                           ("value", Json.Float m.value);
                           ("unit", Json.Str m.unit);
                         ]
                     ))
                   metrics) );
          ]))

let sum a = Array.fold_left ( +. ) 0.0 a

(* The fastest time of every unit of identical work, given to each of
   its elements of [f r]; [unit_of i] names the unit of element i. This
   VM's speed swings by up to a half for seconds at a time (other
   tenants' load), and a slow stretch only ever adds time. *)
let fastest ~unit_of rounds f =
  let best = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      Array.iteri
        (fun i x ->
          match Hashtbl.find_opt best (unit_of i) with
          | Some y when y <= x -> ()
          | _ -> Hashtbl.replace best (unit_of i) x)
        (f r))
    rounds;
  Array.init
    (Array.length (f (List.hd rounds)))
    (fun i -> Hashtbl.find best (unit_of i))

(* Each metric's value comes from the fastest time of every unit of
   identical work (see [unit_of] in run_e2e); the per-round values,
   computed from a single round, are only shown on stderr. *)
let e2e_metrics ~setup_times ~unit_of rounds =
  let fastest = fastest ~unit_of rounds in
  let lat = fastest (fun r -> r.lat) in
  let n = float (Array.length lat) in
  let per f = List.map f rounds in
  let pct name q =
    {
      name;
      unit = "ms";
      value = 1000.0 *. percentile q lat;
      values = per (fun r -> 1000.0 *. percentile q r.lat);
    }
  in
  [
    metric "setup_s" "s" setup_times;
    pct "query_p50_ms" 0.50;
    pct "query_p90_ms" 0.90;
    pct "query_p99_ms" 0.99;
    {
      name = "queries_per_s";
      unit = "1/s";
      value = n /. sum lat;
      values = per (fun r -> n /. r.wall);
    };
    {
      name = "cpu_ms_per_query";
      unit = "ms";
      value = 1000.0 *. sum (fastest (fun r -> r.cpu)) /. n;
      values = per (fun r -> 1000.0 *. sum r.cpu /. n);
    };
    metric "peak_rss_mb" "MB" (per (fun r -> float r.rss_kb /. 1024.0));
  ]

(* A set-up from scratch before every round: the machine's speed
   stays in one state for seconds at a time, so setup_s samples the
   whole run, not its first second. *)
let run_e2e (w : workload) ~seed ~seconds =
  let runs =
    timed_rounds ~n:(rounds_for w ~seconds) ~limit:(1.15 *. seconds) (fun () ->
        let dt, st = setup w in
        let qs, frames = stream st ~seed in
        (dt, qs, run_round w st qs frames))
  in
  let _, qs, _ = List.hd runs in
  let rounds = List.map (fun (_, _, r) -> r) runs in
  (* A unit of identical work: a template on a CLI workload, since a
     fresh process does the same work wherever it sits in the round; a
     position in the round on a serve workload, since the daemon's
     cache and heap depend on what came before, and every round replays
     the same sequence. *)
  let unit_of =
    match w.kind with Cli -> fun i -> key qs.(i) | Serve _ -> string_of_int
  in
  Printf.eprintf "hplbench: %s seed %d: %d rounds of %d queries\n" w.name seed
    (List.length rounds) (Array.length qs);
  report
    (e2e_metrics ~setup_times:(List.map (fun (dt, _, _) -> dt) runs) ~unit_of
       rounds)

(* -- traced run --------------------------------------------------------- *)

(* Per-name call count and total seconds, and the seconds in spans
   directly under a query's root span. *)
let layer_totals spans =
  let roots = Hashtbl.create 1024 and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Replay.span) ->
      if s.parent < 0 then Hashtbl.replace roots s.id ())
    spans;
  let attributed = ref 0.0 in
  List.iter
    (fun (s : Replay.span) ->
      let d = s.t1 -. s.t0 in
      let c, t =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0)
      in
      Hashtbl.replace tbl s.name (c + 1, t +. d);
      if Hashtbl.mem roots s.parent then attributed := !attributed +. d)
    spans;
  (tbl, !attributed)

let per_call tbl name scale =
  match Hashtbl.find_opt tbl name with
  | Some (c, t) when c > 0 -> scale *. t /. float c
  | _ -> 0.0

let total tbl name =
  match Hashtbl.find_opt tbl name with Some (_, t) -> t | None -> 0.0

let write_chrome_trace (w : workload) ~seed spans =
  let t0 =
    List.fold_left (fun a (s : Replay.span) -> Float.min a s.t0) infinity spans
  in
  let us t = Json.Float (Float.round (t *. 1e7) /. 10.0) in
  let ev (s : Replay.span) =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us (s.t0 -. t0));
        ("dur", us (s.t1 -. s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("query", Json.Int s.qid);
            ] );
      ]
  in
  let path =
    Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj [ ("traceEvents", Json.List (List.map ev spans)) ])));
  Printf.eprintf "hplbench: wrote %s (%d spans)\n" path (List.length spans)

(* One query through the in-process replay; its seconds. *)
let replay_in expected ~traced i q run =
  Replay.tracing := traced;
  Replay.qid := i;
  let t0 = now () in
  let r = match run () with o -> Ok o | exception Failure m -> Error m in
  let dt = now () -. t0 in
  Replay.tracing := false;
  Replay.qid := -1;
  (match r with
  | Ok (o : Hpl_serve.Query.outcome) ->
      check expected q ~code:o.code ~out:o.out
  | Error m ->
      incr attempted;
      fail "%s: in-process replay: %s" (show q) m);
  dt

(* The replay of a CLI query runs in a fresh process of this program
   (--replay), as the hpl process it stands for does: a fresh process
   pays for growing its heap, which a long-lived one does not. It
   reports the digest of its answer, its time and its spans. *)
let replay_main ~traced argv =
  let q = parse_argv argv in
  Replay.tracing := traced;
  Replay.qid := 0;
  let t0 = now () in
  let o = Replay.cli_query q in
  let dt = now () -. t0 in
  Replay.tracing := false;
  let { Hpl_serve.Query.code; out; _ } = o in
  Printf.printf "%d\t%d\t%s\t%.9f\t%d\n" code (size_of out) (fnv out) dt
    !Replay.states;
  List.iter
    (fun (s : Replay.span) ->
      Printf.printf "%s\t%d\t%d\t%.9f\t%.9f\n" s.name s.id s.parent s.t0 s.t1)
    (Replay.take_spans ())

let replay_cli expected ~traced i q =
  let p =
    spawn_wait Sys.executable_name
      ("--replay" :: (if traced then "1" else "0") :: "--" :: q.argv)
  in
  let lost () =
    incr attempted;
    fail "%s: replay process exited %d" (show q) p.code;
    0.0
  in
  match String.split_on_char '\n' p.out with
  | head :: spans when p.code = 0 -> (
      match String.split_on_char '\t' head with
      | [ code; size; digest; secs; states ] ->
          check_digest expected q ~code:(int_of_string code)
            ~size:(int_of_string size) ~fnv:digest;
          let base = !Replay.next_id in
          List.iter
            (fun l ->
              match String.split_on_char '\t' l with
              | [ name; id; parent; t0; t1 ] ->
                  let id = base + int_of_string id
                  and parent = int_of_string parent in
                  Replay.next_id := max !Replay.next_id (id + 1);
                  Replay.spans :=
                    {
                      Replay.id;
                      name;
                      t0 = float_of_string t0;
                      t1 = float_of_string t1;
                      parent = (if parent < 0 then -1 else base + parent);
                      qid = i;
                    }
                    :: !Replay.spans
              | _ -> ())
            spans;
          Replay.states := !Replay.states + int_of_string states;
          float_of_string secs
      | _ -> lost ())
  | _ -> lost ()

(* The ways one traced pass runs a query, each returning its seconds
   with the answer checked: [ext] through the real program, [base]
   through an untraced path in this program, [traced] through the
   traced replay. [base] is Serve.handle_line for a serve workload, and
   the untraced replay for a CLI one. *)
type side = {
  prepare : unit -> unit;  (** untimed, before every pass *)
  ext : int -> query -> float;
  base : int -> query -> float;
  traced : int -> query -> float;
  counts : unit -> (string * (string * int) list) list;
      (** cumulative cache counters of every server, by server *)
  finish : unit -> unit;
}

let cli_side expected =
  {
    prepare = ignore;
    ext =
      (fun _ q ->
        let p = run_hpl q.argv in
        check expected q ~code:p.code ~out:p.out;
        p.wall);
    base = replay_cli expected ~traced:false;
    traced = replay_cli expected ~traced:true;
    counts = (fun () -> []);
    finish = ignore;
  }

(* Three servers see the same frames in the same order: an hpl serve
   child (a fresh one each pass, as in the untraced rounds), a Serve.t
   in this process and the traced replay's server, so all three caches
   go through the same states. The in-process ones snapshot into a
   directory of their own. *)
let serve_side (w : workload) st frames ~max_states ~snapshots =
  let expected = st.expected and want_hit = w.name = "serve-warm" in
  let daemon = ref None in
  let stop () = Option.iter stop_server !daemon in
  let dir =
    if snapshots then begin
      let d = Filename.concat out_dir (w.name ^ "-trace-cache") in
      reset_dir d;
      Some d
    end
    else None
  in
  let rs = Replay.server ~max_states ~dir in
  let warm_replay () =
    List.iter
      (fun q ->
        ignore
          (replay_in expected ~traced:!Replay.tracing (-1) q (fun () ->
               Replay.serve_query rs q (frame ~id:0 q))))
      st.warm
  in
  (* the first warm-up writes the snapshots; its spans are kept *)
  Replay.tracing := true;
  warm_replay ();
  Replay.tracing := false;
  let srv =
    Hpl_serve.Serve.create
      { Hpl_serve.Serve.max_cached_states = max_states; cache_dir = dir }
  in
  let last = ref None in
  let pick c = List.map (fun k -> (k, List.assoc k c)) server_counters in
  ( {
      prepare =
        (fun () ->
          stop ();
          let d = spawn_server w in
          daemon := Some d;
          last := warm_server expected d st.warm;
          List.iter
            (fun q ->
              ignore
                (check_reply expected q
                   (Hpl_serve.Serve.handle_line srv (frame ~id:0 q))
                   ~want_hit:false))
            st.warm;
          warm_replay ());
      ext =
        (fun i q ->
          let t0 = now () in
          let r = ask (Option.get !daemon) frames.(i) in
          let dt = now () -. t0 in
          last := check_reply expected q r ~want_hit;
          dt);
      base =
        (fun i q ->
          let t0 = now () in
          let r = Hpl_serve.Serve.handle_line srv frames.(i) in
          let dt = now () -. t0 in
          ignore (check_reply expected q r ~want_hit);
          dt);
      traced =
        (fun i q ->
          replay_in expected ~traced:true i q (fun () ->
              Replay.serve_query rs q frames.(i)));
      counts =
        (fun () ->
          [
            ( "hpl serve",
              List.map (fun k -> (k, counter k !last)) server_counters );
            ("Serve.handle_line", pick (Hpl_serve.Serve.counters srv));
            ("the replay", pick (Replay.counters rs));
          ]);
      finish = stop;
    },
    Replay.take_spans () )

(* What one traced pass measured, seconds summed over the round. *)
type pass = {
  ext : float;
  base : float;
  traced : float;
  states : int;
  tbl : (string, int * float) Hashtbl.t;
  attributed : float;
  spans : Replay.span list;
}

(* Every query of the round, back to back, through the three paths of
   [side]. Interleaving them one query at a time keeps drift in the
   machine's speed out of their differences. *)
let traced_pass side qs =
  side.prepare ();
  let c0 = side.counts () in
  Replay.states := 0;
  let ext = ref 0.0 and base = ref 0.0 and traced = ref 0.0 in
  Array.iteri
    (fun i q ->
      ext := !ext +. side.ext i q;
      base := !base +. side.base i q;
      traced := !traced +. side.traced i q)
    qs;
  let deltas =
    List.map2
      (fun (who, a) (_, b) ->
        (who, List.map2 (fun (k, x) (_, y) -> (k, y - x)) a b))
      c0 (side.counts ())
  in
  (match deltas with
  | (ref_who, ref_counts) :: others ->
      List.iter
        (fun (who, cs) ->
          List.iter2
            (fun (k, want) (_, got) ->
              if got <> want then
                fail "%s counted %s %d, %s %d" who k got ref_who want)
            ref_counts cs)
        others
  | [] -> ());
  let spans = Replay.take_spans () in
  let tbl, attributed = layer_totals spans in
  ( {
      ext = !ext;
      base = !base;
      traced = !traced;
      states = !Replay.states;
      tbl;
      attributed;
      spans;
    },
    match deltas with (_, c) :: _ -> c | [] -> [] )

let run_trace (w : workload) ~seed ~seconds =
  let _, st = setup w in
  let qs, frames = stream st ~seed in
  let expected = st.expected in
  (* probes *)
  let spawn_s = median (List.init 20 (fun _ -> (run_hpl [ "list" ]).wall)) in
  let files =
    match
      List.sort_uniq compare (List.filter_map (fun (_, q) -> q.file) st.pool)
    with
    | [] -> [ "corpus/specs/ring.hpl" ]
    | fs -> fs
  in
  let dsl_load_s = mean (List.map (Replay.load_s ~reps:10) files) in
  let dsl_ratio = Replay.dsl_over_builtin ~reps:5 in
  let size q = (Hashtbl.find expected (key q)).size in
  let largest =
    List.fold_left
      (fun a (_, q) -> if size q > size a then q else a)
      (snd (List.hd st.pool)) st.pool
  in
  let heap_mb = Replay.heap_mb largest in
  let side, warm_spans =
    match w.kind with
    | Cli -> (cli_side expected, [])
    | Serve { max_states; snapshots } ->
        serve_side w st frames ~max_states ~snapshots
  in
  (* a traced pass runs the round about three times over *)
  let passes =
    timed_rounds
      ~n:(rounds_for w ~seconds:(seconds /. 3.0))
      ~limit:(1.15 *. seconds)
      (fun () -> traced_pass side qs)
  in
  side.finish ();
  let last, _ = List.hd (List.rev passes) in
  write_chrome_trace w ~seed (warm_spans @ last.spans);
  (* per-layer metrics: medians over the passes *)
  let n = float (Array.length qs) in
  let over f = List.map (fun (p, _) -> f p) passes in
  let call name scale = over (fun p -> per_call p.tbl name scale) in
  let frac names =
    over (fun p ->
        List.fold_left (fun a nm -> a +. total p.tbl nm) 0.0 names
        /. p.attributed)
  in
  let count k =
    List.map
      (fun (_, c) -> float (Option.value (List.assoc_opt k c) ~default:0))
      passes
  in
  (* outside the layers: process start for the CLI; for the server the
     pipe, the client and whatever the daemon does beyond handle_line *)
  let served = w.kind <> Cli in
  let sum f = List.fold_left (fun a (p, _) -> a +. f p) 0.0 passes in
  let ext = sum (fun p -> p.ext) in
  let attributed = sum (fun p -> p.attributed) in
  let outside =
    if served then ext -. sum (fun p -> p.base)
    else float (List.length passes) *. n *. spawn_s
  in
  let unattributed = Float.abs (ext -. (outside +. attributed)) /. ext in
  if unattributed > 0.15 then
    fail "the layers account for %.1f%% of the end-to-end time, want 85%%"
      (100.0 *. (1.0 -. unattributed));
  let save_tbl, _ = layer_totals warm_spans in
  let one name unit v = metric name unit [ v ] in
  report
    [
      one "hpl.spawn_ms" "ms" (1e3 *. spawn_s);
      one "dsl.load_ms" "ms" (1e3 *. dsl_load_s);
      metric "query.resolve_us" "us" (call "query.resolve" 1e6);
      metric "enumerate.ms" "ms" (call "enumerate" 1e3);
      metric "enumerate.states" "count" (over (fun p -> float p.states));
      metric "enumerate.states_per_s" "1/s"
        (over (fun p ->
             let t = total p.tbl "enumerate" in
             if t > 0.0 then float p.states /. t else 0.0));
      one "enumerate.dsl_over_builtin" "ratio" dsl_ratio;
      one "enumerate.heap_mb" "MB" heap_mb;
      metric "enumerate.frac" "ratio" (frac [ "enumerate" ]);
      metric "eval.knows_ms" "ms" (call "eval.knows" 1e3);
      metric "eval.check_ms" "ms" (call "eval.check" 1e3);
      metric "eval.extent_ms" "ms" (call "eval.extent" 1e3);
      metric "eval.frac" "ratio"
        (frac [ "eval.knows"; "eval.check"; "eval.extent"; "eval.enumerate" ]);
      metric "json.parse_us" "us" (call "json.parse" 1e6);
      metric "json.print_us" "us" (call "json.print" 1e6);
      metric "serve.handle_us" "us"
        (over (fun p -> if served then 1e6 *. p.base /. n else 0.0));
      metric "serve.pipe_us" "us"
        (over (fun p -> if served then 1e6 *. (p.ext -. p.base) /. n else 0.0));
      metric "cache.hits" "count" (count "cache_hit");
      metric "cache.misses" "count" (count "cache_miss");
      metric "cache.evictions" "count" (count "evictions");
      metric "cache.hit_ratio" "ratio"
        (List.map2
           (fun h m -> if h +. m > 0.0 then h /. (h +. m) else 0.0)
           (count "cache_hit") (count "cache_miss"));
      metric "snapshot.loads" "count" (count "snapshot_load");
      metric "snapshot.load_ms" "ms" (call "snapshot.load" 1e3);
      one "snapshot.save_ms" "ms" (per_call save_tbl "snapshot.save" 1e3);
      one "trace.unattributed_frac" "ratio" unattributed;
      metric "trace.overhead_frac" "ratio"
        (over (fun p -> (p.traced -. p.base) /. p.base));
      one "failed_frac" "ratio" (float !failed /. float (max 1 !attempted));
    ]

(* -- smoke and record --------------------------------------------------- *)

(* Every workload's set-up (which checks each template once) and its
   first three queries: a quick check that the binary, the pools and the
   reference answers agree. Silent unless a check fails. *)
let smoke ~seed =
  List.iter
    (fun w ->
      let _, st = setup w in
      let qs, frames = stream st ~seed in
      ignore (run_round w st (Array.sub qs 0 3) (Array.sub frames 0 3)))
    workloads

(* Rewrite expected.tsv from the current binary: run with care, the
   file is the benchmark's definition of a correct answer. *)
let record () =
  let templates = dedup [] (all_queries ()) in
  let lines =
    List.map
      (fun q ->
        let p = run_hpl q.argv in
        match universe_size p.out with
        | None -> failwith (Printf.sprintf "%s: no universe line" (show q))
        | Some size ->
            String.concat "\t"
              (string_of_int p.code :: string_of_int size :: fnv p.out
             :: q.argv))
      templates
  in
  Out_channel.with_open_bin expected_path (fun oc ->
      output_string oc
        "# exit code, universe size, FNV-1a-64 of stdout, hpl arguments; \
         written by hplbench --record\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  check_anchors templates (load_expected expected_path);
  Printf.eprintf "hplbench: recorded %d reference answers in %s\n"
    (List.length lines) expected_path

(* -- main --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and mode = ref `Run and rest = ref [] in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N seed of the query stream");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " quick self-check");
      ( "--record",
        Arg.Unit (fun () -> mode := `Record),
        " rewrite expected.tsv" );
      ( "--replay",
        Arg.Int (fun t -> mode := `Replay (t = 1)),
        "0|1 replay the hpl query after -- in this process (used by --trace)" );
      ( "--",
        Arg.Rest_all (fun l -> rest := l),
        "ARGS the hpl query for --replay" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hplbench --workload NAME --seed N --seconds S --trace 0|1";
  let die m =
    prerr_endline ("hplbench: " ^ m);
    exit 2
  in
  if not (Sys.file_exists hpl) then die (hpl ^ " is missing: run dune build");
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  match
    match !mode with
    | `Record -> record ()
    | `Replay traced -> replay_main ~traced !rest
    | `Smoke -> smoke ~seed:!seed
    | `Run -> (
        match
          List.find_opt (fun (w : workload) -> w.name = !workload) workloads
        with
        | None ->
            die
              (Printf.sprintf "unknown workload %S (want %s)" !workload
                 (String.concat ", "
                    (List.map (fun (w : workload) -> w.name) workloads)))
        | Some w -> (
            if !seconds <= 0.0 then die "--seconds must be positive";
            match !trace with
            | 0 -> run_e2e w ~seed:!seed ~seconds:!seconds
            | 1 -> run_trace w ~seed:!seed ~seconds:!seconds
            | _ -> die "--trace takes 0 or 1"))
  with
  | () -> if !failed > 0 then exit 1
  | exception (Failure m | Sys_error m) -> die m
  | exception Lost -> exit 1

