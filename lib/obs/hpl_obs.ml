(* Spans, counters, gauges, and three exporters. The design constraint
   is the disabled path: every probe is [if not !enabled then f ()] —
   one load and one branch — so instrumentation can live inside the
   enumeration and knowledge hot paths permanently. *)

let enabled = ref false

type ev =
  | Span of {
      name : string;
      ts : float; (* µs since epoch reset *)
      dur : float; (* µs *)
      args : (string * string) list;
    }
  | Inst of { name : string; ts : float; args : (string * string) list }

let events : ev list ref = ref [] (* reverse chronological-ish; sorted on export *)
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32
let gauges : (string, (float * float) ref) Hashtbl.t = Hashtbl.create 16
(* gauge name -> (last, max) *)
let aggregates : (string, (int * float * float) ref) Hashtbl.t =
  Hashtbl.create 16
(* span name -> (count, total µs, max µs), kept up to date by [push] so
   readback never folds the event list *)

let epoch = ref 0.0
let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let reset () =
  events := [];
  Hashtbl.reset counters;
  Hashtbl.reset gauges;
  Hashtbl.reset aggregates;
  epoch := Unix.gettimeofday ()

let enable () =
  reset ();
  enabled := true

let disable () = enabled := false

let push e =
  events := e :: !events;
  match e with
  | Span { name; dur; _ } -> (
      match Hashtbl.find_opt aggregates name with
      | Some r ->
          let c, tot, mx = !r in
          r := (c + 1, tot +. dur, Float.max mx dur)
      | None -> Hashtbl.add aggregates name (ref (1, dur, Float.max 0.0 dur)))
  | Inst _ -> ()

let span ?args name f =
  if not !enabled then f ()
  else begin
    let t0 = now_us () in
    let record () =
      let dur = now_us () -. t0 in
      let args = match args with None -> [] | Some g -> g () in
      push (Span { name; ts = t0; dur; args })
    in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end

let instant ?(args = []) name =
  if !enabled then push (Inst { name; ts = now_us (); args })

let count name n =
  if !enabled then
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add counters name (ref n)

let set_gauge name v =
  if !enabled then
    match Hashtbl.find_opt gauges name with
    | Some r ->
        let _, mx = !r in
        r := (v, Float.max mx v)
    | None -> Hashtbl.add gauges name (ref (v, v))

(* -- readback --------------------------------------------------------- *)

let counter name =
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0

let gauge_max name =
  Option.map (fun r -> snd !r) (Hashtbl.find_opt gauges name)

let sorted tbl =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* per-name span aggregate: (count, total µs, max µs) *)
let span_aggregate () = sorted aggregates
let find_aggregate name = Option.map ( ! ) (Hashtbl.find_opt aggregates name)

let span_count name =
  match find_aggregate name with Some (c, _, _) -> c | None -> 0

let span_total_us name =
  match find_aggregate name with Some (_, tot, _) -> tot | None -> 0.0

let span_names () = List.map fst (span_aggregate ())

let sorted_counters () = sorted counters
let sorted_gauges () = sorted gauges

(* -- exporters -------------------------------------------------------- *)

let dur_to_string us =
  if us >= 1e6 then Printf.sprintf "%.2f s" (us /. 1e6)
  else if us >= 1e3 then Printf.sprintf "%.2f ms" (us /. 1e3)
  else Printf.sprintf "%.1f µs" us

let stats_table () =
  let b = Buffer.create 512 in
  let spans = span_aggregate () in
  Buffer.add_string b
    (Printf.sprintf "%-36s %7s %12s %12s\n" "span" "count" "total" "max");
  List.iter
    (fun (name, (c, tot, mx)) ->
      Buffer.add_string b
        (Printf.sprintf "  %-34s %7d %12s %12s\n" name c (dur_to_string tot)
           (dur_to_string mx)))
    spans;
  let cs = sorted_counters () in
  if cs <> [] then begin
    Buffer.add_string b (Printf.sprintf "%-36s %12s\n" "counter" "value");
    List.iter
      (fun (name, v) ->
        Buffer.add_string b (Printf.sprintf "  %-34s %12d\n" name v))
      cs
  end;
  let gs = sorted_gauges () in
  if gs <> [] then begin
    Buffer.add_string b (Printf.sprintf "%-36s %12s %12s\n" "gauge" "last" "max");
    List.iter
      (fun (name, (last, mx)) ->
        Buffer.add_string b
          (Printf.sprintf "  %-34s %12.1f %12.1f\n" name last mx))
      gs
  end;
  Buffer.contents b

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* JSON numbers must not be [nan]/[inf]; durations never are, but guard
   anyway so an exporter can't emit unparseable output *)
let num v = if Float.is_finite v then Printf.sprintf "%.1f" v else "0.0"

let stats_json () =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"spans\":[";
  List.iteri
    (fun i (name, (c, tot, mx)) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"name\":%a,\"count\":%d,\"total_us\":%s,\"max_us\":%s}"
        json_string name c (num tot) (num mx))
    (span_aggregate ());
  Buffer.add_string b "],\"counters\":[";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"name\":%a,\"value\":%d}" json_string name v)
    (sorted_counters ());
  Buffer.add_string b "],\"gauges\":[";
  List.iteri
    (fun i (name, (last, mx)) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"name\":%a,\"last\":%s,\"max\":%s}" json_string
        name (num last) (num mx))
    (sorted_gauges ());
  Buffer.add_string b "]}";
  Buffer.contents b

let chrome_args b args =
  if args <> [] then begin
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "%a:%a" json_string k json_string v)
      args;
    Buffer.add_char b '}'
  end

(* recording is single-threaded, so every event sits on track 0 *)
let chrome_trace () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  List.iter
    (fun ev ->
      sep ();
      match ev with
      | Span { name; ts; dur; args } ->
          Printf.bprintf b
            "{\"name\":%a,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":0"
            json_string name (num ts) (num dur);
          chrome_args b args;
          Buffer.add_char b '}'
      | Inst { name; ts; args } ->
          Printf.bprintf b
            "{\"name\":%a,\"ph\":\"i\",\"ts\":%s,\"s\":\"t\",\"pid\":1,\"tid\":0"
            json_string name (num ts);
          chrome_args b args;
          Buffer.add_char b '}')
    (List.rev !events);
  (* counters close the timeline as Chrome counter samples *)
  let t_end = now_us () in
  List.iter
    (fun (name, v) ->
      sep ();
      Printf.bprintf b
        "{\"name\":%a,\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"tid\":0,\"args\":{\"value\":%d}}"
        json_string name (num t_end) v)
    (sorted_counters ());
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let write_profile path =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc ->
      let r =
        match output_string oc (chrome_trace ()) with
        | () -> Ok ()
        | exception Sys_error msg -> Error msg
      in
      close_out_noerr oc;
      r
