(* Query templates, frozen pools, reference answers, seeded streams and
   the statistics both the end-to-end runner and the traced replay use. *)

(* -- queries ------------------------------------------------------------ *)

(* One pool line: an [hpl] command line and the fields the server frame
   and the in-process replay need from it. *)
type query = {
  argv : string list;  (** the hpl arguments, without the program *)
  op : string;  (** enumerate | knows | check | extent *)
  proto : string option;
  file : string option;
  depth : string option;
  faults : string option;
  reduce : string option;
  max_seconds : string option;
  arg : string option;  (** the formula of [check], the atom of [extent] *)
}

(* The reference table is keyed by the exact argument list. *)
let key q = String.concat "\t" q.argv

let parse_argv argv =
  let bad fmt =
    Printf.ksprintf
      (fun m -> failwith (Printf.sprintf "%s: %s" (String.concat " " argv) m))
      fmt
  in
  match argv with
  | (("enumerate" | "knows" | "check" | "extent") as op) :: rest ->
      let rec go q = function
        | [] -> q
        | "-s" :: v :: r -> go { q with proto = Some v } r
        | "-f" :: v :: r -> go { q with file = Some v } r
        | "-d" :: v :: r -> go { q with depth = Some v } r
        | "--faults" :: v :: r -> go { q with faults = Some v } r
        | "--reduce" :: v :: r -> go { q with reduce = Some v } r
        | "--max-seconds" :: v :: r -> go { q with max_seconds = Some v } r
        | a :: r when q.arg = None && a <> "" && a.[0] <> '-' ->
            go { q with arg = Some a } r
        | a :: _ -> bad "unexpected argument %S" a
      in
      let q =
        go
          {
            argv;
            op;
            proto = None;
            file = None;
            depth = None;
            faults = None;
            reduce = None;
            max_seconds = None;
            arg = None;
          }
          rest
      in
      if (op = "check" || op = "extent") <> (q.arg <> None) then
        bad "check and extent take exactly one positional argument";
      q
  | _ -> bad "want enumerate, knows, check or extent"

(* The server's name for the operation; the rest of a frame carries
   the CLI's flags under their long names. *)
let serve_op q = if q.op = "enumerate" then "enumerate-stats" else q.op

let frame ~id q =
  let open Hpl_serve.Json in
  let opt k = function None -> [] | Some v -> [ (k, Str v) ] in
  to_string
    (Obj
       ([ ("id", Int id); ("op", Str (serve_op q)) ]
       @ opt "protocol" q.proto @ opt "file" q.file @ opt "depth" q.depth
       @ opt "faults" q.faults @ opt "reduce" q.reduce
       @ opt "max-seconds" q.max_seconds
       @ opt (if q.op = "check" then "formula" else "atom") q.arg))

(* The flags that pick the universe a query runs on; a wall-clock budget
   only changes whether the server's cache is consulted. *)
let universe q =
  let flag name = function None -> [] | Some v -> [ name; v ] in
  String.concat " "
    (flag "-s" q.proto @ flag "-f" q.file @ flag "-d" q.depth
    @ flag "--faults" q.faults @ flag "--reduce" q.reduce)

(* -- files -------------------------------------------------------------- *)

let data_lines path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')

(* A pool line is [count<TAB>hpl argument<TAB>...]: the template appears
   [count] times in every round. *)
let load_pool path =
  List.map
    (fun line ->
      match String.split_on_char '\t' line with
      | count :: (_ :: _ as argv) -> (
          match int_of_string_opt count with
          | Some c when c >= 1 -> (c, parse_argv argv)
          | _ -> failwith (Printf.sprintf "%s: bad count %S" path count))
      | _ -> failwith (Printf.sprintf "%s: bad line %S" path line))
    (data_lines path)

type expected = { code : int; size : int; fnv : string }

(* [exit<TAB>size<TAB>fnv64 of stdout<TAB>hpl argument<TAB>...] *)
let load_expected path =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | code :: size :: fnv :: (_ :: _ as argv) -> (
          match (int_of_string_opt code, int_of_string_opt size) with
          | Some code, Some size ->
              Hashtbl.replace tbl (String.concat "\t" argv) { code; size; fnv }
          | _ -> failwith (Printf.sprintf "%s: bad line %S" path line))
      | _ -> failwith (Printf.sprintf "%s: bad line %S" path line))
    (data_lines path);
  tbl

let fnv s = Hpl_serve.Fnv.hex64 (Hpl_serve.Fnv.fnv64 s)

(* The first stdout line of every universe query is
   "universe: N computations, ...". *)
let universe_size out =
  match String.index_opt out ' ' with
  | Some i when String.starts_with ~prefix:"universe: " out -> (
      let rest = String.sub out (i + 1) (String.length out - i - 1) in
      match String.index_opt rest ' ' with
      | Some j -> int_of_string_opt (String.sub rest 0 j)
      | None -> None)
  | _ -> None

(* Universe sizes known independently of this benchmark (the ring and
   quorum ones are in README.md and DESIGN.md): a reference file that
   disagrees with them was recorded from a broken build. *)
let anchors =
  [
    ("-s chatter:3 -d 6", 1067);
    ("-s ring:6 -d 9", 9958);
    ("-s ring:6 -d 9 --reduce sym", 1670);
    ("-s quorum -d 9", 144);
  ]

let check_anchors pools expected =
  List.iter
    (fun (u, size) ->
      let hits =
        List.filter_map
          (fun q ->
            if universe q = u then Hashtbl.find_opt expected (key q) else None)
          pools
      in
      if hits = [] then
        failwith (Printf.sprintf "no reference answer covers anchor %s" u);
      List.iter
        (fun e ->
          if e.size <> size then
            failwith
              (Printf.sprintf "reference size for %s is %d, anchor says %d" u
                 e.size size))
        hits)
    anchors

(* -- seeded streams ----------------------------------------------------- *)

(* splitmix64, so a seed names the same stream on every OCaml version *)
let rng seed =
  let s = ref (Int64.of_int seed) in
  fun bound ->
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    let z = !s in
    let mix z k m = Int64.(mul (logxor z (shift_right_logical z k)) m) in
    let z = mix z 30 0xBF58476D1CE4E5B9L in
    let z = mix z 27 0x94D049BB133111EBL in
    let z = Int64.(logxor z (shift_right_logical z 31)) in
    Int64.(to_int (unsigned_rem z (of_int bound)))

let shuffle ~seed pool =
  let a =
    Array.of_list
      (List.concat_map (fun (c, q) -> List.init c (fun _ -> q)) pool)
  in
  let next = rng seed in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One round: every template as many times as its count. The order in
   which the round asks for universes (and bypasses the cache) is
   frozen, the shuffle of seed 0: on serve-churn it fixes the cache's
   hits, misses and evictions, and another order moves those, and every
   metric with them, by several percent. The seed deals the queries on
   each universe to that universe's slots. *)
let round ~seed pool =
  let slot q = (universe q, q.max_seconds <> None) in
  let dealt = Hashtbl.create 64 in
  Array.iter
    (fun q ->
      match Hashtbl.find_opt dealt (slot q) with
      | Some qs -> Queue.push q qs
      | None ->
          let qs = Queue.create () in
          Queue.push q qs;
          Hashtbl.replace dealt (slot q) qs)
    (shuffle ~seed pool);
  Array.map (fun q -> Queue.pop (Hashtbl.find dealt (slot q))) (shuffle ~seed:0 pool)

(* -- statistics --------------------------------------------------------- *)

(* nearest rank *)
let percentile q xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* (max - min) / median over rounds; 0 when the median is 0 *)
let spread xs =
  match xs with
  | [] -> nan
  | _ ->
      let m = median xs in
      let range =
        List.fold_left max neg_infinity xs -. List.fold_left min infinity xs
      in
      if m = 0.0 then 0.0 else range /. m
