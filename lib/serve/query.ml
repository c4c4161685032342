open Hpl_core
open Hpl_faults
open Hpl_protocols
open Hpl_analysis

(* Internal control flow: every validation failure raises, the public
   entry points catch and return [Error msg]. The messages are the ones
   bin/hpl.ml historically printed via die_usage, verbatim — the CLI
   wraps them back with "hpl: " and exit 2, the server with a JSON
   error reply, and cli_errors.sh pins several of them. *)
exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

type setup = {
  inst : Protocol.instance;
  loaded : Elaborate.loaded option;
  spec : Spec.t;
  base_n : int;
  depth : int;
  budget : Universe.budget;
  view : Trace.t -> Trace.t;
  scenario : Faults.Scenario.t option;
  faults_str : string option;
  src_key : string;
}

(* -- protocol selection ------------------------------------------------ *)

(* Validated [-f] loads, keyed by path, parameters and the FNV-64 of
   the file's bytes. The file is read and hashed on every call, so an
   edit is seen at once; only elaboration and validation are skipped on
   a hit. Errors are never stored, and the table is cleared when it
   reaches [load_memo_cap] entries. *)
let load_memo = Hashtbl.create 16
let load_memo_cap = 64

let load_exn arg =
  let path, vals =
    match String.split_on_char ':' arg with
    | [] -> fail "-f: empty argument"
    | path :: rest ->
        ( path,
          List.map
            (fun s ->
              match int_of_string_opt s with
              | Some v -> v
              | None ->
                  fail "-f %s: parameters must be integers (got %S)" path s)
            rest )
  in
  let src =
    match Elaborate.read_file path with
    | Ok src -> src
    | Error d -> fail "%s" (Diag.to_string d)
  in
  let hash = Fnv.fnv64 src in
  let key = (path, vals, hash) in
  match Hashtbl.find_opt load_memo key with
  | Some r -> r
  | None ->
      let loaded =
        match Elaborate.load_string ~file:path src with
        | Ok l -> l
        | Error d -> fail "%s" (Diag.to_string d)
      in
      let inst =
        match Protocol.instantiate loaded.Elaborate.proto vals with
        | Ok i -> i
        | Error e -> fail "%s: %s" path e
      in
      (match Elaborate.validate loaded (Protocol.values inst) with
      | Ok () -> ()
      | Error d -> fail "%s" (Diag.to_string d));
      (* the cache-key identity of a spec file: path, hash of the very
         bytes elaborated above, and instance name, so editing a spec
         never resurrects a stale cached universe *)
      let src_key =
        Printf.sprintf "file=%s#%s:%s" path (Fnv.hex64 hash)
          (Protocol.instance_name inst)
      in
      let r = (inst, loaded, src_key) in
      if Hashtbl.length load_memo >= load_memo_cap then Hashtbl.reset load_memo;
      Hashtbl.add load_memo key r;
      r

let load arg =
  match load_exn arg with
  | inst, loaded, _ -> Ok (inst, loaded)
  | exception Bad m -> Error m

(* the instance, its elaborated spec when it came from a file, and its
   cache-key identity; a registry instance is pinned by its canonical
   name (params included) *)
let resolve_proto_exn ?proto ?file () =
  match (proto, file) with
  | Some _, Some _ ->
      fail "use either -s (registry) or -f (spec file), not both"
  | None, Some f ->
      let inst, loaded, src_key = load_exn f in
      (inst, Some loaded, src_key)
  | _, None -> (
      let s = Option.value proto ~default:"ping-pong" in
      match Protocol.Registry.parse s with
      | Ok i -> (i, None, Protocol.instance_name i)
      | Error e -> fail "%s" e)

let resolve_proto ?proto ?file () =
  match resolve_proto_exn ?proto ?file () with
  | inst, loaded, _ -> Ok (inst, loaded)
  | exception Bad m -> Error m

(* -- argument validators ----------------------------------------------- *)

let nonneg_int_exn flag s =
  match int_of_string_opt s with
  | Some d when d >= 0 -> d
  | _ -> fail "bad %s %S (want a nonnegative integer)" flag s

let depth_exn = nonneg_int_exn "--depth"

let pos_int_exn flag s =
  match int_of_string_opt s with
  | Some k when k >= 1 -> k
  | _ -> fail "bad %s %S (want a positive integer)" flag s

let finite_float_exn flag sign s =
  let fits v =
    match sign with `Any -> true | `Positive -> v > 0.0 | `Nonneg -> v >= 0.0
  in
  match float_of_string_opt s with
  | Some v when Float.is_finite v && fits v -> v
  | _ ->
      fail "bad %s %S (want a %sfinite number)" flag s
        (match sign with
        | `Any -> ""
        | `Positive -> "positive "
        | `Nonneg -> "nonnegative ")

let max_seconds_exn s =
  match float_of_string_opt s with
  | Some v when v > 0.0 -> v
  | _ -> fail "bad --max-seconds %S (want a positive number)" s

let faults_exn s =
  match Faults.Scenario.parse s with
  | Ok t -> t
  | Error e -> fail "--faults: %s" e

let checked f s = match f s with v -> Ok v | exception Bad m -> Error m
let parse_depth = checked depth_exn
let parse_pos_int flag = checked (pos_int_exn flag)
let parse_nonneg_int flag = checked (nonneg_int_exn flag)
let parse_finite_float flag sign = checked (finite_float_exn flag sign)
let parse_max_seconds = checked max_seconds_exn
let parse_faults = checked faults_exn

(* -- request resolution ------------------------------------------------ *)

let resolve_exn ?proto ?file ?depth:depth_str ?faults:faults_str
    ?max_states:max_states_str ?max_seconds:max_seconds_str () =
  let inst, loaded, src_key = resolve_proto_exn ?proto ?file () in
  let scenario = Option.map faults_exn faults_str in
  let base = Protocol.spec_of inst in
  let base_n = Spec.n base in
  let spec =
    match scenario with
    | None -> base
    | Some t -> (
        match Faults.Scenario.apply t base with
        | Ok s -> s
        | Error e -> fail "--faults: %s" e)
  in
  let depth =
    match depth_str with
    | Some s -> depth_exn s
    | None -> (
        let d = Protocol.depth_of inst in
        match scenario with
        | None -> d
        | Some t -> Faults.Scenario.suggested_depth t d)
  in
  let max_states = Option.map (pos_int_exn "--max-states") max_states_str in
  let max_seconds = Option.map max_seconds_exn max_seconds_str in
  let budget = Universe.budget ?max_states ?max_seconds () in
  (* an explicitly named drop/dup channel must exist in the spec:
     [Scenario.apply] only range-checks pids, so [drop:p0->p2] on a
     3-process ring would silently route a channel that carries no
     message. The static channel graph knows the real channels; reject
     when its scope covers this enumeration depth. *)
  (match scenario with
  | Some t
    when List.exists
           (function
             | Faults.Scenario.Drop (Faults.Scenario.Channel _)
             | Faults.Scenario.Dup (Faults.Scenario.Channel _) ->
                 true
             | _ -> false)
           t -> (
      let g =
        Channel_graph.extract
          ~fuel:(max 1 (min 16 depth))
          ~max_states:60_000 base
      in
      let covered =
        match Channel_graph.scope g with
        | Channel_graph.Exact -> true
        | Channel_graph.Up_to_depth f -> depth <= f
        | Channel_graph.Incomplete -> false
      in
      if covered then
        match
          Faults.Scenario.validate_channels t
            ~channels:(Channel_graph.channels g)
        with
        | Ok () -> ()
        | Error e -> fail "--faults: %s" e)
  | _ -> ());
  let view =
    match scenario with
    | None -> Fun.id
    | Some t -> Faults.Scenario.view t ~n:base_n
  in
  {
    inst;
    loaded;
    spec;
    base_n;
    depth;
    budget;
    view;
    scenario;
    faults_str;
    src_key;
  }

let resolve ?proto ?file ?depth ?faults ?max_states ?max_seconds () =
  match
    resolve_exn ?proto ?file ?depth ?faults ?max_states ?max_seconds ()
  with
  | st -> Ok st
  | exception Bad m -> Error m

let dataflow ~loaded inst =
  match loaded with
  | Some l -> (
      match Dataflow.of_loaded l (Protocol.values inst) with
      | Ok t -> Some t
      | Error _ -> None)
  | None -> Dataflow.of_instance inst

let resolve_reduce st ~mode ?(indep = false) reduce_str =
  match
    match Reduction.mode_of_string reduce_str with
    | Error e -> fail "--reduce: %s" e
    | Ok `None -> Reduction.none
    | Ok rmode ->
        if mode = `Full then
          fail "--reduce %s requires canonical mode (got --mode full)"
            (Reduction.mode_to_string rmode);
        (match (rmode, st.faults_str) with
        | (`Sym | `Full), Some _ ->
            fail
              "--reduce %s cannot be combined with --faults: fault \
               transformers add daemon processes and break the declared \
               automorphisms"
              (Reduction.mode_to_string rmode)
        | _ -> ());
        let r =
          match
            Reduction.resolve rmode ~symmetry:(Protocol.symmetry_of st.inst)
          with
          | Ok r -> r
          | Error e ->
              fail "--reduce %s: %s" (Reduction.mode_to_string rmode) e
        in
        (* a static independence relation describes the fault-free spec
           only: fault transformers add daemon events the analyzer never
           saw, so attach one just when no scenario is in force *)
        if indep && Reduction.uses_por r && st.faults_str = None then
          match Option.bind (dataflow ~loaded:st.loaded st.inst)
                  Dataflow.independence
          with
          | Some ind -> Reduction.with_independence r ind
          | None -> r
        else r
  with
  | r -> Ok r
  | exception Bad m -> Error m

let enumerate ?(mode = `Canonical) st ~reduce =
  Universe.enumerate ~mode ~budget:st.budget ~reduce st.spec ~depth:st.depth

(* -- rendering ---------------------------------------------------------

   Each runner builds the CLI's stdout bytes in a buffer formatter (same
   default margin as std_formatter, and none of the printers below emit
   break hints anyway), so printing [outcome.out] is byte-identical to
   the pre-refactor Format.printf calls. *)

type outcome = { out : string; err : string; code : int }

let exit_violated = 1
let exit_usage = 2
let exit_truncated = 3

let with_buffer f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let r = f fmt in
  Format.pp_print_flush fmt ();
  (Buffer.contents buf, r)

(* Graceful degradation on a truncated universe: the answer computed
   from the explored prefix is printed, then stderr carries the
   truncation notice and the exit code is 3. *)
let finish u ~out ~code =
  match Universe.status u with
  | Universe.Complete -> { out; err = ""; code }
  | Universe.Truncated r ->
      {
        out;
        err =
          Printf.sprintf "hpl: enumeration truncated: %s\n"
            (Universe.reason_to_string r);
        code = exit_truncated;
      }

let run_stats u =
  let out, () =
    with_buffer (fun fmt -> Format.fprintf fmt "%a@." Universe.pp_stats u)
  in
  finish u ~out ~code:0

let run_knows st u =
  let out, () =
    with_buffer @@ fun fmt ->
    Format.fprintf fmt "%a@.@." Universe.pp_stats u;
    match Protocol.atoms_of st.inst with
    | [] ->
        Format.fprintf fmt "(no atoms registered for %s)@."
          (Protocol.instance_name st.inst)
    | atoms ->
        List.iter
          (fun (name, fact) ->
            (* atoms are written against the fault-free system; evaluate
               them through the fault view so they apply unchanged *)
            let fact =
              Prop.make (Prop.name fact) (fun z -> Prop.eval fact (st.view z))
            in
            Format.fprintf fmt "fact %s: %a@." name Prop.pp fact;
            (* the atom's extent once, shared by every process *)
            let ext = Prop.extent u fact in
            (* report the real processes only, not fault daemons *)
            for i = 0 to st.base_n - 1 do
              let p = Pid.of_int i in
              let count =
                Bitset.cardinal (Knowledge.knows_ext u (Pset.singleton p) ext)
              in
              Format.fprintf fmt "  %a knows it in %d / %d computations@."
                Pid.pp p count (Universe.size u)
            done)
          atoms
  in
  finish u ~out ~code:0

let run_check st u f =
  let verdict = ref `Usage_error in
  let out, err =
    with_buffer @@ fun fmt ->
    Format.fprintf fmt "%a@." Universe.pp_stats u;
    Format.fprintf fmt "formula: %a@." Formula.pp f;
    let env name =
      (* formula atoms are fault-free predicates; route them through
         the fault view *)
      Option.map
        (fun b -> Prop.make (Prop.name b) (fun z -> Prop.eval b (st.view z)))
        (Protocol.atom_env st.inst name)
    in
    match Formula.check u ~env f with
    | Error e -> "hpl: " ^ e ^ "\n"
    | Ok `Valid ->
        verdict := `Valid;
        Format.fprintf fmt "VALID at every computation@.";
        ""
    | Ok (`Fails_at z) ->
        verdict := `Fails;
        Format.fprintf fmt "FAILS — witness computation:@.  %a@." Trace.pp z;
        ""
  in
  match !verdict with
  | `Usage_error -> { out; err; code = exit_usage }
  (* a VALID verdict on a truncated universe is not a proof *)
  | `Valid -> finish u ~out ~code:0
  | `Fails -> { out; err = ""; code = exit_violated }

let run_extent st u ~atom =
  let found = ref false in
  let out, err =
    with_buffer @@ fun fmt ->
    Format.fprintf fmt "%a@." Universe.pp_stats u;
    match Protocol.atom_env st.inst atom with
    | None ->
        Printf.sprintf
          "hpl: unknown atom %S for %s (run `hpl list -v` for atoms)\n" atom
          (Protocol.instance_name st.inst)
    | Some fact ->
        found := true;
        let fact =
          Prop.make (Prop.name fact) (fun z -> Prop.eval fact (st.view z))
        in
        let ext = Prop.extent u fact in
        Format.fprintf fmt "atom %s: %d / %d computations@." atom
          (Bitset.cardinal ext) (Universe.size u);
        ""
  in
  if !found then finish u ~out ~code:0 else { out; err; code = exit_usage }
