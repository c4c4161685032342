(* Microbenchmark entry point.

   Runs bechamel micro-benchmarks on the engineering-critical paths
   (P1-P6 in DESIGN.md): knowledge evaluation, universe enumeration
   (full vs canonical ablation), chain detection, bitsets. The paper
   experiments E1-E21 are their own executable,
   experiments/experiments.exe. *)
open Bechamel
open Toolkit
open Hpl_core

let p0 = Pid.of_int 0

(* -- P1: knows() vs universe size ------------------------------------ *)

let chatter ~n ~k =
  Spec.make ~n (fun p history ->
      if List.length history >= k then []
      else
        let right = Pid.of_int ((Pid.to_int p + 1) mod n) in
        [ Spec.Send_to (right, "c"); Spec.Do "idle"; Spec.Recv_any ])

let knows_bench ~depth =
  let u = Universe.enumerate ~mode:`Canonical (chatter ~n:3 ~k:3) ~depth in
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let ext = Prop.extent u sent in
  let name = Printf.sprintf "knows/U=%d" (Universe.size u) in
  Test.make ~name
    (Staged.stage (fun () -> ignore (Knowledge.knows_ext u (Pset.singleton p0) ext)))

let knows_naive_bench ~depth =
  let u = Universe.enumerate ~mode:`Canonical (chatter ~n:3 ~k:3) ~depth in
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let ext = Prop.extent u sent in
  let name = Printf.sprintf "knows-naive/U=%d" (Universe.size u) in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Knowledge.knows_ext_naive u (Pset.singleton p0) ext)))

(* -- P2: enumeration ablation ----------------------------------------- *)

let enumeration_bench mode name ~depth =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Universe.enumerate ~mode (chatter ~n:3 ~k:2) ~depth)))

(* -- P6: enumeration depth scaling / extent ------------------------------ *)

let enumeration_depth_bench ~depth =
  Test.make
    ~name:(Printf.sprintf "enumerate/depth=%d" depth)
    (Staged.stage (fun () ->
         ignore
           (Universe.enumerate ~mode:`Canonical (chatter ~n:3 ~k:3) ~depth)))

let extent_bench ~depth =
  let u = Universe.enumerate ~mode:`Canonical (chatter ~n:3 ~k:3) ~depth in
  let busy =
    (* deliberately heavier than a field probe, so the row times
       predicate evaluation rather than the loop around it *)
    Prop.make "busy" (fun z ->
        List.length (Universe.canon u z |> Trace.to_list) mod 2 = 0)
  in
  Test.make
    ~name:(Printf.sprintf "extent/U=%d" (Universe.size u))
    (Staged.stage (fun () -> ignore (Prop.extent u busy)))

(* -- P3: chain detection vs trace length ------------------------------- *)

let relay_trace len =
  (* a long causal chain across 4 processes *)
  let n = 4 in
  let rec go k trace send_counts lseqs =
    if k >= len then trace
    else begin
      let src = k mod n and dst = (k + 1) mod n in
      let m =
        Msg.make ~src:(Pid.of_int src) ~dst:(Pid.of_int dst)
          ~seq:send_counts.(src) ~payload:"m"
      in
      send_counts.(src) <- send_counts.(src) + 1;
      let e1 = Event.send ~pid:(Pid.of_int src) ~lseq:lseqs.(src) m in
      lseqs.(src) <- lseqs.(src) + 1;
      let e2 = Event.receive ~pid:(Pid.of_int dst) ~lseq:lseqs.(dst) m in
      lseqs.(dst) <- lseqs.(dst) + 1;
      go (k + 1) (Trace.snoc (Trace.snoc trace e1) e2) send_counts lseqs
    end
  in
  go 0 Trace.empty (Array.make n 0) (Array.make n 0)

let chain_bench hops =
  let z = relay_trace hops in
  let psets = [ Pset.singleton (Pid.of_int 0); Pset.singleton (Pid.of_int 3) ] in
  Test.make
    ~name:(Printf.sprintf "chain/hops=%d" hops)
    (Staged.stage (fun () -> ignore (Chain.exists ~n:4 ~z psets)))

let chain_naive_bench hops =
  let z = relay_trace hops in
  let psets = [ Pset.singleton (Pid.of_int 0); Pset.singleton (Pid.of_int 3) ] in
  Test.make
    ~name:(Printf.sprintf "chain-naive/hops=%d" hops)
    (Staged.stage (fun () -> ignore (Chain.exists_naive ~n:4 ~z psets)))

(* -- P5: bitset algebra --------------------------------------------------- *)

let bitset_bench n =
  let a = Bitset.of_pred n (fun i -> i mod 3 = 0) in
  let b = Bitset.of_pred n (fun i -> i mod 5 = 0) in
  Test.make
    ~name:(Printf.sprintf "bitset/n=%d" n)
    (Staged.stage (fun () -> ignore (Bitset.cardinal (Bitset.inter a b))))

(* -- P7: fault-transformed enumeration (lib/faults daemon routing) ------ *)

let fault_enumeration_bench tag scenario ~depth =
  let s =
    match Hpl_faults.Faults.Scenario.parse scenario with
    | Ok t -> Hpl_faults.Faults.Scenario.apply_exn t (chatter ~n:3 ~k:3)
    | Error e -> failwith e
  in
  Test.make
    ~name:(Printf.sprintf "enumerate/faults=%s/depth=%d" tag depth)
    (Staged.stage (fun () ->
         ignore (Universe.enumerate ~mode:`Canonical s ~depth)))

let formula_bench () =
  let u = Universe.enumerate ~mode:`Canonical (chatter ~n:3 ~k:3) ~depth:6 in
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  let env = function "sent" -> Some sent | _ -> None in
  let f =
    match Formula.parse "AG (sent -> EF (K p1 sent))" with
    | Ok f -> f
    | Error e -> failwith e
  in
  Test.make ~name:"formula/AG-EF-K"
    (Staged.stage (fun () -> ignore (Formula.check u ~env f)))

let replay_bench () =
  let m01 = Msg.make ~src:p0 ~dst:(Pid.of_int 1) ~seq:0 ~payload:"m" in
  let z =
    Trace.of_list
      [
        Event.send ~pid:p0 ~lseq:0 m01;
        Event.internal ~pid:(Pid.of_int 2) ~lseq:0 "a";
        Event.receive ~pid:(Pid.of_int 1) ~lseq:0 m01;
        Event.internal ~pid:p0 ~lseq:1 "b";
        Event.internal ~pid:(Pid.of_int 2) ~lseq:1 "c";
        Event.internal ~pid:(Pid.of_int 1) ~lseq:1 "d";
      ]
  in
  Test.make ~name:"replay/6-event-universe"
    (Staged.stage (fun () -> ignore (Replay.universe_of_trace ~n:3 z)))

(* -- P8: static lint vs enumeration (lib/analysis) ---------------------- *)

let lint_all_bench () =
  Hpl_protocols.Builtins.init ();
  let protos = Hpl_protocols.Protocol.Registry.list () in
  assert (protos <> []);
  Test.make ~name:"lint/all-protocols"
    (Staged.stage (fun () ->
         List.iter
           (fun t ->
             ignore
               (Hpl_analysis.Lint.lint_instance
                  (Hpl_protocols.Protocol.default_instance t)))
           protos))

(* the whole point of the static pass: the same question — "can K p1
   sent ever be gained?" — answered from the channel graph (local
   histories, Theorems 4-5) vs. by enumerating interleavings and
   evaluating knowledge *)
let lint_vs_enumerate_bench which ~depth =
  (* 6 processes: the interleaving universe explodes, the per-process
     local behaviour (histories of length <= 2) does not *)
  let spec = chatter ~n:6 ~k:2 in
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  match which with
  | `Static ->
      let nest =
        match Formula.parse "K p1 sent" with
        | Ok f -> List.hd (Formula.nests f)
        | Error e -> failwith e
      in
      Test.make
        ~name:(Printf.sprintf "lint-vs-enumerate/static/depth=%d" depth)
        (Staged.stage (fun () ->
             let g = Hpl_analysis.Channel_graph.extract ~fuel:depth spec in
             ignore (Hpl_analysis.Chain_check.gain g ~origins:(Some [ 0 ]) nest)))
  | `Enumerate ->
      Test.make
        ~name:(Printf.sprintf "lint-vs-enumerate/enumerate/depth=%d" depth)
        (Staged.stage (fun () ->
             let u = Universe.enumerate ~mode:`Canonical spec ~depth in
             ignore
               (Knowledge.knows_ext u
                  (Pset.singleton (Pid.of_int 1))
                  (Prop.extent u sent))))

(* a function, not a top-level value: several of these tests capture
   prebuilt universes, and keeping them live for the whole process
   would tax every later wall-clock measurement with major-GC work
   proportional to the dead weight *)
let all_tests () =
  Test.make_grouped ~name:"hpl"
    [
      formula_bench ();
      replay_bench ();
      knows_bench ~depth:4;
      knows_bench ~depth:6;
      knows_bench ~depth:8;
      knows_naive_bench ~depth:4;
      enumeration_bench `Full "enumerate/full" ~depth:5;
      enumeration_bench `Canonical "enumerate/canonical" ~depth:5;
      fault_enumeration_bench "drop" "drop:p0->p1" ~depth:6;
      fault_enumeration_bench "crash" "crash-any:1" ~depth:6;
      enumeration_depth_bench ~depth:6;
      enumeration_depth_bench ~depth:7;
      extent_bench ~depth:6;
      lint_vs_enumerate_bench `Static ~depth:5;
      lint_vs_enumerate_bench `Enumerate ~depth:5;
      chain_bench 50;
      chain_bench 200;
      chain_bench 800;
      chain_naive_bench 50;
      chain_naive_bench 200;
      bitset_bench 10_000;
      bitset_bench 100_000;
    ]

(* -- observability phase breakdown -------------------------------------

   One instrumented run of the depth-7 enumeration, reported as extra
   BENCH.json rows so the perf trajectory records where the time goes
   (the per-level passes vs. the final trim), not just the total. *)

(* min-of-N wall-clock timing: every source of scheduler/GC noise
   inflates a run, so the minimum over enough runs is a stable estimate
   of the true cost — observed spread across process invocations is
   under 0.5%, where single bechamel OLS estimates of the same row
   swing by +-25% on a shared machine. The overhead gate records and
   re-measures with this exact function so both sides of the
   comparison share a methodology. *)
let min_time_ns ~runs f =
  ignore (f ());
  (* warm-up: fault in code paths and stabilize the minor heap *)
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
    if dt < !best then best := dt
  done;
  !best

(* [~reduce] is passed explicitly: this row is the seed-parity gate, so
   it must pin the no-reduction path even if the default ever changes *)
let minwall_enumerate () =
  min_time_ns ~runs:15 (fun () ->
      Universe.size
        (Universe.enumerate ~mode:`Canonical ~reduce:Reduction.none
           (chatter ~n:3 ~k:3) ~depth:7))

let minwall_bitset () =
  let a = Bitset.of_pred 10_000 (fun i -> i mod 3 = 0) in
  let b = Bitset.of_pred 10_000 (fun i -> i mod 5 = 0) in
  min_time_ns ~runs:50 (fun () ->
      let acc = ref 0 in
      for _ = 1 to 100 do
        acc := !acc + Bitset.cardinal (Bitset.inter a b)
      done;
      !acc)
  /. 100.

(* the bechamel phase leaves a large, badly fragmented major heap
   behind; without compacting first, the min-wall rows time GC pressure
   instead of enumeration (observed 10-20x inflation on
   allocation-heavy rows) *)
let fresh_heap () = Gc.compact ()

(* the overhead gate's baselines: same rows, min-wall methodology,
   probes disabled *)
let minwall_rows () =
  assert (not !Hpl_obs.enabled);
  fresh_heap ();
  [
    ( "hpl/enumerate/depth=7/disabled-minwall",
      Some (minwall_enumerate ()),
      "ns/run",
      None );
    ("hpl/bitset/n=10000/minwall", Some (minwall_bitset ()), "ns/run", None);
  ]

(* -- reduction layer rows (DESIGN.md §10) -------------------------------

   The depth-wall claim, machine-readable: time AND states explored for
   each reduction mode at depth 9 on the acceptance protocols. The
   [/states] rows carry a count (unit "states", not "ns/run") — they
   record how much smaller the reduced universe is, which is the part
   of the trajectory that survives machine changes. *)
let reduce_rows () =
  fresh_heap ();
  Hpl_protocols.Builtins.init ();
  let instance name =
    match Hpl_protocols.Protocol.Registry.find name with
    | Some p -> Hpl_protocols.Protocol.default_instance p
    | None -> failwith ("bench: protocol not registered: " ^ name)
  in
  let modes inst =
    let g = Hpl_protocols.Protocol.symmetry_of inst in
    (* por+indep: por carrying the abstract interpreter's independence
       relation. Plain por is not a row: without independence it runs
       the unreduced path, so it would time the none row again. Where
       the no-truncation certificate fails at depth 9 the restriction
       never fires and the row must equal none; where it holds
       (quorum: Σ bound = 7) the row must be strictly smaller — that
       strictness is what these rows exist to show, so it is asserted
       below, not just recorded. *)
    let por_indep =
      match
        Option.bind
          (Hpl_analysis.Dataflow.of_instance inst)
          Hpl_analysis.Dataflow.independence
      with
      | Some ind ->
          [ ("por+indep", Reduction.with_independence Reduction.por ind) ]
      | None -> []
    in
    [ ("none", Reduction.none) ]
    @ por_indep
    @ [
        ("sym", Reduction.sym (Option.get g));
        ("full", Reduction.full (Option.get g));
      ]
  in
  List.concat_map
    (fun pname ->
      let inst = instance pname in
      let spec = Hpl_protocols.Protocol.spec_of inst in
      let states_of = Hashtbl.create 8 in
      let rows =
        List.concat_map
          (fun (label, reduce) ->
            let enum () = Universe.enumerate ~reduce spec ~depth:9 in
            let states = Universe.size (enum ()) in
            Hashtbl.replace states_of label states;
            let ns = min_time_ns ~runs:5 (fun () -> Universe.size (enum ())) in
            [
              ( Printf.sprintf "hpl/enumerate/reduce=%s/%s/depth=9" label pname,
                Some ns,
                "ns/run",
                None );
              ( Printf.sprintf "hpl/enumerate/reduce=%s/%s/depth=9/states" label
                  pname,
                Some (float_of_int states),
                "states",
                None );
            ])
          (modes inst)
      in
      (match
         ( Hashtbl.find_opt states_of "none",
           Hashtbl.find_opt states_of "por+indep" )
       with
      | Some n0, Some ni ->
          if ni > n0 then
            failwith
              (Printf.sprintf "bench: %s por+indep grew the universe (%d > %d)"
                 pname ni n0);
          if pname = "quorum" && ni >= n0 then
            failwith
              (Printf.sprintf
                 "bench: quorum por+indep shows no strict reduction (%d vs %d)"
                 ni n0)
      | _ -> ());
      rows)
    [ "ring"; "star-flood"; "quorum" ]

(* -- DSL rows ---------------------------------------------------------------

   What loading a spec from text costs: lex + parse + elaborate +
   validate of the embedded ring.hpl, which is also how the registry's
   ring is defined. *)
let dsl_rows () =
  fresh_heap ();
  let path = "corpus/specs/ring.hpl" in
  let src = List.assoc path Hpl_protocols.Corpus.specs in
  let load () =
    match Hpl_protocols.Elaborate.load_string ~file:path src with
    | Ok l -> l
    | Error d -> failwith (Hpl_protocols.Diag.to_string d)
  in
  [
    ( "hpl/dsl/parse+elaborate/ring",
      Some (min_time_ns ~runs:25 (fun () -> load ())),
      "ns/run",
      None );
  ]

let phase_rows () =
  fresh_heap ();
  Hpl_obs.reset ();
  Hpl_obs.enable ();
  ignore (Universe.enumerate ~mode:`Canonical (chatter ~n:3 ~k:3) ~depth:7);
  Hpl_obs.disable ();
  let rows =
    List.map
      (fun (phase, span) ->
        ( Printf.sprintf "hpl/enumerate/depth=7/phase=%s" phase,
          Some (Hpl_obs.span_total_us span *. 1e3),
          "ns/run",
          None ))
      [
        ("frontier", "enumerate.frontier");
        ("intern", "enumerate.intern");
      ]
  in
  Hpl_obs.reset ();
  rows

(* -- flow rows (lib/analysis/dataflow.ml) --------------------------------

   The acceptance claim of `hpl flow`: one sweep of the abstract
   interpreter over the whole registry (every protocol defined by
   corpus text) plus every corpus spec finishes well under a second —
   the analysis must stay cheap enough to run before every enumeration.
   The /rules row counts how many rules the sweep passed verdicts on,
   so a silently shrinking analysis surface would show in the
   trajectory; a false dead-rule report anywhere fails the bench
   outright. *)
let flow_rows () =
  fresh_heap ();
  Hpl_protocols.Builtins.init ();
  let specs =
    List.map
      (fun (file, src) ->
        match Hpl_protocols.Elaborate.load_string ~file src with
        | Ok l -> l
        | Error d -> failwith (Hpl_protocols.Diag.to_string d))
      Hpl_protocols.Corpus.specs
  in
  let sweep () =
    let rules = ref 0 in
    List.iter
      (fun p ->
        let inst = Hpl_protocols.Protocol.default_instance p in
        match Hpl_analysis.Dataflow.of_instance inst with
        | Some df ->
            if Hpl_analysis.Dataflow.dead_rules df <> [] then
              failwith
                ("bench: false dead-rule report on "
                ^ Hpl_protocols.Protocol.name p);
            rules := !rules + List.length (Hpl_analysis.Dataflow.rules df)
        | None -> ())
      (Hpl_protocols.Protocol.Registry.list ());
    List.iter
      (fun l ->
        match
          Hpl_analysis.Dataflow.of_loaded l
            (Hpl_protocols.Protocol.defaults l.Hpl_protocols.Elaborate.proto)
        with
        | Ok df ->
            rules := !rules + List.length (Hpl_analysis.Dataflow.rules df)
        | Error d -> failwith (Hpl_protocols.Diag.to_string d))
      specs;
    !rules
  in
  let rules = sweep () in
  let ns = min_time_ns ~runs:25 (fun () -> ignore (sweep ())) in
  if ns >= 1e9 then
    failwith
      (Printf.sprintf "bench: hpl/flow/all took %.3fs (budget 1s)" (ns /. 1e9));
  [
    ("hpl/flow/all", Some ns, "ns/run", None);
    ("hpl/flow/all/rules", Some (float_of_int rules), "rules", None);
  ]

(* -- Monte Carlo sampler throughput -------------------------------------

   One row: how many seeded walks per second the mc layer sustains
   (two-generals, depth 12, trivial predicate — pure walk plus judging
   overhead, no knowledge resampling). Unit "runs/s", not time: the
   trajectory question here is sampling capacity, which is what decides
   how tight an interval a CI-budgeted [hpl mc] run can deliver. *)
let mc_rows () =
  fresh_heap ();
  Hpl_protocols.Builtins.init ();
  let spec =
    match Hpl_protocols.Protocol.Registry.find "two-generals" with
    | Some p ->
        Hpl_protocols.Protocol.spec_of
          (Hpl_protocols.Protocol.default_instance p)
    | None -> failwith "bench: two-generals not registered"
  in
  let cfg = { Hpl_mc.Mc.default with Hpl_mc.Mc.runs = 100_000; depth = 12 } in
  let b = Prop.make "always" (fun _ -> true) in
  let e = Hpl_mc.Mc.estimate_prop cfg spec b in
  let rate =
    if e.Hpl_mc.Mc.elapsed > 0.0 then
      float_of_int e.Hpl_mc.Mc.runs /. e.Hpl_mc.Mc.elapsed
    else 0.0
  in
  [ ("hpl/mc/runs=100k", Some rate, "runs/s", None) ]

(* -- serve: warm-cache query throughput ----------------------------------

   One row: queries per second sustained by an in-process [hpl serve]
   over line-delimited JSON frames with the universes warm in the LRU
   cache — the steady state a long-running daemon answers from. A
   self-driving client loops a small query pool (extent, knows, check,
   stats across three protocols); the first pass populates the cache,
   the timed passes must be all hits — a single miss during the timed
   window means the cache layer broke, so it fails the run rather than
   record an enumeration-bound number as serving throughput. *)
let serve_rows () =
  fresh_heap ();
  Hpl_protocols.Builtins.init ();
  let module Serve = Hpl_serve.Serve in
  let t =
    Serve.create { Serve.max_cached_states = 1_000_000; cache_dir = None }
  in
  let frames =
    [
      {|{"op":"extent","protocol":"ping-pong","depth":6,"atom":"sent"}|};
      {|{"op":"knows","protocol":"ping-pong","depth":6}|};
      {|{"op":"knows","protocol":"two-generals","depth":5}|};
      {|{"op":"extent","protocol":"two-generals","depth":5,"atom":"attack"}|};
      {|{"op":"check","protocol":"token-ring:3","depth":4,"formula":"AG (holds0 -> ~holds1)"}|};
      {|{"op":"enumerate-stats","protocol":"token-ring:3","depth":4}|};
    ]
  in
  let drive () = List.iter (fun f -> ignore (Serve.handle_line t f)) frames in
  drive ();
  let hit_count () = List.assoc "cache_hit" (Serve.counters t) in
  let hits0 = hit_count () in
  let n = ref 0 in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 1.0 in
  while Unix.gettimeofday () < deadline do
    drive ();
    n := !n + List.length frames
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  if hit_count () - hits0 <> !n then
    failwith "bench: a warm serve query missed the cache";
  [
    ( "hpl/serve/warm-cache/queries-per-sec",
      Some (float_of_int !n /. elapsed),
      "queries/s",
      None );
  ]

(* Machine-readable results so successive PRs can track the perf
   trajectory. One JSON object per benchmark: {name, value, unit, r2};
   [unit] says what the number measures ("ns/run", "states",
   "runs/s", ...). Unavailable estimates are emitted as null. *)
let row_string (name, value, unit_, r2) =
  let fnum = function Some v -> Printf.sprintf "%.6g" v | None -> "null" in
  let b = Buffer.create 96 in
  Printf.bprintf b "{\"name\": %a, \"value\": %s, \"unit\": %a, \"r2\": %s}"
    Hpl_obs.json_string name (fnum value) Hpl_obs.json_string unit_ (fnum r2);
  Buffer.contents b

let write_bench_json path rows =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i row ->
      Printf.fprintf oc "  %s%s\n" (row_string row)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

(* the rows of a BENCH.json written by [write_bench_json]; re-rendering
   them reproduces the file byte for byte, since "%.6g" reads back to
   the same digits *)
let read_bench_json path =
  let module Json = Hpl_serve.Json in
  let num = function
    | Some (Json.Int n) -> Some (float_of_int n)
    | Some (Json.Float f) -> Some f
    | _ -> None
  in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok (Json.List rows) ->
      List.filter_map
        (fun r ->
          match (Json.member "name" r, Json.member "unit" r) with
          | Some (Json.Str name), Some (Json.Str unit_) ->
              Some
                ( name,
                  num (Json.member "value" r),
                  unit_,
                  num (Json.member "r2" r) )
          | _ -> None)
        rows
  | Ok _ -> failwith (path ^ ": not a JSON array")
  | Error e -> failwith (path ^ ": " ^ e)

let run_benchmarks () =
  print_endline "\n=== microbenchmarks (bechamel, monotonic clock) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  (* wall-clock rows first: after the bechamel phase the process carries
     enough live and fragmented heap that allocation-heavy enumerations
     pay a multi-x GC tax, which would be recorded as enumeration time *)
  let early_rows =
    minwall_rows () @ reduce_rows () @ dsl_rows () @ flow_rows ()
  in
  let raw = Benchmark.all cfg instances (all_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  (* one run of the registry-wide lint takes ~0.5s, so it needs a wider
     quota than the micro-benchmarks to get a stable estimate *)
  let heavy_cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 5.0) ~stabilize:true ()
  in
  let heavy =
    Benchmark.all heavy_cfg instances
      (Test.make_grouped ~name:"hpl" [ lint_all_bench () ])
  in
  let heavy_results = Analyze.all ols Instance.monotonic_clock heavy in
  Hashtbl.iter (fun name ols -> Hashtbl.replace results name ols) heavy_results;
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let estimate ols =
    match Analyze.OLS.estimates ols with Some [ est ] -> Some est | _ -> None
  in
  Printf.printf "  %-34s %16s %10s\n" "benchmark" "time/run" "r²";
  List.iter
    (fun (name, ols) ->
      let time =
        match estimate ols with
        | Some est ->
            if est > 1e6 then Printf.sprintf "%10.2f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%10.2f µs" (est /. 1e3)
            else Printf.sprintf "%10.0f ns" est
        | None -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Printf.printf "  %-34s %16s %10s\n" name time r2)
    rows;
  let all =
    List.map
      (fun (name, ols) ->
        (name, estimate ols, "ns/run", Analyze.OLS.r_square ols))
      rows
    @ early_rows @ phase_rows () @ mc_rows () @ serve_rows ()
  in
  write_bench_json "BENCH.json" all;
  Printf.printf "\nwrote %d benchmark results to BENCH.json\n"
    (List.length all)

(* -- disabled-probe overhead guard --------------------------------------

   [--quick --assert-overhead] re-times the depth-7 enumeration with
   observability disabled — and [~reduce:Reduction.none] pinned, so the
   gate also proves that carrying the reduction layer costs nothing on
   the default path — and asserts it stays within 2% of the recorded
   BENCH.json baseline ([.../disabled-minwall], recorded by the same
   min-wall functions above — mixing timing methodologies here shows up
   as a spurious ~10% "overhead"). Machine-speed
   differences between the baseline host and this one are calibrated
   out against the bitset row, whose hot loop carries no probes at
   all. *)

let bench_json_lookup path name =
  List.find_map
    (fun (n, value, _, _) -> if n = name then value else None)
    (read_bench_json path)

let assert_overhead () =
  print_endline "=== disabled-probe overhead check ===";
  let path = "BENCH.json" in
  let baseline name =
    match bench_json_lookup path name with
    | Some v -> v
    | None ->
        Printf.eprintf "no '%s' row in %s\n" name path;
        exit 2
  in
  let enum_base = baseline "hpl/enumerate/depth=7/disabled-minwall" in
  let cal_base = baseline "hpl/bitset/n=10000/minwall" in
  assert (not !Hpl_obs.enabled);
  let enum_now = minwall_enumerate () in
  let cal_now = minwall_bitset () in
  let speed = cal_now /. cal_base in
  let raw_overhead = (enum_now /. enum_base -. 1.0) *. 100. in
  let calibrated = (enum_now /. (enum_base *. speed) -. 1.0) *. 100. in
  (* the calibrated figure transports the baseline to a different
     machine; on the recording machine itself the raw figure is exact
     and the calibration only adds the bitset row's noise. A genuine
     probe regression inflates both, so the bound applies to the
     smaller. *)
  let overhead = Float.min raw_overhead calibrated in
  Printf.printf
    "  enumerate/depth=7: %.4g ns now vs %.4g ns baseline (machine ratio \
     %.3f) -> overhead raw %+.2f%% / calibrated %+.2f%%\n"
    enum_now enum_base speed raw_overhead calibrated;
  if overhead > 2.0 then begin
    Printf.eprintf "disabled-probe overhead %.2f%% exceeds the 2%% bound\n"
      overhead;
    exit 1
  end;
  print_endline "  within the 2% bound"

(* --mc: measure the sampler-throughput row alone and merge it into
   BENCH.json in place, keeping every other recorded row. This is the CI
   mc job's bench step — it must not disturb the ns/run baselines the
   overhead guard compares against, so every existing row is kept
   (minus any previous row with the same name) and the fresh rows are
   appended. *)
let merge_bench_json path rows =
  let names = List.map (fun (n, _, _, _) -> n) rows in
  let kept =
    if Sys.file_exists path then
      List.filter
        (fun (n, _, _, _) -> not (List.mem n names))
        (read_bench_json path)
    else []
  in
  write_bench_json path (kept @ rows)

(* --flow: measure the abstract-interpretation rows (the flow sweep and
   the depth-9 reduction ladder including por+indep) alone and merge
   them into BENCH.json in place — the CI gate for the strict-reduction
   and under-a-second claims, same merge as --mc. *)
let run_flow () =
  print_endline "=== flow rows (abstract interpretation + reduction) ===";
  let rows = reduce_rows () @ flow_rows () in
  List.iter
    (fun (name, value, unit_, _) ->
      match value with
      | Some v -> Printf.printf "  %-48s %14.0f %s\n" name v unit_
      | None -> Printf.printf "  %-48s              - %s\n" name unit_)
    rows;
  merge_bench_json "BENCH.json" rows;
  print_endline "BENCH.json updated"

let run_mc () =
  print_endline "=== mc sampler throughput ===";
  let rows = mc_rows () in
  List.iter
    (fun (name, value, unit_, _) ->
      match value with
      | Some v -> Printf.printf "  %-34s %12.0f %s\n" name v unit_
      | None -> Printf.printf "  %-34s            - %s\n" name unit_)
    rows;
  merge_bench_json "BENCH.json" rows;
  print_endline "BENCH.json updated"

(* --serve: measure the daemon's warm-cache throughput row alone and
   merge it into BENCH.json in place — the CI serve job's bench step,
   same merge as --mc. *)
let run_serve () =
  print_endline "=== serve warm-cache throughput ===";
  let rows = serve_rows () in
  List.iter
    (fun (name, value, unit_, _) ->
      match value with
      | Some v -> Printf.printf "  %-42s %12.0f %s\n" name v unit_
      | None -> Printf.printf "  %-42s            - %s\n" name unit_)
    rows;
  merge_bench_json "BENCH.json" rows;
  print_endline "BENCH.json updated"

(* --quick: CI smoke mode. Runs a tiny benchmark subset with a minimal
   quota, without touching BENCH.json — it exists to prove the binary
   links and the hot paths execute, not to produce publishable
   numbers. *)
let run_quick () =
  print_endline "=== bench smoke (--quick) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~stabilize:false ()
  in
  let tests =
    Test.make_grouped ~name:"hpl"
      [
        knows_bench ~depth:4;
        enumeration_bench `Canonical "enumerate/canonical" ~depth:5;
        fault_enumeration_bench "drop" "drop:p0->p1" ~depth:6;
        fault_enumeration_bench "crash" "crash-any:1" ~depth:6;
      ]
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter (fun name _ -> Printf.printf "  ran %s\n" name) results;
  print_endline "bench smoke passed"

let () =
  if Array.exists (fun a -> a = "--mc") Sys.argv then run_mc ()
  else if Array.exists (fun a -> a = "--serve") Sys.argv then run_serve ()
  else if Array.exists (fun a -> a = "--flow") Sys.argv then run_flow ()
  else if Array.exists (fun a -> a = "--quick") Sys.argv then begin
    run_quick ();
    if Array.exists (fun a -> a = "--assert-overhead") Sys.argv then
      assert_overhead ()
  end
  else run_benchmarks ()
