(* Replay universes: a recorded run as a system, and the structural
   identity replay-universe = consistent-cut lattice. *)
open Hpl_core
open Hpl_protocols

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let p0 = Fixtures.p0
let p1 = Fixtures.p1
let p2 = Fixtures.p2

let m01 = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:"m"
let m12 = Msg.make ~src:p1 ~dst:p2 ~seq:0 ~payload:"m"

let relay =
  Trace.of_list
    [
      Event.send ~pid:p0 ~lseq:0 m01;
      Event.receive ~pid:p1 ~lseq:0 m01;
      Event.send ~pid:p1 ~lseq:1 m12;
      Event.receive ~pid:p2 ~lseq:0 m12;
    ]

let indep =
  Trace.of_list
    [
      Event.internal ~pid:p0 ~lseq:0 "a";
      Event.internal ~pid:p1 ~lseq:0 "b";
      Event.internal ~pid:p0 ~lseq:1 "c";
    ]

let test_replay_contains_original () =
  List.iter
    (fun (z, n) ->
      let spec = Replay.spec_of_trace ~n z in
      check tbool "z valid in its own replay" true (Spec.valid spec z))
    [ (relay, 3); (indep, 2) ]

let test_replay_universe_is_cut_lattice () =
  (* one canonical computation per consistent cut *)
  List.iter
    (fun (z, n) ->
      let u = Replay.universe_of_trace ~n z in
      check tint "replay = cuts" (Cut.count_consistent ~n z) (Universe.size u))
    [ (relay, 3); (indep, 2) ]

let test_replay_universe_on_sim_run () =
  (* a small real run from the engine *)
  let params = { Underlying.default with n = 3; budget = 4; seed = 4L } in
  let r = Underlying.run params in
  let z = r.Hpl_sim.Engine.trace in
  if Trace.length z <= 12 then begin
    let u = Replay.universe_of_trace ~n:3 z in
    check tint "matches cut count" (Cut.count_consistent ~n:3 z) (Universe.size u)
  end

let test_replay_possibly_agrees_with_detect () =
  let preds =
    [
      (fun sub -> Trace.length sub = 2);
      (fun sub -> Trace.in_flight sub <> []);
      (fun sub -> Trace.local_length sub p0 = 1 && Trace.local_length sub p1 = 1);
    ]
  in
  List.iter
    (fun (z, n) ->
      let u = Replay.universe_of_trace ~n z in
      List.iteri
        (fun i b ->
          let via_universe =
            Universe.fold (fun _ c acc -> acc || b c) u false
          in
          let via_cuts = Detect.possibly ~n z b in
          check tbool (Printf.sprintf "pred %d agrees" i) via_cuts via_universe)
        preds)
    [ (relay, 3); (indep, 2) ]

let test_knew_at_relay () =
  (* "p0 sent m" — relative to the observed run, p2 can first be said
     to know it after its receive (position 3) *)
  let sent = Prop.make "sent" (fun z -> Trace.send_count z p0 > 0) in
  check Alcotest.(option int) "p0 immediately" (Some 0)
    (Replay.knew_at ~n:3 relay (Pset.singleton p0) sent);
  check Alcotest.(option int) "p1 at its receive" (Some 1)
    (Replay.knew_at ~n:3 relay (Pset.singleton p1) sent);
  check Alcotest.(option int) "p2 at its receive" (Some 3)
    (Replay.knew_at ~n:3 relay (Pset.singleton p2) sent)

let test_knew_at_never () =
  (* in the independent trace, p1 never learns p0 acted *)
  let p0_acted = Prop.make "p0 acted" (fun z -> Trace.local_length z p0 > 0) in
  check Alcotest.(option int) "never" None
    (Replay.knew_at ~n:2 indep (Pset.singleton p1) p0_acted)

let test_replay_knowledge_coarser_than_truth () =
  (* relative to the replay universe, every receive teaches its
     receiver exactly the causal past: p2 knows 'p1 relayed' after
     position 3, and the chain is in the trace (theorem 5 on the
     replay universe) *)
  let u = Replay.universe_of_trace ~n:3 relay in
  let relayed =
    Prop.make "p1 relayed" (fun z -> Trace.send_count z p1 > 0)
  in
  let k2 = Knowledge.knows_ext u (Pset.singleton p2) (Prop.extent u relayed) in
  check tbool "p2 knows at end" true (Bitset.mem k2 (Universe.find_exn u relay));
  let x = Trace.of_list (List.filteri (fun i _ -> i < 3) (Trace.to_list relay)) in
  let r = Transfer.explain_gain u [ Pset.singleton p2 ] relayed ~x ~y:relay in
  check tbool "gain premise" true r.Transfer.premise;
  check tbool "chain found" true (r.Transfer.chain <> None)

let test_replay_rejects_ill_formed () =
  let bad = Trace.of_list [ Event.receive ~pid:p1 ~lseq:0 m01 ] in
  check tbool "raises" true
    (try
       ignore (Replay.spec_of_trace ~n:2 bad);
       false
     with Invalid_argument _ -> true)

let qcheck_cut_identity =
  (* the identity holds for random computations of random systems *)
  let gen =
    QCheck.make
      ~print:(fun (_, z) -> Trace.to_string z)
      QCheck.Gen.(
        int_range 0 6 >>= fun steps ->
        list_size (return steps) (int_bound 1000) >>= fun choices ->
        let spec = Fixtures.chatter ~n:3 ~k:2 in
        let rec walk z k cs =
          if k >= steps then z
          else
            match (Spec.enabled spec z, cs) with
            | [], _ | _, [] -> z
            | events, c :: rest ->
                walk
                  (Trace.snoc z (List.nth events (abs c mod List.length events)))
                  (k + 1) rest
        in
        return (steps, walk Trace.empty 0 choices))
  in
  QCheck.Test.make ~name:"replay universe = cut lattice (random)" ~count:100 gen
    (fun (_, z) ->
      Universe.size (Replay.universe_of_trace ~n:3 z)
      = Cut.count_consistent ~n:3 z)

let suite =
  [
    ("replay contains original", `Quick, test_replay_contains_original);
    ("replay = cut lattice", `Quick, test_replay_universe_is_cut_lattice);
    ("replay on sim run", `Quick, test_replay_universe_on_sim_run);
    ("possibly agrees with Detect", `Quick, test_replay_possibly_agrees_with_detect);
    ("knew_at relay", `Quick, test_knew_at_relay);
    ("knew_at never", `Quick, test_knew_at_never);
    ("replay knowledge + chain", `Quick, test_replay_knowledge_coarser_than_truth);
    ("replay rejects ill-formed", `Quick, test_replay_rejects_ill_formed);
    QCheck_alcotest.to_alcotest ~verbose:false qcheck_cut_identity;
  ]
