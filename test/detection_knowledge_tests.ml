(* Closing the loop: a termination detector IS a knowledge-gain device.

   A miniature diffusing computation with Dijkstra-Scholten signalling,
   expressed as a Spec so the exact engine applies:

     root (p0):  sends one work message to p1; after receiving the
                 signal it announces termination (internal "detected").
     p1:         receives work, may spawn one sub-work to p2, then
                 signals root after its subtree quiesces.
     p2:         receives work, signals p1.

   The checks: at every computation where the root has announced, the
   root KNOWS (exactly, over the bounded universe) that the underlying
   computation has terminated; before the signal arrives it does NOT
   know; and the knowledge-gain chain of Theorem 5 is the signal path
   back to the root. *)
open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool

let p0 = Pid.of_int 0
let p1 = Pid.of_int 1
let p2 = Pid.of_int 2

let work = "work"
let signal = "sig"
let detected = "detected"

let count p history = List.length (List.filter p history)

let sends_of tag history =
  count
    (fun e ->
      match e.Event.kind with
      | Event.Send m -> String.equal m.Msg.payload tag
      | _ -> false)
    history

let recvs_of tag history =
  count
    (fun e ->
      match e.Event.kind with
      | Event.Receive m -> String.equal m.Msg.payload tag
      | _ -> false)
    history

let announced history =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Internal t -> String.equal t detected
      | _ -> false)
    history

(* p1 nondeterministically either signals immediately (leaf) or spawns
   a sub-task to p2 and signals after p2's signal. *)
let spec =
  Spec.make ~n:3 (fun p history ->
      let i = Pid.to_int p in
      match i with
      | 0 ->
          if history = [] then [ Spec.Send_to (p1, work) ]
          else if recvs_of signal history = 1 && not (announced history) then
            [ Spec.Do detected ]
          else if recvs_of signal history = 0 then [ Spec.Recv_any ]
          else []
      | 1 ->
          if recvs_of work history = 0 then [ Spec.Recv_any ]
          else if sends_of work history = 0 && sends_of signal history = 0 then
            (* choice point: be a leaf (signal now) or spawn to p2 *)
            [ Spec.Send_to (p0, signal); Spec.Send_to (p2, work) ]
          else if
            sends_of work history = 1
            && recvs_of signal history = 0
          then [ Spec.Recv_any ]
          else if
            sends_of work history = 1
            && recvs_of signal history = 1
            && sends_of signal history = 0
          then [ Spec.Send_to (p0, signal) ]
          else []
      | _ ->
          if recvs_of work history = 0 then [ Spec.Recv_any ]
          else if sends_of signal history = 0 then [ Spec.Send_to (p1, signal) ]
          else [])

let u = Universe.enumerate ~mode:`Full spec ~depth:10

(* underlying termination: all work messages delivered *)
let terminated =
  Prop.make "underlying terminated" (fun z ->
      List.for_all
        (fun m -> not (String.equal m.Msg.payload work))
        (Trace.in_flight z))

let root_announced =
  Prop.make "root announced" (fun z -> announced (Trace.proj z p0))

let root_knows_terminated =
  lazy (Knowledge.knows_ext u (Pset.singleton p0) (Prop.extent u terminated))

let test_announcement_implies_knowledge () =
  (* wherever the root announced, it exactly-knows termination *)
  let k = Lazy.force root_knows_terminated in
  Universe.iter
    (fun i z ->
      if Prop.eval root_announced z then
        check tbool "announce => knows" true (Bitset.mem k i))
    u

let test_no_premature_knowledge () =
  (* before receiving the signal the root never knows termination
     (except at the very start, when nothing was sent yet: ε) *)
  let k = Lazy.force root_knows_terminated in
  Universe.iter
    (fun i z ->
      let root_got_signal = recvs_of signal (Trace.proj z p0) > 0 in
      if (not root_got_signal) && Trace.length z > 0 && Bitset.mem k i then
        Alcotest.failf "premature knowledge at %s" (Trace.to_string z))
    u

let test_detection_is_knowledge_gain_with_chain () =
  (* pick the full leaf-run; between the send of work and the
     announcement, the root gains knowledge, and Theorem 5's chain runs
     from the workers back to the root *)
  let m_work = Msg.make ~src:p0 ~dst:p1 ~seq:0 ~payload:work in
  let m_sig = Msg.make ~src:p1 ~dst:p0 ~seq:0 ~payload:signal in
  let x = Trace.of_list [ Event.send ~pid:p0 ~lseq:0 m_work ] in
  let y =
    Trace.append x
      [
        Event.receive ~pid:p1 ~lseq:0 m_work;
        Event.send ~pid:p1 ~lseq:1 m_sig;
        Event.receive ~pid:p0 ~lseq:1 m_sig;
        Event.internal ~pid:p0 ~lseq:2 detected;
      ]
  in
  check tbool "y valid" true (Spec.valid spec y);
  let r =
    Transfer.explain_gain u [ Pset.singleton p0 ] terminated ~x ~y
  in
  check tbool "gain premise" true r.Transfer.premise;
  check tbool "chain exists" true (r.Transfer.chain <> None);
  (* and the narrated version names the signal receive *)
  match Explain.gain u [ Pset.singleton p0 ] terminated ~x ~y with
  | Some report ->
      let text = String.concat " " report.Explain.narrative in
      let contains_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check tbool "narrative mentions the signal" true (contains_sub text signal)
  | None -> Alcotest.fail "expected explanation"

let test_signal_economy () =
  (* the §5 bound in miniature: every complete run has exactly as many
     signal messages as work messages *)
  Universe.iter
    (fun _ z ->
      if Prop.eval root_announced z then begin
        let works =
          List.length
            (List.filter (fun m -> String.equal m.Msg.payload work) (Trace.sent z))
        in
        let sigs =
          List.length
            (List.filter (fun m -> String.equal m.Msg.payload signal) (Trace.sent z))
        in
        check tbool "signals = works" true (sigs = works)
      end)
    u

let suite =
  [
    ("announcement implies exact knowledge", `Quick, test_announcement_implies_knowledge);
    ("no premature knowledge", `Quick, test_no_premature_knowledge);
    ("detection = knowledge gain + chain", `Quick, test_detection_is_knowledge_gain_with_chain);
    ("signal economy (mini lower bound)", `Quick, test_signal_economy);
  ]
