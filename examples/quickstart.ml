(* Quickstart: specify a system, enumerate its computations, and ask
   what its processes know.

     dune exec examples/quickstart.exe

   The system: alice sends "hello" to bob; bob acknowledges. We watch
   knowledge of the fact "alice said hello" travel — alice knows it
   instantly, bob learns it from the message, alice learns that bob
   knows from the acknowledgement (Theorems 4/5 in miniature). *)
open Hpl_core

let alice = Pid.of_int 0
let bob = Pid.of_int 1

let system =
  Spec.make ~n:2 (fun p history ->
      if Pid.equal p alice then
        match history with
        | [] -> [ Spec.Send_to (bob, "hello") ]
        | _ -> [ Spec.Recv_any ]
      else
        match history with
        | [] -> [ Spec.Recv_any ]
        | [ _ ] -> [ Spec.Send_to (alice, "ack") ]
        | _ -> [])

let () =
  Pid.set_name alice "alice";
  Pid.set_name bob "bob";

  (* 1. enumerate every computation of the system (it is finite) *)
  let u = Universe.enumerate system ~depth:4 in
  Format.printf "universe: %a@." Universe.pp_stats u;

  (* 2. a predicate, and the extents of knowledge about it: the sets of
     computations where bob knows it, and where alice knows bob does *)
  let said_hello =
    Prop.make "alice said hello" (fun z -> Trace.send_count z alice > 0)
  in
  let bob_knows =
    Knowledge.knows_ext u (Pset.singleton bob) (Prop.extent u said_hello)
  in
  let alice_knows_bob_knows =
    Knowledge.knows_ext u (Pset.singleton alice) bob_knows
  in
  let at ext z = Bitset.mem ext (Universe.find_exn u z) in

  (* 3. walk the canonical run and evaluate at each prefix *)
  let hello = Msg.make ~src:alice ~dst:bob ~seq:0 ~payload:"hello" in
  let ack = Msg.make ~src:bob ~dst:alice ~seq:0 ~payload:"ack" in
  let run =
    [
      ("start", Trace.empty);
      ("alice sends", Trace.of_list [ Event.send ~pid:alice ~lseq:0 hello ]);
      ( "bob receives",
        Trace.of_list
          [ Event.send ~pid:alice ~lseq:0 hello; Event.receive ~pid:bob ~lseq:0 hello ]
      );
      ( "bob acks",
        Trace.of_list
          [
            Event.send ~pid:alice ~lseq:0 hello;
            Event.receive ~pid:bob ~lseq:0 hello;
            Event.send ~pid:bob ~lseq:1 ack;
          ] );
      ( "alice receives ack",
        Trace.of_list
          [
            Event.send ~pid:alice ~lseq:0 hello;
            Event.receive ~pid:bob ~lseq:0 hello;
            Event.send ~pid:bob ~lseq:1 ack;
            Event.receive ~pid:alice ~lseq:1 ack;
          ] );
    ]
  in
  Format.printf "@.%-22s %-12s %-12s %-24s@." "after" "fact" "bob knows"
    "alice knows bob knows";
  List.iter
    (fun (label, z) ->
      Format.printf "%-22s %-12b %-12b %-24b@." label
        (Prop.eval said_hello z) (at bob_knows z)
        (at alice_knows_bob_knows z))
    run;

  (* 4. the knowledge-gain theorem at work: bob's learning required a
     message — extract the chain *)
  let x = List.assoc "alice sends" run in
  let y = List.assoc "bob receives" run in
  let report =
    Transfer.explain_gain u [ Pset.singleton bob ] said_hello ~x ~y
  in
  (match report.Transfer.chain with
  | Some events ->
      Format.printf "@.knowledge gain carried by:@.";
      List.iter (fun e -> Format.printf "  %a@." Event.pp e) events
  | None -> Format.printf "@.no chain (unexpected)@.");

  (* 5. and common knowledge of the fact is never attained *)
  let ck = Common_knowledge.common_ext u (Prop.extent u said_hello) in
  Format.printf "@.common knowledge ever attained: %b (the paper's corollary)@."
    (not (Bitset.is_empty ck))
