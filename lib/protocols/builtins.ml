(* Central registration point. Linking this module (any reference to
   [init]) populates the registry with every in-tree protocol; keeping
   the calls here rather than as module-initialization side effects in
   each protocol file makes registration order deterministic and
   independent of the linker's dead-module elimination. *)

(* The builtins defined by their embedded .hpl text, by registry name.
   Each is elaborated the first time it is looked up, so a process that
   names none of them pays nothing for them at start-up. The text ships
   inside the binary, so one that fails to load, or that names another
   protocol, is a build bug rather than a user error. *)
let load name file =
  let path = "corpus/specs/" ^ file in
  match Elaborate.load_string ~file:path (List.assoc path Corpus.specs) with
  | Ok l when Protocol.name l.Elaborate.proto = name -> l
  | Ok l ->
      failwith
        (Printf.sprintf "Builtins: %s defines %S, not %S" path
           (Protocol.name l.Elaborate.proto)
           name)
  | Error d -> failwith ("Builtins: embedded " ^ Diag.to_string d)

let ports =
  List.map
    (fun (name, file) -> (name, lazy (load name file)))
    [
      ("mesh", "mesh.hpl");
      ("ping-pong", "ping_pong.hpl");
      ("quorum", "quorum.hpl");
      ("ring", "ring.hpl");
      ("star-flood", "star_flood.hpl");
    ]

let port name = Option.map Lazy.force (List.assoc_opt name ports)

let () =
  List.iter Protocol.Registry.register
    [
      Abd_register.protocol;
      Bully.protocol;
      Causal_broadcast.protocol;
      Chang_roberts.protocol;
      Chatter.protocol;
      Credit.protocol;
      Deadlock.protocol;
      Dijkstra_scholten.protocol;
      Echo.protocol;
      Failure_detector.protocol;
      Gossip.protocol;
      Lamport_mutex.protocol;
      Paxos.protocol;
      Probe.protocol;
      Ricart_agrawala.protocol;
      Safra.protocol;
      Snapshot.protocol;
      Snapshot_term.protocol;
      Token_bus.protocol;
      Token_ring.protocol;
      Total_order.protocol;
      Tracking.protocol;
      Tracking.notify_protocol;
      Two_generals.protocol;
      Two_phase_commit.protocol;
      Underlying.protocol;
    ];
  List.iter
    (fun (name, l) ->
      Protocol.Registry.register_lazy name
        (lazy (Lazy.force l).Elaborate.proto))
    ports

let init () = ()
