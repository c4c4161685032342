(* The paper's §4.1 token bus, exactly as described: five processes
   p,q,r,s,t in a line, one token, initially at p.

     dune exec examples/token_bus_knowledge.exe

   Whenever r holds the token:
     r knows ((q knows ¬(p holds)) ∧ (s knows ¬(t holds)))
   We verify this over every computation of the bounded universe, and
   print the isomorphism-diagram DOT of a small slice for inspection. *)
open Hpl_core
open Hpl_protocols

let () =
  List.iteri
    (fun i name -> Pid.set_name (Pid.of_int i) name)
    [ "p"; "q"; "r"; "s"; "t" ];
  (* the system comes from the registry, like any other protocol *)
  Builtins.init ();
  let inst =
    match Protocol.Registry.parse "token-bus:5" with
    | Ok inst -> inst
    | Error e -> failwith e
  in
  let u = Universe.enumerate (Protocol.spec_of inst) ~depth:10 in
  Format.printf "token bus: %a@.@." Universe.pp_stats u;

  (* its registered atoms are the formula-language surface *)
  Format.printf "registered atoms: %s@.@."
    (String.concat " " (List.map fst (Protocol.atoms_of inst)));

  (* the assertion's extent: the computations where it holds *)
  let assertion = Token_bus.paper_assertion u in
  Format.printf
    "assertion: {r} knows ({q} knows ¬(p holds token) ∧ {s} knows ¬(t holds \
     token))@.@.";

  (* check it wherever r holds *)
  let r = Pid.of_int 2 in
  let r_holds = Token_bus.holds r in
  let checked = ref 0 and ok = ref 0 in
  Universe.iter
    (fun i z ->
      if Prop.eval r_holds z then begin
        incr checked;
        if Bitset.mem assertion i then incr ok
      end)
    u;
  Format.printf "r holds the token in %d computations; assertion holds in %d@."
    !checked !ok;

  (* the bus invariant, for good measure *)
  let inv = Token_bus.exactly_one_holder_or_flight ~n:5 in
  let inv_ok =
    Universe.fold (fun _ z acc -> acc && Prop.eval inv z) u true
  in
  Format.printf "bus invariant (one holder or in flight): %b@.@." inv_ok;

  (* show a run: walk the token p -> q -> r and print who-knows-what *)
  let pass src dst seq z =
    let m = Msg.make ~src ~dst ~seq ~payload:"token" in
    let z = Trace.snoc z (Event.send ~pid:src ~lseq:(Trace.local_length z src) m) in
    Trace.snoc z (Event.receive ~pid:dst ~lseq:(Trace.local_length z dst) m)
  in
  let p = Pid.of_int 0 and q = Pid.of_int 1 in
  let z0 = Trace.empty in
  let z1 = pass p q 0 z0 in
  let z2 = pass q r 0 z1 in
  List.iter
    (fun (label, z) ->
      Format.printf "%-18s holder=%s  assertion=%b@." label
        (match Token_bus.holder_at ~n:5 z with
        | Some h -> Pid.to_string h
        | None -> "(in flight)")
        (Bitset.mem assertion (Universe.find_exn u z)))
    [ ("initial", z0); ("p -> q", z1); ("q -> r", z2) ];

  (* a small isomorphism diagram of the first computations, as DOT *)
  let named =
    List.filteri (fun i _ -> i < 6)
      (Universe.fold (fun i z acc -> (string_of_int i, z) :: acc) u []
      |> List.rev)
  in
  let dg = Iso_diagram.of_computations ~all:(Pset.all 5) named in
  Format.printf "@.isomorphism diagram (first 6 computations), DOT:@.%s@."
    (Iso_diagram.to_dot dg)
