let spec_of_trace ~n z =
  (match Trace.well_formed_error z with
  | Some reason -> invalid_arg ("Replay.spec_of_trace: " ^ reason)
  | None -> ());
  (* per-process scripts: the fixed local computations *)
  let scripts =
    Array.init n (fun i -> Array.of_list (Trace.proj z (Pid.of_int i)))
  in
  Spec.make ~n (fun p history ->
      let script = scripts.(Pid.to_int p) in
      let k = List.length history in
      (* the rule only fires along its own script; any deviating history
         is unreachable anyway, but be conservative *)
      let followed =
        k <= Array.length script
        && List.for_all2 Event.equal history
             (Array.to_list (Array.sub script 0 k))
      in
      if (not followed) || k >= Array.length script then []
      else
        match script.(k).Event.kind with
        | Event.Send m -> [ Spec.Send_to (m.Msg.dst, m.Msg.payload) ]
        | Event.Receive m ->
            [
              Spec.Recv_if
                ( "the scripted message",
                  fun m' -> Msg.equal m m' );
            ]
        | Event.Internal tag -> [ Spec.Do tag ])

let universe_of_trace ?(mode = `Canonical) ~n z =
  Universe.enumerate ~mode (spec_of_trace ~n z) ~depth:(Trace.length z)

let knew_at ~n z ps b =
  let u = universe_of_trace ~n z in
  let k = Knowledge.knows_ext u ps (Prop.extent u b) in
  if Bitset.mem k (Universe.find_exn u Trace.empty) then Some (-1)
  else
    (* P does not know b at the empty computation, so its first change
       of knowledge along z is a gain *)
    match Explain.learning_moments u ps b z with
    | (i, _) :: _ -> Some i
    | [] -> None
