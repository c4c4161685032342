type step = { event : Event.t; position : int; role : string }

type report = {
  subject : string;
  fact : string;
  gained : bool;
  steps : step list;
  narrative : string list;
}

let role_of e =
  match e.Event.kind with
  | Event.Receive m ->
      Printf.sprintf "receives %s from %s" m.Msg.payload (Pid.to_string m.Msg.src)
  | Event.Send m ->
      Printf.sprintf "sends %s to %s" m.Msg.payload (Pid.to_string m.Msg.dst)
  | Event.Internal tag -> Printf.sprintf "performs %s" tag

let build_steps y events =
  let indexed = List.mapi (fun i e -> (i, e)) (Trace.to_list y) in
  List.map
    (fun e ->
      let position =
        match List.find_opt (fun (_, e') -> Event.equal e e') indexed with
        | Some (i, _) -> i
        | None -> -1
      in
      { event = e; position; role = role_of e })
    events

let narrate subject fact gained steps =
  let dir = if gained then "learned" else "lost" in
  let headline =
    Printf.sprintf "%s %s \"%s\" through %d event(s):" subject dir fact
      (List.length steps)
  in
  headline
  :: List.map
       (fun s ->
         Printf.sprintf "  [%d] %s %s" s.position
           (Pid.to_string s.event.Event.pid)
           s.role)
       steps

let gain u psets b ~x ~y =
  let r = Transfer.explain_gain u psets b ~x ~y in
  if not r.Transfer.premise then None
  else
    match r.Transfer.chain with
    | None -> None
    | Some events ->
        let subject =
          Format.asprintf "%a"
            (Format.pp_print_list
               ~pp_sep:(fun f () -> Format.pp_print_string f " knows ")
               (fun f ps -> Format.fprintf f "%a" Pset.pp ps))
            psets
        in
        let steps = build_steps y events in
        Some
          {
            subject;
            fact = Prop.name b;
            gained = true;
            steps;
            narrative = narrate subject (Prop.name b) true steps;
          }

let loss u psets b ~x ~y =
  let r = Transfer.explain_loss u psets b ~x ~y in
  if not r.Transfer.premise then None
  else
    match r.Transfer.chain with
    | None -> None
    | Some events ->
        let subject =
          Format.asprintf "%a"
            (Format.pp_print_list
               ~pp_sep:(fun f () -> Format.pp_print_string f " knows ")
               (fun f ps -> Format.fprintf f "%a" Pset.pp ps))
            psets
        in
        let steps = build_steps y events in
        Some
          {
            subject;
            fact = Prop.name b;
            gained = false;
            steps;
            narrative = narrate subject (Prop.name b) false steps;
          }

let learning_moments u ps b z =
  let k = Knowledge.knows_ext u ps (Prop.extent u b) in
  let events = Trace.to_list z in
  let rec go prefix i value acc = function
    | [] -> List.rev acc
    | e :: rest ->
        let prefix = Trace.snoc prefix e in
        let value' =
          match Universe.find u prefix with
          | Some j -> Bitset.mem k j
          | None -> value (* beyond the universe: stop reporting *)
        in
        let acc = if value' <> value then (i, value') :: acc else acc in
        go prefix (i + 1) value' acc rest
  in
  let initial = Bitset.mem k (Universe.find_exn u Trace.empty) in
  go Trace.empty 0 initial [] events

let pp fmt r =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    r.narrative

let pp_moments fmt z moments =
  let events = Array.of_list (Trace.to_list z) in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (i, gained) ->
      let e = events.(i) in
      Format.fprintf fmt "at event %d (%a): knowledge %s%s@," i Event.pp e
        (if gained then "gained" else "lost")
        (match (gained, e.Event.kind) with
        | true, Event.Receive _ -> "  — by receiving, as Lemma 4 predicts"
        | false, Event.Send _ -> "  — by sending, as Lemma 4 predicts"
        | _ -> ""))
    moments;
  Format.fprintf fmt "@]"
