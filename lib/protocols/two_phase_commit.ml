open Hpl_core
open Hpl_sim

(* -- simulated ----------------------------------------------------------- *)

type params = {
  n : int;
  no_voters : int list;
  crash_coordinator_at : float option;
  decision_timeout : float;
  seed : int64;
}

let default =
  {
    n = 4;
    no_voters = [];
    crash_coordinator_at = None;
    decision_timeout = 200.0;
    seed = 37L;
  }

let prepare_tag = "2pc-prepare"
let yes_tag = "2pc-yes"
let no_tag = "2pc-no"
let commit_tag = "2pc-commit"
let abort_tag = "2pc-abort"
let decide_commit = "decide-commit"
let decide_abort = "decide-abort"

type state = {
  params : params;
  me : int;
  votes_in : int;
  any_no : bool;
  decision : string option;
}

type outcome = {
  trace : Trace.t;
  decisions : string option array;
  agreement : bool;
  validity : bool;
  blocked : int;
  messages : int;
}

let participants st = List.init (st.params.n - 1) (fun i -> i + 1)

let init params p =
  let me = Pid.to_int p in
  let st = { params; me; votes_in = 0; any_no = false; decision = None } in
  if me = 0 then
    ( st,
      List.map
        (fun i -> Engine.Send (Pid.of_int i, Wire.enc prepare_tag []))
        (List.init (params.n - 1) (fun i -> i + 1)) )
  else (st, [])

let decide st verdict tag_msg log =
  let st = { st with decision = Some verdict } in
  ( st,
    Engine.Log_internal log
    :: List.map
         (fun i -> Engine.Send (Pid.of_int i, Wire.enc tag_msg []))
         (participants st) )

let on_message st ~self:_ ~src ~payload ~now:_ =
  if Wire.is prepare_tag payload then
    let vote =
      if List.mem st.me st.params.no_voters then no_tag else yes_tag
    in
    (st, [ Engine.Send (src, Wire.enc vote []) ])
  else if Wire.is yes_tag payload || Wire.is no_tag payload then begin
    if st.me <> 0 || st.decision <> None then (st, [])
    else begin
      let st =
        {
          st with
          votes_in = st.votes_in + 1;
          any_no = st.any_no || Wire.is no_tag payload;
        }
      in
      if st.votes_in = st.params.n - 1 then
        if st.any_no then decide st "abort" abort_tag decide_abort
        else decide st "commit" commit_tag decide_commit
      else (st, [])
    end
  end
  else if Wire.is commit_tag payload then
    ({ st with decision = Some "commit" }, [ Engine.Log_internal decide_commit ])
  else if Wire.is abort_tag payload then
    ({ st with decision = Some "abort" }, [ Engine.Log_internal decide_abort ])
  else (st, [])

let run ?config params =
  let config =
    match config with
    | Some c -> { c with Engine.n = params.n }
    | None -> { Engine.default with Engine.n = params.n; seed = params.seed }
  in
  let config =
    {
      config with
      Engine.max_time = params.decision_timeout;
      crashes =
        (match params.crash_coordinator_at with
        | Some t -> (t, 0) :: config.Engine.crashes
        | None -> config.Engine.crashes);
    }
  in
  let result =
    Engine.run config
      {
        Engine.init = init params;
        on_message;
        on_timer = (fun st ~self:_ ~tag:_ ~now:_ -> (st, []));
      }
  in
  let decisions = Array.map (fun (st : state) -> st.decision) result.Engine.states in
  let distinct =
    Array.to_list decisions
    |> List.filter_map Fun.id
    |> List.sort_uniq String.compare
  in
  let agreement = List.length distinct <= 1 in
  let validity =
    (not (List.mem "commit" distinct)) || params.no_voters = []
  in
  let blocked =
    let count = ref 0 in
    Array.iteri
      (fun i d ->
        if i > 0 && d = None && not result.Engine.crashed.(i) then incr count)
      decisions;
    !count
  in
  {
    trace = result.Engine.trace;
    decisions;
    agreement;
    validity;
    blocked;
    messages = result.Engine.stats.Engine.sent;
  }

(* -- exact miniature ------------------------------------------------------ *)

let c = Pid.of_int 0
let a = Pid.of_int 1
let b = Pid.of_int 2

let vote_of history =
  List.find_map
    (fun e ->
      match e.Event.kind with
      | Event.Send m when String.equal m.Msg.payload "yes" -> Some true
      | Event.Send m when String.equal m.Msg.payload "no" -> Some false
      | _ -> None)
    history

let coord_decided history =
  List.find_map
    (fun e ->
      match e.Event.kind with
      | Event.Internal t when String.equal t decide_commit -> Some "commit"
      | Event.Internal t when String.equal t decide_abort -> Some "abort"
      | _ -> None)
    history

let spec =
  Spec.make ~n:3 (fun p history ->
      if Pid.equal p c then begin
        let yes =
          List.length
            (List.filter
               (fun e ->
                 match e.Event.kind with
                 | Event.Receive m -> String.equal m.Msg.payload "yes"
                 | _ -> false)
               history)
        in
        let no =
          List.exists
            (fun e ->
              match e.Event.kind with
              | Event.Receive m -> String.equal m.Msg.payload "no"
              | _ -> false)
            history
        in
        match coord_decided history with
        | Some verdict ->
            (* broadcast the outcome, one message per participant *)
            let sent =
              List.length (List.filter Event.is_send history)
            in
            if sent < 2 then
              [ Spec.Send_to ((if sent = 0 then a else b), verdict) ]
            else []
        | None ->
            [ Spec.Recv_any ]
            @ (if yes = 2 then [ Spec.Do decide_commit ] else [])
            @ if no then [ Spec.Do decide_abort ] else []
      end
      else begin
        (* participants: vote once (either way), then listen *)
        match vote_of history with
        | None -> [ Spec.Send_to (c, "yes"); Spec.Send_to (c, "no") ]
        | Some _ -> [ Spec.Recv_any ]
      end)

let committed =
  Prop.make "committed" (fun z -> coord_decided (Trace.proj z c) = Some "commit")

let aborted =
  Prop.make "aborted" (fun z -> coord_decided (Trace.proj z c) = Some "abort")

let uncertainty_is_real u =
  let knows b = Knowledge.knows_ext u (Pset.singleton a) (Prop.extent u b) in
  let k_commit = knows committed and k_abort = knows aborted in
  Universe.fold
    (fun i z acc ->
      acc
      ||
      let a_hist = Trace.proj z a in
      let voted_yes = vote_of a_hist = Some true in
      let heard = List.exists Event.is_receive a_hist in
      let decided = coord_decided (Trace.proj z c) <> None in
      voted_yes && (not heard) && decided
      && (not (Bitset.mem k_commit i))
      && not (Bitset.mem k_abort i))
    u false

(* -- registry ----------------------------------------------------------- *)

let protocol =
  Protocol.make ~name:"two-phase-commit"
    ~doc:"2PC, coordinator + 2 participants; blocking = unresolvable unknowledge"
    ~atoms:(fun _ -> [ ("committed", committed); ("aborted", aborted) ])
    ~suggested_depth:6
    (fun _ -> spec)
