(* Coordinated attack over an unreliable channel (§4.2, Halpern–Moses).

   General A decides to attack and sends the order to general B over a
   channel that may lose messages; acknowledgements flow back. The
   celebrated impossibility: the generals can climb the ladder
   "B knows", "A knows B knows", ... one level per delivered message,
   but common knowledge of the attack is NEVER attained — indeed, by
   the paper's constancy corollary it is unattainable even over a
   PERFECT channel, because CK can never be gained in an asynchronous
   system. What message loss changes is everything below CK: every
   rung of the ladder becomes uncertain (a silent maximal run where
   the order was sent but B learned nothing), and knowledge that was
   guaranteed becomes merely possible. This demo measures all of it. *)
open Hpl_core
open Hpl_faults
open Hpl_protocols

let a = Pid.of_int 0
let b = Pid.of_int 1
let attack = Two_generals.attack_decided

let has_drop z =
  List.exists
    (fun e ->
      match e.Event.kind with
      | Event.Internal t -> String.length t >= 5 && String.sub t 0 5 = "drop:"
      | _ -> false)
    (Trace.to_list z)

let ladder_row u ~view k =
  (* E^k along the A/B alternation, atoms evaluated through [view] *)
  let base = Prop.make "attack" (fun z -> Prop.eval attack (view z)) in
  let rec build i =
    if i = 0 then Prop.extent u base
    else
      let who = if i mod 2 = 1 then b else a in
      Knowledge.knows_ext u (Pset.singleton who) (build (i - 1))
  in
  not (Bitset.is_empty (build k))

let () =
  Format.printf "== Coordinated attack: knowledge over a lossy channel ==@.@.";

  (* 1. the fault-free universe *)
  let depth = 7 in
  let u0 = Universe.enumerate Two_generals.spec ~depth in
  Format.printf "fault-free:  %a@." Universe.pp_stats u0;

  (* 2. the same system with a lossy A->B channel (routed through a
     network daemon; drops are daemon events, so neither general can
     tell a lost order from one still in flight) *)
  let scenario = Result.get_ok (Faults.Scenario.parse "drop:p0->p1") in
  let lossy = Faults.Scenario.apply_exn scenario Two_generals.spec in
  let fdepth = Faults.Scenario.suggested_depth scenario depth in
  let budget = Universe.budget ~max_states:200_000 () in
  let u1 = Universe.enumerate ~budget lossy ~depth:fdepth in
  let view = Faults.Scenario.view scenario ~n:2 in
  Format.printf "lossy A->B:  %a@.@." Universe.pp_stats u1;

  (* 3. the knowledge ladder, rung by rung *)
  Format.printf "ladder rung (E^k of \"attack decided\"):   k = 1    2    3@.";
  let row name u view =
    Format.printf "  %-36s" name;
    List.iter
      (fun k ->
        Format.printf "  %s" (if ladder_row u ~view k then "yes" else " no"))
      [ 1; 2; 3 ];
    Format.printf "@."
  in
  row "fault-free: attainable?" u0 Fun.id;
  row "lossy:      attainable?" u1 view;

  (* 4. what loss adds: silent maximal runs. In the lossy universe
     there are computations where A sent the order, the daemon dropped
     it, and B can never learn — A cannot distinguish them from slow
     delivery. *)
  let silent =
    Universe.fold
      (fun _ z acc ->
        acc
        || Trace.send_count z a > 0
           && has_drop z
           && List.filter Event.is_receive (Trace.proj z b) = [])
      u1 false
  in
  Format.printf "@.lossy universe has a silent-drop run (order sent, B ignorant): %b@."
    silent;
  assert silent;

  (* 5. common knowledge: never attained in EITHER universe — the
     constancy corollary says CK cannot be gained, loss or no loss. The
     generals' dilemma is not caused by the lossy channel; the lossy
     channel just extends the impossibility down the ladder. *)
  let ck_free = Common_knowledge.attainable u0 attack in
  let ck_lossy =
    Common_knowledge.attainable u1
      (Prop.make "attack" (fun z -> Prop.eval attack (view z)))
  in
  Format.printf "@.common knowledge of the attack attainable, fault-free: %b@."
    ck_free;
  Format.printf "common knowledge of the attack attainable, lossy:      %b@."
    ck_lossy;
  assert ((not ck_free) && not ck_lossy);

  (* 6. the robustness verdict: under the SAME depth budget, B's
     knowledge of the attack survives message loss (deliveries still
     exist) but becomes strictly rarer — every delivery now costs two
     hops through the daemon, and some runs drop the order outright. *)
  let r =
    Knowledge.robust_under Two_generals.spec
      ~transform:(fun s -> Faults.Scenario.apply_exn scenario s)
      ~depth ~view (Pset.singleton b) attack
  in
  Format.printf "@.robustness of \"B knows the attack was decided\": %a@."
    Knowledge.pp_robustness r;
  assert (r.Knowledge.verdict = Knowledge.Degraded);

  (* 7. graceful degradation: a deliberately oversized scenario — loss
     AND duplication on every channel, full (non-canonical) mode, deep
     bound — under a tight budget returns Truncated instead of hanging *)
  let blown = Faults.Scenario.apply_exn
      (Result.get_ok (Faults.Scenario.parse "drop:*,dup:*"))
      Two_generals.spec
  in
  let u2 =
    Universe.enumerate ~mode:`Full
      ~budget:(Universe.budget ~max_states:2_000 ()) blown ~depth:20
  in
  (match Universe.status u2 with
  | Universe.Truncated reason ->
      Format.printf "@.oversized scenario: stopped early — %s (%d states kept)@."
        (Universe.reason_to_string reason) (Universe.size u2)
  | Universe.Complete -> Format.printf "@.oversized scenario: completed?!@.");
  assert (Universe.status u2 <> Universe.Complete);
  Format.printf "@.All claims verified.@."
