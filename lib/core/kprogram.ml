type guard = Universe.t -> Prop.t

let know ps b u = Knowledge.knows u ps b
let nknow ps b u = Prop.not_ (Knowledge.knows u ps b)
let sure ps b u = Knowledge.sure u ps b
let gtrue _ = Prop.tt
let gand a b u = Prop.and_ (a u) (b u)
let gor a b u = Prop.or_ (a u) (b u)
let gnot a u = Prop.not_ (a u)

type rule = { guard : guard; intent : Spec.intent }
type t = Pid.t -> Event.t list -> rule list

let unrestricted ~n prog =
  Spec.make ~n (fun p history -> List.map (fun r -> r.intent) (prog p history))

module HistTbl = Hashtbl.Make (struct
  type t = int * Event.t list

  let equal (p, h) (p', h') = p = p' && List.equal Event.equal h h'
  let hash (p, h) = Hashtbl.hash (p, List.map Event.hash h)
end)

let compile ~universe ~n prog =
  (* Pre-evaluate every rule once per distinct (process, local history)
     appearing in the universe. *)
  let enabled_intents : Spec.intent list HistTbl.t = HistTbl.create 64 in
  let process_history p history witness_idx =
    let key = (Pid.to_int p, history) in
    if not (HistTbl.mem enabled_intents key) then begin
      let rules = prog p history in
      let intents =
        List.filter_map
          (fun r ->
            let prop = r.guard universe in
            let ext = Prop.extent universe prop in
            (* locality check: the guard must be constant on the
               process's isomorphism class *)
            let cls = Universe.class_members universe (Pset.singleton p) witness_idx in
            let value = Bitset.mem ext witness_idx in
            Bitset.iter
              (fun j ->
                if Bitset.mem ext j <> value then
                  invalid_arg
                    (Format.asprintf
                       "Kprogram.compile: guard of %a (intent on history of \
                        length %d) is not local to the process"
                       Pid.pp p (List.length history)))
              cls;
            if value then Some r.intent else None)
          rules
      in
      HistTbl.add enabled_intents key intents
    end
  in
  Universe.iter
    (fun i z ->
      List.iter
        (fun pi ->
          let p = Pid.of_int pi in
          process_history p (Trace.proj z p) i)
        (List.init n (fun i -> i)))
    universe;
  Spec.make ~n (fun p history ->
      match HistTbl.find_opt enabled_intents (Pid.to_int p, history) with
      | Some intents -> intents
      | None -> [])

let guard_of_formula env f =
  (* static sanity: the syntax must at least parse into something whose
     atoms the env could resolve; resolution itself happens per
     universe *)
  Ok
    (fun u ->
      match Formula.eval u ~env f with
      | Ok ext -> Prop.of_extent u (Formula.print f) ext
      | Error e -> invalid_arg ("Kprogram.guard_of_formula: " ^ e))

type solution = { universe : Universe.t; spec : Spec.t; iterations : int }

let universes_equal a b =
  Universe.size a = Universe.size b
  && Universe.fold (fun _ z acc -> acc && Universe.index b z <> None) a true

let solve ?(mode = `Canonical) ?(max_iters = 10) ~n ~depth prog =
  let base = unrestricted ~n prog in
  let u0 = Universe.enumerate ~mode base ~depth in
  let rec iterate u k =
    if k > max_iters then
      Error
        (Printf.sprintf "no fixpoint after %d iterations (oscillating guards?)"
           max_iters)
    else
      let spec = compile ~universe:u ~n prog in
      let u' = Universe.enumerate ~mode spec ~depth in
      if universes_equal u u' then Ok { universe = u'; spec; iterations = k }
      else iterate u' (k + 1)
  in
  iterate u0 1
