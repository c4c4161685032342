open Hpl_core
module Rng = Hpl_sim.Rng
module Faults = Hpl_faults.Faults

(* -- exact rationals --------------------------------------------------- *)

module Rat = struct
  type t = { num : int; den : int }

  exception Overflow

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  let mul_exn a b =
    if a = 0 || b = 0 then 0
    else
      let r = a * b in
      if r / b <> a then raise Overflow else r

  let add_exn a b =
    let s = a + b in
    if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
      raise Overflow
    else s

  let make num den =
    if den = 0 then invalid_arg "Mc.Rat.make: zero denominator";
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    if num = 0 then { num = 0; den = 1 }
    else
      let g = gcd (abs num) den in
      { num = num / g; den = den / g }

  let zero = { num = 0; den = 1 }
  let one = { num = 1; den = 1 }
  let add x y = make (add_exn (mul_exn x.num y.den) (mul_exn y.num x.den)) (mul_exn x.den y.den)
  let mul x y = make (mul_exn x.num y.num) (mul_exn x.den y.den)

  let div_int x k =
    if k = 0 then invalid_arg "Mc.Rat.div_int: division by zero";
    make x.num (mul_exn x.den k)

  let num x = x.num
  let den x = x.den
  let to_float x = float_of_int x.num /. float_of_int x.den
  let equal x y = x.num = y.num && x.den = y.den

  let compare x y =
    (* num/den in lowest terms with den > 0; cross-multiply, checked *)
    Stdlib.compare (mul_exn x.num y.den) (mul_exn y.num x.den)

  let to_string x =
    if x.den = 1 then string_of_int x.num
    else Printf.sprintf "%d/%d" x.num x.den

  let pp fmt x = Format.pp_print_string fmt (to_string x)
end

(* -- Wilson confidence intervals --------------------------------------- *)

type ci = { lo : float; hi : float; level : float }

(* Acklam's rational approximation to the standard normal quantile. *)
let inv_normal_cdf p =
  let a0 = -3.969683028665376e+01 and a1 = 2.209460984245205e+02 in
  let a2 = -2.759285104469687e+02 and a3 = 1.383577518672690e+02 in
  let a4 = -3.066479806614716e+01 and a5 = 2.506628277459239e+00 in
  let b0 = -5.447609879822406e+01 and b1 = 1.615858368580409e+02 in
  let b2 = -1.556989798598866e+02 and b3 = 6.680131188771972e+01 in
  let b4 = -1.328068155288572e+01 in
  let c0 = -7.784894002430293e-03 and c1 = -3.223964580411365e-01 in
  let c2 = -2.400758277161838e+00 and c3 = -2.549732539343734e+00 in
  let c4 = 4.374664141464968e+00 and c5 = 2.938163982698783e+00 in
  let d0 = 7.784695709041462e-03 and d1 = 3.224671290700398e-01 in
  let d2 = 2.445134137142996e+00 and d3 = 3.754408661907416e+00 in
  let tail q =
    (((((c0 *. q +. c1) *. q +. c2) *. q +. c3) *. q +. c4) *. q +. c5)
    /. ((((d0 *. q +. d1) *. q +. d2) *. q +. d3) *. q +. 1.0)
  in
  let p_low = 0.02425 in
  if p < p_low then tail (sqrt (-2.0 *. log p))
  else if p <= 1.0 -. p_low then
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a0 *. r +. a1) *. r +. a2) *. r +. a3) *. r +. a4) *. r +. a5)
    *. q
    /. (((((b0 *. r +. b1) *. r +. b2) *. r +. b3) *. r +. b4) *. r +. 1.0)
  else -.tail (sqrt (-2.0 *. log (1.0 -. p)))

let z_of_level level =
  if not (level > 0.0 && level < 1.0) then
    invalid_arg "Mc.z_of_level: level must be within (0, 1)";
  inv_normal_cdf (1.0 -. ((1.0 -. level) /. 2.0))

let wilson ~hits ~runs ~level =
  if hits < 0 || runs < 0 || hits > runs then
    invalid_arg "Mc.wilson: need 0 <= hits <= runs";
  if runs = 0 then { lo = 0.0; hi = 1.0; level }
  else
    let z = z_of_level level in
    let n = float_of_int runs in
    let p = float_of_int hits /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let center = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z /. denom
      *. sqrt (((p *. (1.0 -. p)) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    { lo = Float.max 0.0 (center -. half); hi = Float.min 1.0 (center +. half); level }

let covers c x = c.lo -. 1e-9 <= x && x <= c.hi +. 1e-9

(* -- configuration ------------------------------------------------------ *)

type config = {
  runs : int;
  depth : int;
  seed : int64;
  level : float;
  peers : int;
  peer_tries : int;
  ck_depth : int;
  base_n : int option;
  windows : (int * int * int list) list;
  max_seconds : float option;
}

let default =
  {
    runs = 10_000;
    depth = 8;
    seed = 1L;
    level = 0.95;
    peers = 12;
    peer_tries = 30;
    ck_depth = 2;
    base_n = None;
    windows = [];
    max_seconds = None;
  }

let check_config cfg =
  if cfg.runs < 1 then invalid_arg "Mc: runs must be >= 1";
  if cfg.depth < 0 then invalid_arg "Mc: negative depth";
  if not (cfg.level > 0.0 && cfg.level < 1.0) then
    invalid_arg "Mc: confidence level must be within (0, 1)";
  if cfg.peers < 1 then invalid_arg "Mc: peers must be >= 1";
  if cfg.peer_tries < 1 then invalid_arg "Mc: peer_tries must be >= 1";
  if cfg.ck_depth < 1 then invalid_arg "Mc: ck_depth must be >= 1";
  List.iter
    (fun (t0, t1, group) ->
      if t0 < 0 || t1 < t0 then invalid_arg "Mc: bad partition window";
      if group = [] then invalid_arg "Mc: empty partition group")
    cfg.windows

(* The walker's candidate filter for partition windows: while the
   global step index sits inside a window, deliveries crossing the
   group boundary are blocked — delayed, not lost. *)
let window_filter ~base_n windows =
  match windows with
  | [] -> None
  | ws ->
      Some
        (fun z e ->
          match Faults.delivery_channel ~n:base_n e with
          | None -> true
          | Some (src, dst) ->
              let step = Trace.length z in
              not
                (List.exists
                   (fun (t0, t1, group) ->
                     step >= t0 && step < t1
                     && List.mem src group <> List.mem dst group)
                   ws))

(* -- estimates ---------------------------------------------------------- *)

type status = Complete | Out_of_time

type estimate = {
  hits : int;
  runs : int;
  requested : int;
  mean : float;
  ci : ci;
  depth : int;
  seed : int64;
  elapsed : float;
  status : status;
}

let pp_estimate fmt e =
  Format.fprintf fmt "%.4f  %g%% CI [%.4f, %.4f]  (hits %d/%d%s)" e.mean
    (100.0 *. e.ci.level) e.ci.lo e.ci.hi e.hits e.runs
    (match e.status with
    | Complete -> ""
    | Out_of_time ->
        Printf.sprintf "; out of time after %d of %d walks" e.runs e.requested)

exception Budget

let one_walk (cfg : config) spec ~filter rng =
  Extension.walk ?filter spec ~choose:(fun k -> Rng.int rng k) ~depth:cfg.depth

(* Judges get the walk endpoint and the walk's own stream (for peer
   sampling), so the whole estimate is a pure function of the seed. *)
let run_estimate cfg spec (judge : Trace.t -> Rng.t -> bool) =
  check_config cfg;
  let base_n = Option.value cfg.base_n ~default:(Spec.n spec) in
  let filter = window_filter ~base_n cfg.windows in
  Hpl_obs.span "mc.estimate"
    ~args:(fun () ->
      [
        ("runs", string_of_int cfg.runs); ("depth", string_of_int cfg.depth);
      ])
  @@ fun () ->
  let rng0 = Rng.create cfg.seed in
  let started = Unix.gettimeofday () in
  let hits = ref 0 and completed = ref 0 in
  let status = ref Complete in
  (try
     for _ = 1 to cfg.runs do
       (match cfg.max_seconds with
       | Some lim when Unix.gettimeofday () -. started > lim -> raise Budget
       | _ -> ());
       let rng = Rng.split rng0 in
       let z = one_walk cfg spec ~filter rng in
       if judge z rng then incr hits;
       incr completed
     done
   with Budget -> status := Out_of_time);
  let elapsed = Unix.gettimeofday () -. started in
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "mc.walks" !completed;
    Hpl_obs.count "mc.hits" !hits;
    if elapsed > 0.0 then
      Hpl_obs.set_gauge "mc.runs_per_sec" (float_of_int !completed /. elapsed)
  end;
  {
    hits = !hits;
    runs = !completed;
    requested = cfg.runs;
    mean =
      (if !completed = 0 then 0.0
       else float_of_int !hits /. float_of_int !completed);
    ci = wilson ~hits:!hits ~runs:!completed ~level:cfg.level;
    depth = cfg.depth;
    seed = cfg.seed;
    elapsed;
    status = !status;
  }

let walks cfg spec =
  check_config cfg;
  let base_n = Option.value cfg.base_n ~default:(Spec.n spec) in
  let filter = window_filter ~base_n cfg.windows in
  let rng0 = Rng.create cfg.seed in
  List.init cfg.runs (fun _ -> one_walk cfg spec ~filter (Rng.split rng0))

let estimate_prop ?(view = Fun.id) cfg spec b =
  run_estimate cfg spec (fun z _rng -> Prop.eval b (view z))

(* -- formula semantics at a walk endpoint -------------------------------- *)

type st = {
  cfg : config;
  spec : Spec.t;
  base_n : int;
  view : Trace.t -> Trace.t;
  env : string -> Prop.t option;
  filter : (Trace.t -> Event.t -> bool) option;
}

let validate_formula ~base_n env f =
  let bad fmt = Printf.ksprintf (fun e -> Error e) fmt in
  let rec go = function
    | Formula.True | Formula.False -> Ok ()
    | Formula.Atom a -> (
        match env a with Some _ -> Ok () | None -> bad "unbound atom %S" a)
    | Formula.Not f | Formula.Common f -> go f
    | Formula.And (f, g) | Formula.Or (f, g) | Formula.Implies (f, g) -> (
        match go f with Ok () -> go g | e -> e)
    | Formula.Know (ps, f)
    | Formula.Sure (ps, f)
    | Formula.Everyone (ps, f)
    | Formula.Someone (ps, f) -> (
        if ps = [] then bad "empty process set"
        else
          match List.find_opt (fun p -> p < 0 || p >= base_n) ps with
          | Some p -> bad "process id p%d out of range (system has %d)" p base_n
          | None -> go f)
    | Formula.Ag _ | Formula.Ef _ | Formula.Af _ | Formula.Eg _
    | Formula.Ax _ | Formula.Ex _ ->
        bad
          "temporal operators are not supported by the sampler (a walk \
           endpoint has no branching structure); use hpl check"
  in
  go f

(* One constrained walk: processes in [ps] replay their exact
   projections of [z] (so an accepted result is [P]-indistinguishable
   from [z] by construction); everyone else walks freely. Rejection
   sampling: None when the walk ends before every pinned event has been
   replayed. *)
let peer st ps z rng =
  let pins =
    List.map
      (fun p -> (p, Array.of_list (Trace.proj z (Pid.of_int p)), ref 0))
      ps
  in
  let pinned_total =
    List.fold_left (fun a (_, arr, _) -> a + Array.length arr) 0 pins
  in
  let budget = max st.cfg.depth (Trace.length z) in
  let target = pinned_total + Rng.int rng (budget - pinned_total + 1) in
  let pin_of pid = List.find_opt (fun (p, _, _) -> p = pid) pins in
  let consumed () =
    List.for_all (fun (_, arr, cur) -> !cur = Array.length arr) pins
  in
  let finish y = if consumed () then Some y else None in
  let rec go y len =
    if len >= target then finish y
    else
      let cands =
        List.filter
          (fun e ->
            (match st.filter with None -> true | Some keep -> keep y e)
            &&
            match pin_of (Pid.to_int e.Event.pid) with
            | None -> true
            | Some (_, arr, cur) ->
                !cur < Array.length arr && Event.equal arr.(!cur) e)
          (Spec.enabled st.spec y)
      in
      match cands with
      | [] -> finish y
      | cands ->
          let e = List.nth cands (Rng.int rng (List.length cands)) in
          (match pin_of (Pid.to_int e.Event.pid) with
          | Some (_, _, cur) -> incr cur
          | None -> ());
          go (Trace.snoc y e) (len + 1)
  in
  go Trace.empty 0

let rec holds st f z rng =
  match f with
  | Formula.True -> true
  | Formula.False -> false
  | Formula.Atom a -> (
      match st.env a with
      | Some b -> Prop.eval b (st.view z)
      | None -> false (* unreachable: formulas are validated first *))
  | Formula.Not f -> not (holds st f z rng)
  | Formula.And (f, g) -> holds st f z rng && holds st g z rng
  | Formula.Or (f, g) -> holds st f z rng || holds st g z rng
  | Formula.Implies (f, g) -> (not (holds st f z rng)) || holds st g z rng
  | Formula.Know (ps, f) -> knows st (List.sort_uniq Int.compare ps) f z rng
  | Formula.Sure (ps, f) ->
      let ps = List.sort_uniq Int.compare ps in
      knows st ps f z rng || knows st ps (Formula.Not f) z rng
  | Formula.Everyone (ps, f) ->
      List.for_all
        (fun p -> knows st [ p ] f z rng)
        (List.sort_uniq Int.compare ps)
  | Formula.Someone (ps, f) ->
      List.exists
        (fun p -> knows st [ p ] f z rng)
        (List.sort_uniq Int.compare ps)
  | Formula.Common f ->
      (* E^ck_depth, an upper bound on CK = ∩ₖ Eᵏ over all (real)
         processes *)
      let all = List.init st.base_n Fun.id in
      let rec expand k g =
        if k = 0 then g else expand (k - 1) (Formula.Everyone (all, g))
      in
      holds st (expand st.cfg.ck_depth f) z rng
  | Formula.Ag _ | Formula.Ef _ | Formula.Af _ | Formula.Eg _ | Formula.Ax _
  | Formula.Ex _ ->
      invalid_arg "Mc.holds: temporal operator (validated out earlier)"

and knows st ps f z rng =
  (* veridicality first: z is its own peer *)
  holds st f z rng
  && begin
       let found = ref 0 and tries = ref 0 in
       let refuted = ref false in
       let max_tries = st.cfg.peers * st.cfg.peer_tries in
       while (not !refuted) && !found < st.cfg.peers && !tries < max_tries do
         incr tries;
         match peer st ps z rng with
         | None -> ()
         | Some y ->
             if not (Trace.equal y z) then begin
               incr found;
               if not (holds st f y rng) then refuted := true
             end
       done;
       if !Hpl_obs.enabled then begin
         Hpl_obs.count "mc.peer_walks" !tries;
         Hpl_obs.count "mc.peers_found" !found
       end;
       not !refuted
     end

let formula_state ?(view = Fun.id) (cfg : config) spec ~env =
  let base_n = Option.value cfg.base_n ~default:(Spec.n spec) in
  {
    cfg;
    spec;
    base_n;
    view;
    env;
    filter = window_filter ~base_n cfg.windows;
  }

let estimate_formula ?view cfg spec ~env f =
  check_config cfg;
  let st = formula_state ?view cfg spec ~env in
  match validate_formula ~base_n:st.base_n env f with
  | Error _ as e -> e
  | Ok () -> Ok (run_estimate cfg spec (fun z rng -> holds st f z rng))

(* -- robustness ---------------------------------------------------------- *)

type verdict = Robust | Degraded | Destroyed | Vacuous | Inconclusive

let verdict_to_string = function
  | Robust -> "robust"
  | Degraded -> "degraded"
  | Destroyed -> "destroyed"
  | Vacuous -> "vacuous"
  | Inconclusive -> "inconclusive"

type robustness = {
  verdict : verdict;
  baseline : estimate;
  faulty : estimate;
}

let pp_robustness fmt r =
  Format.fprintf fmt "%s (fault-free: %a; faulty: %a)"
    (verdict_to_string r.verdict) pp_estimate r.baseline pp_estimate r.faulty

let estimate_robust cfg spec ~faulty ?faulty_config ?view ~env f =
  let fcfg = Option.value faulty_config ~default:cfg in
  match estimate_formula { cfg with windows = [] } spec ~env f with
  | Error _ as e -> e |> Result.map (fun _ -> assert false)
  | Ok baseline -> (
      match estimate_formula ?view fcfg faulty ~env f with
      | Error _ as e -> e |> Result.map (fun _ -> assert false)
      | Ok ft ->
          let verdict =
            if baseline.hits = 0 then Vacuous
            else if ft.ci.hi < baseline.ci.lo then
              if ft.hits = 0 then Destroyed else Degraded
            else if ft.mean >= baseline.mean then Robust
            else Inconclusive
          in
          Ok { verdict; baseline; faulty = ft })

(* -- exact μ-prevalence (the cross-validation ground truth) -------------- *)

let exact_prevalence ?(view = Fun.id) ?(windows = []) ?base_n
    ?(max_nodes = 200_000) spec ~depth b =
  if depth < 0 then invalid_arg "Mc.exact_prevalence: negative depth";
  let base_n = Option.value base_n ~default:(Spec.n spec) in
  let filter = window_filter ~base_n windows in
  let keep z = match filter with None -> fun _ -> true | Some k -> k z in
  let nodes = ref 0 in
  let exception Out in
  Hpl_obs.span "mc.exact" ~args:(fun () -> [ ("depth", string_of_int depth) ])
  @@ fun () ->
  let rec go z k =
    incr nodes;
    if !nodes > max_nodes then raise Out;
    let endpoint () = if Prop.eval b (view z) then Rat.one else Rat.zero in
    if k = 0 then endpoint ()
    else
      match List.filter (keep z) (Spec.enabled spec z) with
      | [] -> endpoint ()
      | es ->
          let m = List.length es in
          List.fold_left
            (fun acc e ->
              Rat.add acc (Rat.div_int (go (Trace.snoc z e) (k - 1)) m))
            Rat.zero es
  in
  match go Trace.empty depth with
  | r -> Some r
  | exception Out -> None
  | exception Rat.Overflow -> None

let exact_formula_prevalence ?(view = Fun.id) ?(max_states = 200_000) spec
    ~depth ~env f =
  if depth < 0 then invalid_arg "Mc.exact_formula_prevalence: negative depth";
  let env' name =
    Option.map
      (fun b -> Prop.make (Prop.name b) (fun z -> Prop.eval b (view z)))
      (env name)
  in
  let u =
    Universe.enumerate ~mode:`Full
      ~budget:(Universe.budget ~max_states ())
      spec ~depth
  in
  match Universe.status u with
  | Universe.Truncated _ -> Ok None
  | Universe.Complete -> (
      match Formula.eval u ~env:env' f with
      | Error _ as e -> e |> Result.map (fun _ -> assert false)
      | Ok ext ->
          (* the universe is complete and [`Full], so every walk
             endpoint is stored *)
          let b = Prop.of_extent u "mc-exact" ext in
          Ok (exact_prevalence ~max_nodes:max_int spec ~depth b))

(* -- cross-validation ---------------------------------------------------- *)

type validation = {
  subject : string;
  atom : string;
  exact : Rat.t;
  est : estimate;
  ok : bool;
}

let pp_validation fmt v =
  Format.fprintf fmt "%s/%s: exact %a (%.4f) vs %a%s" v.subject v.atom Rat.pp
    v.exact (Rat.to_float v.exact) pp_estimate v.est
    (if v.ok then "" else "  ** CI MISS **")

let cross_validate ?(runs = 10_000) ?(depth = 4) ?(seed = 1L) ?(level = 0.95)
    ?(max_nodes = 200_000) ~name spec ~atoms =
  Hpl_obs.span "mc.validate" ~args:(fun () -> [ ("subject", name) ])
  @@ fun () ->
  List.filter_map
    (fun (atom, b) ->
      match exact_prevalence ~max_nodes spec ~depth b with
      | None -> None
      | Some exact ->
          let cfg = { default with runs; depth; seed; level } in
          let est = estimate_prop cfg spec b in
          Some
            { subject = name; atom; exact; est; ok = covers est.ci (Rat.to_float exact) })
    atoms

let cross_validate_registry ?runs ?depth ?seed ?level () =
  let module P = Hpl_protocols.Protocol in
  List.concat_map
    (fun proto ->
      let inst = P.default_instance proto in
      let spec = P.spec_of inst in
      let atoms = P.atoms_of inst in
      cross_validate ?runs ?depth ?seed ?level ~name:(P.instance_name inst)
        spec ~atoms)
    (P.Registry.list ())
