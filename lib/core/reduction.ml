(* --- static independence --------------------------------------------

   Facts about a spec that no enumeration can discover on its own,
   computed by the abstract interpreter ([Hpl_analysis.Dataflow]) and
   handed down here:

   - [stable.(p)]: process p performs no receive in any reachable
     history. A stable process's enabled set depends only on its own
     local history — no other process's event can enable, disable or
     change it — and none of its events is a receive.
   - [bound.(p)]: a finite upper bound on the total number of events p
     performs in any computation; [total] is their sum.

   [total <= depth] is the no-truncation certificate: every computation
   of length [depth] that the enumeration explores is genuinely blocked
   (quiescent), not cut off by the bound, so "inevitable" arguments
   about blocked computations apply to every leaf. *)

module Independence = struct
  type t = { stable : bool array; bound : int array; total : int }

  let make ~stable ~bound =
    if Array.length stable <> Array.length bound then
      invalid_arg "Reduction.Independence.make: array length mismatch";
    { stable; bound; total = Array.fold_left ( + ) 0 bound }

  let applicable t ~depth = t.total <= depth
  let stable t p = t.stable.(p)
  let bound t p = t.bound.(p)
  let total t = t.total
  let n t = Array.length t.stable
end

type t = {
  sym : Symmetry.group option;
  por : bool;
  indep : Independence.t option;
}

let none = { sym = None; por = false; indep = None }
let por = { sym = None; por = true; indep = None }
let sym g = { sym = Some g; por = false; indep = None }
let full g = { sym = Some g; por = true; indep = None }
let is_none r = Option.is_none r.sym && not r.por
let symmetry r = r.sym
let uses_por r = r.por
let with_independence r ind = { r with indep = Some ind }
let independence r = r.indep

let label r =
  match (r.sym, r.por) with
  | None, false -> "none"
  | None, true -> "por"
  | Some _, false -> "sym"
  | Some _, true -> "full"

type mode = [ `None | `Sym | `Por | `Full ]

let mode_to_string = function
  | `None -> "none"
  | `Sym -> "sym"
  | `Por -> "por"
  | `Full -> "full"

let mode_of_string = function
  | "none" -> Ok `None
  | "sym" -> Ok `Sym
  | "por" -> Ok `Por
  | "full" -> Ok `Full
  | s -> Error (Printf.sprintf "unknown reduction %S (expected none|sym|por|full)" s)

let resolve mode ~symmetry:g =
  match (mode, g) with
  | `None, _ -> Ok none
  | `Por, _ -> Ok por
  | (`Sym | `Full), None ->
      Error
        "this protocol declares no symmetry generators (see `hpl list -v`); \
         only --reduce none|por apply"
  | `Sym, Some g -> Ok (sym g)
  | `Full, Some g -> Ok (full g)

(* --- ample-set restriction ------------------------------------------

   At a canonical state, let x0 be the globally least enabled event
   ([Event.compare] is pid-major and [Spec.enabled] is sorted, so x0
   heads the candidate list and every other event of its process
   follows it directly) and p its process. If p is stable and x0 is
   p's only enabled event, {x0} is a valid ample set for the blocked
   fragment of the universe:

   - x0 is inevitable: p's enabled set cannot be changed by any other
     process (stability), so in every blocked extension of this state
     p eventually performs x0 — a blocked computation omitting it would
     leave x0 enabled forever.
   - the canonical linearization of any blocked class through this
     state continues with x0: x0 is ready (its same-process predecessor
     is in the state; a stable p's event is never a receive, so it has
     no cross-process predecessor) and globally least among enabled
     events, hence the lexicographically least continuation.
   - canonicity is prefix-closed, so if the x0-extension is itself
     non-canonical, no canonical linearization of a blocked class
     passes through this state at all and pruning the siblings loses
     nothing.

   Together with [Independence.applicable] (every depth-limit leaf is
   genuinely blocked) this preserves every blocked computation's class,
   which is what knowledge queries over complete runs consume. States
   on the way to unvisited interleavings of the {e same} classes are
   dropped — that is the reduction. *)

let restrict ind cands =
  match cands with
  | e :: e' :: _ ->
      let p = Pid.to_int e.Event.pid in
      if
        p < Independence.n ind
        && Independence.stable ind p
        && not (Pid.equal e'.Event.pid e.Event.pid)
      then [ e ]
      else cands
  | _ -> cands
