(** How knowledge is transferred (§4.3, Theorems 4–6 and Lemma 4).

    The paper's key theorems: chains of knowledge are gained and lost
    {e sequentially}. If [¬(Pn knows b)] at [x] and
    [P1 knows … Pn knows b] later at [y], information flowed along a
    process chain [<Pn … P1>] in [(x,y)]; dually, losing established
    nested knowledge requires a chain [<P1 … Pn>]. Lemma 4 pins down
    the per-event mechanics for predicates local to [P̄]: a receive
    cannot lose knowledge, a send cannot gain it, an internal event
    does neither.

    All checkers return [true] when the implication they embody holds
    for the given instance (vacuously if the premise fails); the
    [explain_*] variants also extract the chain witness the theorem
    promises. *)

type gain_report = {
  premise : bool;  (** [¬(Pn knows b) at x] ∧ nested knowledge at [y] *)
  chain : Event.t list option;  (** witness [<Pn … P1>] in [(x,y)] *)
}

type loss_report = {
  premise : bool;  (** nested knowledge at [x] ∧ [¬(Pn knows b) at y] *)
  chain : Event.t list option;  (** witness [<P1 … Pn>] in [(x,y)] *)
}

val theorem4 :
  Universe.t -> Pset.t list -> Prop.t -> x:Trace.t -> y:Trace.t -> bool
(** Theorem 4: [(P1 knows … Pn knows b) at x ∧ x \[P1 … Pn\] y] ⇒
    [(Pn knows b) at y]. *)

val theorem4_sure :
  Universe.t -> Pset.t list -> Prop.t -> x:Trace.t -> y:Trace.t -> bool
(** The [sure] variant of Theorem 4 (the paper's corollary), in its
    sound reading: [P1 knows … P(n-1) knows (Pn sure b) at x ∧
    x \[P1…Pn\] y ⇒ (Pn sure b) at y]. Replacing {e every} level by
    [sure] is falsifiable — a process can be sure of another's
    unsureness — and the test-suite keeps the counterexample. *)

val theorem5_gain :
  Universe.t -> Pset.t list -> Prop.t -> x:Trace.t -> y:Trace.t -> bool
(** Theorem 5 (knowledge gain): [x ≤ y], [¬(Pn knows b) at x],
    [(P1 knows … Pn knows b) at y] ⇒ chain [<Pn … P1>] in [(x,y)]. *)

val explain_gain :
  Universe.t -> Pset.t list -> Prop.t -> x:Trace.t -> y:Trace.t -> gain_report

val theorem6_loss :
  Universe.t -> Pset.t list -> Prop.t -> x:Trace.t -> y:Trace.t -> bool
(** Theorem 6 (knowledge loss): [x ≤ y],
    [(P1 knows … Pn knows b) at x], [¬(Pn knows b) at y] ⇒ chain
    [<P1 … Pn>] in [(x,y)]. *)

val explain_loss :
  Universe.t -> Pset.t list -> Prop.t -> x:Trace.t -> y:Trace.t -> loss_report

(** Lemma 4: effect of one event on [P]'s knowledge of a predicate
    local to [P̄]. Each checker takes the computation [x], the event
    [e] on [P], and verifies its clause. *)
module Lemma4 : sig
  val receive_no_loss :
    Universe.t -> p:Pset.t -> b:Prop.t -> x:Trace.t -> e:Event.t -> bool
  (** [(P knows b) at x ⇒ (P knows b) at (x;e)] for [e] a receive. *)

  val send_no_gain :
    Universe.t -> p:Pset.t -> b:Prop.t -> x:Trace.t -> e:Event.t -> bool
  (** [(P knows b) at (x;e) ⇒ (P knows b) at x] for [e] a send. *)

  val internal_no_change :
    Universe.t -> p:Pset.t -> b:Prop.t -> x:Trace.t -> e:Event.t -> bool
  (** Equality for [e] internal. *)

  val requires_locality : Universe.t -> Pset.t -> Prop.t -> bool
  (** Whether the lemma's locality premise ([b] local to [P̄]) holds —
      exposed so tests can select the instances it covers. *)
end

val corollary_gain_receives :
  Universe.t -> p:Pset.t -> b:Prop.t -> x:Trace.t -> y:Trace.t -> bool
(** Corollary: [b] local to [P̄], [¬(P knows b) at x],
    [(P knows b) at y], [x ≤ y] ⇒ [P] has a receive event in [(x,y)]. *)

val corollary_loss_sends :
  Universe.t -> p:Pset.t -> b:Prop.t -> x:Trace.t -> y:Trace.t -> bool
(** Corollary: [b] local to [P̄], [(P knows b) at x],
    [¬(P knows b) at y], [x ≤ y] ⇒ [P] has a send event in [(x,y)]. *)
