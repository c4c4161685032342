(** Causal message delivery.

    A computation delivers causally when no process receives [m2]
    before [m1] if [send m1 ⤳ send m2] and both are addressed to it —
    the Birman–Schiper–Stephenson condition expressed with the vector
    timestamps of {!Hpl_core.Causality}. Causal delivery bounds how
    "out of order" learning can be: it is the weakest delivery rule
    under which a process's knowledge grows monotonically along every
    sender's causal history. *)

val delivers_causally : n:int -> Hpl_core.Trace.t -> bool
(** Whether every process's receive order respects the causal order of
    the corresponding sends. *)

val violations :
  n:int -> Hpl_core.Trace.t -> (Hpl_core.Msg.t * Hpl_core.Msg.t) list
(** Pairs [(m1, m2)] delivered to the same process in the order
    [m2, m1] although [send m1 ⤳ send m2]. Empty iff
    {!delivers_causally}. *)

val fifo_per_channel : Hpl_core.Trace.t -> bool
(** The weaker FIFO condition: per (src, dst) pair, receives follow
    send order. Causal delivery implies it. *)
