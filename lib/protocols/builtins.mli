(** Registers every in-tree protocol with {!Protocol.Registry}.

    Call {!init} (a no-op) early in any executable that wants the
    registry populated — the reference forces this module to link, and
    its initializer performs the registrations.

    Five builtins — [ping-pong], [ring], [quorum], [star-flood] and
    [mesh] — are defined only by their embedded [.hpl] text
    ({!Corpus.specs}). They are registered lazily: each is elaborated
    the first time the registry looks it up. *)

val init : unit -> unit

val port : string -> Elaborate.loaded option
(** The elaborated spec that defines the builtin of this name, or [None]
    for a builtin defined in OCaml. Elaborates it on first use; the
    registry entry of the same name is its [proto]. *)
