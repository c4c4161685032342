(** The shipped [corpus/specs/*.hpl], embedded at build time by a dune
    rule, so nothing that reads them depends on the working directory.

    Five of them define registry builtins: {!Builtins} registers
    [ping-pong], [ring], [quorum], [star-flood] and [mesh] from this
    text, elaborating each on first lookup. *)

val specs : (string * string) list
(** [(path, text)] per spec, sorted by path; [path] is relative to the
    repository root (["corpus/specs/ring.hpl"]), for diagnostics. *)
