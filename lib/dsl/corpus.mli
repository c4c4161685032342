(** The shipped [corpus/specs/*.hpl], embedded at build time by a dune
    rule, so nothing that reads them depends on the working directory.

    Five of them are ports of registry builtins under the same protocol
    name; [Hpl_analysis.Dataflow.of_instance] analyzes a builtin through
    its port. *)

val specs : (string * string) list
(** [(path, text)] per spec, sorted by path; [path] is relative to the
    repository root (["corpus/specs/ring.hpl"]), for diagnostics. *)
