(** On-disk universe snapshots for warm starts (DESIGN.md §14).

    A snapshot file wraps a {!Hpl_core.Universe.serialize} body in a
    self-validating container:

    {v magic+version "HPLSNAP2" · key length · key ·
       FNV-1a-64 of body · body length · body v}

    Every load re-derives the checksum and compares the stored key to
    the requested one, so stale files (different protocol, params,
    depth, faults or reduce mode hashed to the same filename), truncated
    writes and bit rot all surface as {!Cache_invalid} — the server then
    falls back to re-enumeration and overwrites the bad file with a
    fresh snapshot. A snapshot can make a query faster, never wrong. *)

open Hpl_core

type error =
  | Absent  (** no snapshot file for this key — the normal cold miss *)
  | Cache_invalid of string
      (** a file exists but failed validation (version, key, checksum,
          length or body decode); callers must re-enumerate *)

val path_of : dir:string -> key:string -> string
(** The snapshot file for a cache key: [dir/<fnv64 key>.hplsnap]. *)

val save : dir:string -> key:string -> Universe.t -> (unit, string) result
(** Serialize and write atomically (temp file + rename), so a crashed
    or concurrent writer can never leave a half-written snapshot under
    the final name. [Error] when the universe has no snapshot form
    (symmetry-reduced) or on I/O failure. *)

val load : dir:string -> key:string -> Spec.t -> (Universe.t, error) result
