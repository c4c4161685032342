(** The [hpl serve] daemon: a cached knowledge-query server.

    Protocol: line-delimited JSON. One request object per line, one
    reply object per line, over a Unix domain socket ({!run_socket}) or
    stdin/stdout ({!run_pipe} — what the tests and the bench client
    drive). A request names an operation and the same parameters the
    CLI takes as flags:

    {v {"op": "knows", "protocol": "token-ring:4", "depth": 6,
        "faults": "drop:p0->p1", "id": 1} v}

    Operations: ["knows"], ["check"] (["formula"] required), ["extent"]
    (["atom"] required), ["enumerate-stats"], ["server-stats"],
    ["shutdown"]. Optional fields: ["protocol"] | ["file"], ["depth"],
    ["faults"], ["mode"], ["max-states"], ["max-seconds"], ["id"]
    (echoed back verbatim), and ["reduce"] on ["enumerate-stats"] only:
    like their CLI twins, the other ops take no reduction and reply
    exit 2 to the field.

    Replies carry ["ok"], the CLI-equivalent ["exit"] code, the exact
    bytes the CLI would print as ["answer"] / ["error"] (conformance by
    construction — see {!Query}), cache provenance (["cache"]:
    hit|miss|bypass, ["source"]: memory|snapshot|enumerated|bypass), a
    ["universe"] summary, ["elapsed_us"], and the server's cumulative
    ["counters"]. Malformed frames get an ["ok": false, "exit": 2]
    reply and do not count as requests; EOF and ["shutdown"] both stop
    the server cleanly.

    Universes are memoized across requests in an LRU {!Cache} and,
    when [cache_dir] is set, persisted as {!Snapshot} files keyed by
    {!cache_key} for warm starts. Requests with a CPU-time budget
    ([max-seconds]) bypass both layers — their universes are
    nondeterministic by nature. Counters keep the invariant
    [cache_hit + cache_miss = requests] (bypassed and failed requests
    are counted separately), mirrored into the [Hpl_obs] counter
    surface as [server.cache_hit] / [server.cache_miss] /
    [server.requests] when observability is enabled. *)

type config = {
  max_cached_states : int;
      (** LRU budget, in stored computations across all cached
          universes *)
  cache_dir : string option;  (** snapshot directory; [None] disables *)
}

type t

val create : config -> t
(** Raises [Invalid_argument] when [max_cached_states < 1]. *)

val cache_key : Query.setup -> mode:Hpl_core.Universe.mode ->
  reduce:Hpl_core.Reduction.t -> string
(** The canonical identity of a request's universe: protocol source key
    (see {!Query.setup.src_key}), depth, fault scenario, reduce label
    (with the attached-independence bit — por-with-independence prunes
    differently than plain por), mode and state budget. Everything that
    can change the enumerated universe is in the key; anything less
    would let two different universes collide. *)

val handle_line : t -> string -> string
(** Process one request frame, return one reply frame (no trailing
    newline). Never raises on bad input — errors become replies. *)

val stopped : t -> bool
(** True once a ["shutdown"] request has been processed. *)

val counters : t -> (string * int) list
(** Cumulative counters: requests, cache_hit, cache_miss, bypass,
    snapshot_load, snapshot_invalid, snapshot_write, evictions,
    cached_entries, cached_states, errors. *)

val run_pipe : t -> in_channel -> out_channel -> unit
(** Serve frames from an input channel until EOF or shutdown. *)

val run_socket : t -> path:string -> (unit, string) result
(** Bind a Unix domain socket at [path] (replacing a stale socket file)
    and serve connections sequentially until shutdown. [Error] with a
    one-line message when the socket cannot be bound. *)
