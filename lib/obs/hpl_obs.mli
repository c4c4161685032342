(** Observability: hierarchical timed spans, monotonic counters,
    gauges, and exporters — the measurement substrate for every other
    layer (enumeration, knowledge evaluation, lint, sim, faults).

    Zero dependencies beyond the stdlib's [unix] clock, and zero cost
    when disabled: every probe compiles to one branch on the single
    {!enabled} flag, so instrumented hot paths stay within noise of
    their uninstrumented selves (the bench [--quick --assert-overhead]
    job holds this to <= 2% on the [enumerate/depth=7] row).

    Recording is single-threaded: there is no lock, so probes must all
    fire from one domain, and every Chrome event carries [tid] 0.

    Three exporters:
    - {!stats_table} — a human-readable aggregate (per-span-name count,
      total and max duration; counters; gauges),
    - {!stats_json} — the same aggregate as one line of JSON with a
      fixed schema [{"spans":[{"name","count","total_us","max_us"}],
      "counters":[{"name","value"}], "gauges":[{"name","last","max"}]}],
    - {!chrome_trace}/{!write_profile} — the raw event timeline in
      Chrome trace-event format (an array of [{name,ph,ts,pid,tid,...}]
      objects; load it in [about://tracing] or [ui.perfetto.dev]). *)

val enabled : bool ref
(** The master switch every probe branches on. [false] by default; do
    not set directly — use {!enable}/{!disable} so the clock epoch and
    buffers are managed. *)

val enable : unit -> unit
(** Reset all recorded data and start recording. *)

val disable : unit -> unit
(** Stop recording. Recorded data stays readable until {!enable} or
    {!reset}. *)

val reset : unit -> unit
(** Drop every recorded span, counter and gauge; re-anchor the clock. *)

(** {2 Probes} — all no-ops (one branch) when disabled. *)

val span : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] and records a complete event. [args] is
    only evaluated when enabled, after [f] returns, so argument
    rendering costs nothing on the disabled path. The event is recorded
    even when [f] raises (and the exception is re-raised), so truncated
    enumerations still leave a readable timeline. *)

val instant : ?args:(string * string) list -> string -> unit
(** A point-in-time marker (Chrome [ph:"i"]) — e.g. a budget trigger. *)

val count : string -> int -> unit
(** [count name n] adds [n] to the monotonic counter [name], creating
    it at 0 first. *)

val set_gauge : string -> float -> unit
(** [set_gauge name v] sets gauge [name] to [v], tracking its maximum. *)

(** {2 Readback} — for cross-check tests and bench breakdowns. *)

val counter : string -> int
(** Current value of a counter, 0 if never touched. *)

val gauge_max : string -> float option
val span_count : string -> int
(** Number of recorded spans named [name]. *)

val span_total_us : string -> float
(** Summed duration (µs) of every recorded span named [name]. *)

val span_names : unit -> string list
(** Distinct recorded span names, sorted. *)

(** {2 Exporters} *)

val json_string : Buffer.t -> string -> unit
(** [json_string b s] appends [s] to [b] as a quoted JSON string.
    Quote, backslash, newline, carriage return and tab get their short
    escapes, every other control character a [\u00XX] escape, and all
    other bytes pass through, so the output never contains a raw
    newline. This is the one JSON string escaper: the exporters below,
    the serve codec and the bench writer all use it. *)

val stats_table : unit -> string
val stats_json : unit -> string
(** One line of JSON; schema documented above. *)

val chrome_trace : unit -> string
(** The full timeline as Chrome trace-event JSON (an array). *)

val write_profile : string -> (unit, string) result
(** Write {!chrome_trace} to a file; [Error] with a one-line message on
    an unwritable path. *)
