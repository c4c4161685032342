(** System computations (§2).

    A trace is a finite sequence of events. It is a {e system
    computation} when (1) every process's projection is one of that
    process's computations and (2) every receive is preceded by its
    corresponding send. Condition (2) plus per-process sequencing is
    intrinsic well-formedness and is checked by {!well_formed};
    condition (1) depends on a system specification and is checked by
    {!Spec.valid}.

    Traces are persistent; extension at the right end ([snoc]) is O(1),
    which is what universe enumeration and the computation-extension
    principle (§3.4) need. *)

type t

val empty : t
val snoc : t -> Event.t -> t
val of_list : Event.t list -> t
val to_list : t -> Event.t list
(** Events in execution order. *)

val to_rev_list : t -> Event.t list
(** Events newest first, in O(1): the trace's own representation, not a
    copy. *)

val length : t -> int
val is_empty : t -> bool
val last : t -> Event.t option
val nth : t -> int -> Event.t
(** [nth z i] is the [i]-th event (0-based, execution order). Raises
    [Invalid_argument] if out of bounds. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** O(1): a structural hash of the ordered event sequence, cached inside
    the trace and maintained incrementally by {!snoc}/{!of_list}.
    [equal a b] implies [hash a = hash b]. *)

val proj : t -> Pid.t -> Event.t list
(** [proj z p] is [z]p — the subsequence of events on [p] (§2). *)

val proj_set : t -> Pset.t -> Event.t list
(** [proj_set z ps] is the subsequence of events on any process in [ps]. *)

val local_length : t -> Pid.t -> int
(** [local_length z p = List.length (proj z p)], without building it. *)

val send_count : t -> Pid.t -> int
(** Number of send events on [p] in [z] — the next message's [seq]. *)

val events_on : t -> Pset.t -> Event.t list
(** Alias of {!proj_set}. *)

val mem : t -> Event.t -> bool

val is_prefix : t -> t -> bool
(** [is_prefix x z] is the paper's [x ≤ z]. *)

val suffix : prefix:t -> t -> Event.t list
(** [suffix ~prefix:x z] is the paper's [(x, z)] — the suffix of [z]
    after removing the prefix [x]. Raises [Invalid_argument] if [x] is
    not a prefix of [z]. *)

val append : t -> Event.t list -> t
(** [append z es] is the concatenation [(z; es)]. *)

val sent : t -> Msg.t list
(** Messages sent in [z], in send order. *)

val received : t -> Msg.t list
(** Messages received in [z], in receive order. *)

val in_flight : t -> Msg.t list
(** Messages sent but not yet received in [z], in send order. *)

val well_formed : t -> bool
(** Intrinsic well-formedness: per-process [lseq]s run 0,1,2,…; message
    keys [(src,seq)] are sent at most once and consistent with the
    sender's send count; every receive is preceded by its corresponding
    send; no message is received twice. *)

val well_formed_error : t -> string option
(** [None] if well-formed, otherwise a human-readable reason. *)

val permutation_of : t -> t -> bool
(** [permutation_of x y] is [x \[D\] y] for any [D] covering both — the
    projections of every process agree (hence one is a permutation of
    the other, §3). *)

val remove : t -> Event.t -> t
(** [remove z e] is [(z − e)]: [z] with the (unique) occurrence of [e]
    deleted, as used by the computation-extension principle (§3.4).
    Raises [Invalid_argument] if [e] does not occur in [z]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
