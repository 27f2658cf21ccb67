(** Printf-free writers for model-checker state fingerprints.

    Every controller appends its canonical state to one [Buffer.t] per
    fingerprint.  These writers render exactly the bytes the matching
    [Printf] conversion would, without building an intermediate string, so
    the fingerprint format (and every digest pinned in MODEL_BASELINE.json)
    is unchanged. *)

val int : Buffer.t -> int -> unit
(** [%d]. *)

val hex : Buffer.t -> int -> unit
(** [%x]: lowercase, no prefix; a negative value renders as its unsigned
    63-bit pattern, as [Printf] does. *)

val bool : Buffer.t -> bool -> unit
(** [%b]: [true] or [false]. *)

val key : Buffer.t -> char -> int -> unit
(** [%c%d]: an entry's one-letter kind and its key, e.g. [a12]. *)

val field : Buffer.t -> string -> unit
(** [:%s]. *)

val field_int : Buffer.t -> int -> unit
(** [:%d]. *)

val field_opt : Buffer.t -> int option -> unit
(** [:%d] of the value, or [:-1] for [None] — the fingerprints' encoding of
    an absent datum. *)

val field_bool : Buffer.t -> bool -> unit
(** [:%b]. *)

val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string
(** Run one writer into a fresh buffer. *)

val pp_of : (Buffer.t -> 'a -> unit) -> Format.formatter -> 'a -> unit
(** A [Format] printer that prints what the writer writes, so a message's
    pretty-printer and its fingerprint text share one definition. *)
