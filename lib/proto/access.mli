(** Processor-side memory operations: the contract between a core model (CPU
    sequencer or accelerator core) and the private cache that serves it. *)

type op = Load | Store of Data.t

type t = { op : op; addr : Addr.t }

val load : Addr.t -> t
val store : Addr.t -> Data.t -> t
val is_store : t -> bool
val pp : Format.formatter -> t -> unit

val add_text : Buffer.t -> t -> unit
(** Append the text {!pp} prints, without [Format]. *)

(** What a private cache exposes upward.  [issue] returns [false] when the
    cache cannot accept the access now (MSHR full, or a transaction for the
    same block is already open) and the caller must retry later.  When accepted,
    [on_done] fires exactly once with the value read (loads) or written
    (stores), at the cycle the access commits. *)
type port = { issue : t -> on_done:(Data.t -> unit) -> bool }
