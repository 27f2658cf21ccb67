(** Transaction buffer entries (MSHRs).

    One entry per in-flight transaction, keyed by block address.  Capacity is
    enforced: a full table makes the controller reject or stall new requests,
    which is how back-pressure propagates to the sequencer. *)

type 'a t

val create : capacity:int -> unit -> 'a t
val capacity : _ t -> int
val count : _ t -> int
val is_full : _ t -> bool

val alloc : 'a t -> Addr.t -> 'a -> [ `Ok | `Full | `Busy ]
(** [`Busy] when a transaction for this address is already open — the caller
    decides whether that is a stall or a protocol error. *)

val find : 'a t -> Addr.t -> 'a option
val mem : _ t -> Addr.t -> bool

val update : 'a t -> Addr.t -> 'a -> unit
(** Raises [Not_found] if no entry is open for the address. *)

val dealloc : 'a t -> Addr.t -> unit
(** Raises [Not_found] if no entry is open for the address. *)

val to_list : 'a t -> (Addr.t * 'a) list
(** Open entries, ascending by address. *)
