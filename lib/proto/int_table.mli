(** Hash tables keyed by ints: block addresses, page numbers, packed node
    pairs.

    The stdlib's polymorphic [Hashtbl] hashes every key through the runtime's
    generic hash and compares keys with polymorphic [compare]; on the guard's
    per-message path those calls cost more than the decision itself.  This
    table hashes and compares an int inline.  A key has at most one binding.
    Iteration order is a function of the hash, so any walk whose order can
    reach output must go through {!sorted_bindings}. *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table sized for about [n] keys (at least 16
    buckets), which it allocates on its first binding: a table that is
    never written costs one small record. *)

val length : 'a t -> int
val find : 'a t -> int -> 'a
(** @raise Not_found when the key is unbound. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val replace : 'a t -> int -> 'a -> unit
(** Binds the key, replacing its binding if it has one. *)

val remove : 'a t -> int -> unit
val reset : 'a t -> unit
(** Empties the table and releases its buckets, as when created. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** In unspecified order. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** In unspecified order. *)

val sorted_bindings : 'a t -> (int * 'a) list
(** The bindings in ascending key order — the canonical order every
    fingerprint writes a table in.  An empty table is not walked. *)
