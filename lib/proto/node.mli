(** Endpoint identities on a network.

    A node is any controller that can send or receive messages: a CPU cache, a
    directory, the Crossing Guard, an accelerator cache.  Ids are unique per
    {!Registry}; names are for traces and error reports. *)

type t = private { id : int; name : string }

val id : t -> int
val name : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** Allocates node ids.  Each simulated system owns one registry so that node
    ids are dense and deterministic. *)
module Registry : sig
  type node = t
  type t

  val create : unit -> t
  val fresh : t -> string -> node
  val all : t -> node list
end
