(** Messages of the Hammer-like exclusive MOESI host protocol (paper §3.2.1).

    The protocol is broadcast-based, modelled on gem5's MOESI_hammer: requests
    go to the directory, which forwards them to every other cache; every cache
    responds to every forwarded request (data if owner, ack otherwise), and the
    requestor counts responses.  Writebacks are two-phase (Put announcement,
    WbAck, then WbData), and a Put that races with an ownership transfer is
    answered with a WbNack.

    [Get_s_only] is the first of the paper's three host modifications for
    Transactional Crossing Guard: a non-upgradable read request whose grant is
    never exclusive, used by XG for blocks the accelerator may only read. *)

type get_kind = Get_s | Get_s_only | Get_m

type body =
  (* cache -> directory *)
  | Get of { kind : get_kind }
  | Put  (** first phase of an owner writeback (M/O/E) *)
  | Wb_data of { data : Data.t; dirty : bool }  (** second phase, after WbAck *)
  | Unblock of { exclusive : bool }
      (** requestor ends the transaction; [exclusive] reports whether it now
          owns the block, so the directory can update its owner record *)
  (* directory -> caches *)
  | Fwd of { kind : get_kind; requestor : Node.t }
  | Wb_ack
  | Wb_nack
  | Mem_data of { data : Data.t }  (** speculative memory response *)
  (* cache -> requestor cache *)
  | Peer_ack of { shared : bool }
      (** [shared] true when the responder keeps a shared copy *)
  | Peer_data of { data : Data.t; dirty : bool }

type t = { addr : Addr.t; body : body }

val size : t -> int
val get_kind_to_string : get_kind -> string
val pp : Format.formatter -> t -> unit

val add_text : Buffer.t -> t -> unit
(** Append the text {!pp} prints, without [Format]. *)

