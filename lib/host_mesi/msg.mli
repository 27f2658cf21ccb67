(** Messages of the inclusive MESI two-level host protocol (paper §3.2.2).

    Modelled on gem5's MESI_Two_Level: private L1s above a shared, inclusive
    L2 that tracks exact sharers and owners.  The L2 is the ordering point.
    Cache-to-cache transfers happen on the L2's orders: the requestor is told
    how many invalidation acks to expect ([L2_data.acks]); sharers send their
    acks directly to the requestor; an exclusive owner forwards data directly
    to the requestor (and a copyback to the L2 on a read).

    [Get_s_only] is the non-upgradable read (gem5's GET_INSTR): its grant is
    never exclusive, which Crossing Guard needs for read-only pages. *)

type get_kind = Get_s | Get_s_only | Get_m

type grant = Grant_s | Grant_e | Grant_m

type body =
  (* L1 -> L2 *)
  | Get of { kind : get_kind }
  | Put_s  (** evict a shared copy; exact sharer tracking wants to know *)
  | Put_m of { data : Data.t; dirty : bool }  (** evict an exclusive copy *)
  | Unblock  (** requestor ends the transaction at the L2 *)
  (* L2 -> requestor L1 *)
  | L2_data of { data : Data.t; grant : grant; acks : int }
      (** grant plus the number of sharer InvAcks to collect *)
  | Wb_ack
  (* L2 -> holder L1s *)
  | Inv of { reply_to : Node.t }  (** drop the S copy, InvAck to [reply_to] *)
  | Recall  (** L2 replacement: owner must return the block to the L2 *)
  | Fwd of { kind : get_kind; requestor : Node.t }
      (** owner forwards the block directly to [requestor] *)
  (* L1 -> L1 *)
  | Inv_ack
  | Owner_data of { data : Data.t; dirty : bool; grant : grant }
  (* L1 -> L2 *)
  | Recall_data of { data : Data.t; dirty : bool }
  | Recall_ack  (** only from a confused holder; the modified L2 tolerates it *)
  | Copyback of { data : Data.t; dirty : bool }
      (** owner's copy back to the L2 on a forwarded read *)
  (* L2 <-> memory controller *)
  | Fetch
  | Mem_data of { data : Data.t }
  | Mem_wb of { data : Data.t }
  | Mem_wb_ack

type t = { addr : Addr.t; body : body }

val size : t -> int
val get_kind_to_string : get_kind -> string
val grant_to_string : grant -> string
val pp : Format.formatter -> t -> unit

val add_text : Buffer.t -> t -> unit
(** Append the text {!pp} prints, without [Format]. *)
