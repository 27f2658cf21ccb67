(** Private L1 controller of the inclusive MESI host protocol.

    Stable states I, S, E, M; six transient states as in the gem5 baseline the
    paper counts for its complexity comparison: IS, IM, SM, IS_I (invalidated
    while fetching a shared copy — the data is used once and discarded), M_I
    (writeback in flight) and SINK_WB_ACK (shared-copy eviction waiting for
    its ack).  The requestor collects sharer invalidation acks itself, as told
    by the L2 ([L2_data.acks]). *)

exception Protocol_error of string

type t

val create :
  engine:Xguard_sim.Engine.t ->
  net:Net.t ->
  name:string ->
  node:Node.t ->
  l2:Node.t ->
  sets:int ->
  ways:int ->
  ?hit_latency:int ->
  ?tbe_capacity:int ->
  unit ->
  t

val node : t -> Node.t
val name : t -> string
val cpu_port : t -> Access.port
val probe : t -> Addr.t -> [ `I | `S | `E | `M | `Transient ]
val stats : t -> Xguard_stats.Counter.Group.t
val coverage : t -> Xguard_stats.Counter.Group.t

val coverage_space : Xguard_trace.Coverage.space
(** The (state × event) vocabulary the {!coverage} counters live in. *)

val outstanding : t -> int

(* ---- model-checker support (lib/check) ---- *)

val check_each : t -> (Addr.t -> [> `S | `E | `M | `T ] -> Data.t -> unit) -> unit
(** [f addr class data] for every resident line, in no particular order:
    stability class ([`T] for any transient, including lines with an open
    TBE) and current data. *)

val check_lines : t -> (Addr.t * [ `S | `E | `M | `T ] * Data.t) list
(** {!check_each}'s lines as a list sorted by block. *)

val check_fingerprint : t -> Buffer.t -> unit
(** Append all lines and open-TBE fields to a canonical model-checker state
    fingerprint (stats, coverage and trace state excluded). *)
