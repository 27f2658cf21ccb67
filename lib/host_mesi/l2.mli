(** Shared inclusive L2 of the MESI two-level host protocol.

    The L2 tracks exact sharers and the exclusive owner of every resident
    block, serializes transactions per block, orders cache-to-cache transfers
    (it tells the GetM requestor how many sharer acks to expect, and tells an
    exclusive owner to forward data directly), back-invalidates L1 copies when
    it replaces a line (inclusivity), and fetches from / writes back to the
    memory controller.

    The one host modification the paper needs for Transactional Crossing
    Guard lives here, switched by {!variant}: in [Xg_ready] mode the L2
    treats data and acks as interchangeable responses to a forwarded
    invalidation — in particular, when a (buggy) holder answers an Inv with a
    writeback instead of an InvAck, the L2 absorbs the data and acks the
    requestor on the holder's behalf.  [Baseline] raises {!Protocol_error}
    instead. *)

type variant = Baseline | Xg_ready

exception Protocol_error of string

type t

val create :
  engine:Xguard_sim.Engine.t ->
  net:Net.t ->
  name:string ->
  node:Node.t ->
  memctrl:Node.t ->
  variant:variant ->
  sets:int ->
  ways:int ->
  ?l2_latency:int ->
  unit ->
  t

val node : t -> Node.t
val probe : t -> Addr.t -> [ `Absent | `No_l1 | `Sharers of int | `Owned of Node.t ]
val busy : t -> Addr.t -> bool
val open_transactions : t -> int
val resident : t -> int
val stats : t -> Xguard_stats.Counter.Group.t
val coverage : t -> Xguard_stats.Counter.Group.t

val coverage_space : Xguard_trace.Coverage.space
(** The (state × event) vocabulary the {!coverage} counters live in. *)

(* ---- model-checker support (lib/check) ---- *)

val check_queue_tables : t -> int
(** Number of stall-queue tables currently registered (per-address plus
    per-set space queues).  Drained queues are removed in [close], so this is
    [0] on a quiescent L2; exposed for the regression test of that symmetry
    fix. *)

val check_lines : t -> (Addr.t * [ `No_l1 | `Sharers of Node.t list | `Owned of Node.t ] * Data.t * bool) list
(** Every resident line sorted by block: holder record, data, dirty bit. *)

val check_own_copies : t -> (Addr.t -> [> `S | `O ] -> Data.t -> unit) -> unit
(** [f addr class data] for every resident line no L1 owns, in no
    particular order: the L2's own copy, [`O] when dirty, [`S] when clean.
    When an L1 owns the block the L2 copy may legitimately be stale, so it
    is left out. *)

val check_fingerprint : t -> Buffer.t -> unit
(** Append lines, open transactions and stall queues to a canonical
    model-checker state fingerprint (stats and coverage excluded). *)
