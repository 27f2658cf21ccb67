(** Combined private L1/L2 cache controller of the Hammer-like host protocol.

    As in gem5's MOESI_hammer, the private L1I/L1D/L2 are one controller with
    stable states M, O, E, S, I.  Requests go to the directory; the directory
    broadcasts a Fwd to every other cache and each cache responds to the
    requestor (data if owner, ack otherwise), so the requestor counts
    responses.  Writebacks of owned blocks are two-phase and can be Nacked
    when they race with an ownership transfer.

    Two of the paper's host-protocol modifications for Transactional Crossing
    Guard live here and are controlled by {!variant}:
    - [Xg_ready] counts *responses* rather than acks/data separately, so zero
      or multiple data copies do not derail a transaction (Guarantee 2a), and
      sinks unexpected WbNacks with an error report instead of failing
      (Guarantee 1a).
    - [Baseline] enforces the unmodified protocol's expectations strictly
      (exactly one data source, no unexpected Nacks) and raises
      {!Protocol_error} on violation — used to check that correct
      configurations never rely on the relaxations. *)

type variant = Baseline | Xg_ready

exception Protocol_error of string

type t

val create :
  engine:Xguard_sim.Engine.t ->
  net:Net.t ->
  name:string ->
  node:Node.t ->
  directory:(Addr.t -> Node.t) ->
  variant:variant ->
  sets:int ->
  ways:int ->
  ?hit_latency:int ->
  ?tbe_capacity:int ->
  unit ->
  t
(** Registers [node] on [net].  [directory] routes a block to the directory
    shard that serves it — with a single directory it is a constant function;
    with an interleaved directory it is [shard (block mod num_shards)].  Call
    {!set_peer_count} before running. *)

val set_peer_count : t -> int -> unit
(** Number of other caches on the network (every one of them responds to each
    forwarded request). *)

val node : t -> Node.t
val name : t -> string
val cpu_port : t -> Access.port
val probe : t -> Addr.t -> [ `I | `S | `E | `O | `M | `Transient ]
val stats : t -> Xguard_stats.Counter.Group.t
val coverage : t -> Xguard_stats.Counter.Group.t

val coverage_space : Xguard_trace.Coverage.space
(** The (state × event) vocabulary {!coverage} counters live in: stable MOESI
    states plus the get transients (IS/IM/SM/OM keyed by TBE kind and base)
    and writeback transients (MI, and II after ownership was forwarded
    away). *)

val outstanding : t -> int
(** Open transactions (get TBEs plus pending writebacks). *)

(* ---- model-checker support (lib/check) ---- *)

val check_each : t -> (Addr.t -> [> `S | `E | `O | `M | `T ] -> Data.t -> unit) -> unit
(** [f addr class data] for every resident line, in no particular order: its
    stability class ([`T] for any transient, including lines with an open
    TBE) and current data.  The checker's SWMR and data-value invariants
    consume this. *)

val check_lines : t -> (Addr.t * [ `S | `E | `O | `M | `T ] * Data.t) list
(** {!check_each}'s lines as a list sorted by block. *)

val check_fingerprint : t -> Buffer.t -> unit
(** Append all lines and open-TBE fields to a canonical state fingerprint
    (stats, coverage and trace state excluded). *)
