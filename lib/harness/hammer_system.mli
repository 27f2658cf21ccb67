(** Builder for a Hammer-host system: CPUs + directory + memory on one
    unordered network, with room to attach a Crossing Guard port or an
    accelerator-side cache as an extra peer.

    Construction is two-phase because the broadcast protocol needs the final
    cache census: create the system, attach any extra cache nodes, then
    {!finalize} to distribute peer counts and every directory shard's forward
    list.

    The blocking directory serializes transactions per block, which makes a
    single directory the whole-system bottleneck once several guards contend
    on it.  [dir_shards > 1] splits it into address-interleaved shards: block
    [b] is served by shard [b mod dir_shards], each shard is an independent
    {!Xguard_host_hammer.Directory} instance with its own occupancy server,
    and caches route each request with {!dir_router}.  Correctness is
    untouched because the protocol never needs two blocks to agree on an
    ordering — every transaction, queue and owner record is per block, so an
    interleaved partition of the block space partitions the directory state
    exactly. *)

type t

val create :
  ?num_cpus:int ->
  ?variant:Xguard_host_hammer.L1l2.variant ->
  ?sets:int ->
  ?ways:int ->
  ?ordering:Xguard_network.Network.ordering ->
  ?seed:int ->
  ?dir_latency:int ->
  ?mem_latency:int ->
  ?dir_occupancy:int ->
  ?dir_shards:int ->
  unit ->
  t
(** [dir_shards] (default 1) address-interleaves the directory.  One shard
    keeps the historical node name ["dir"], so existing single-directory
    systems are byte-identical; [n > 1] shards are named ["dir0".."dir<n-1>"]
    and all share one memory model (safe: shards serve disjoint blocks). *)

include
  Host.S
    with type t := t
     and type msg = Xguard_host_hammer.Msg.t
     and module Net = Xguard_host_hammer.Net
     and module Port = Xguard_host_hammer.Xg_port
(** The host hooks of the system builder.  [finalize] sets every cache's
    peer count and the directory's forward list: call it exactly once, after
    all caches exist. *)

val directory : t -> Xguard_host_hammer.Directory.t
(** Shard 0 — the only shard when [dir_shards = 1]. *)

val directories : t -> Xguard_host_hammer.Directory.t array
(** All shards, in interleave order. *)

val dir_router : t -> Addr.t -> Node.t
(** The address-interleave function: block [b] -> node of shard
    [b mod dir_shards].  Pass as the [directory] argument of any cache-like
    peer attached after {!create}. *)

val cpus : t -> Xguard_host_hammer.L1l2.t array

val add_cache_node : t -> string -> count_peers:(int -> unit) -> Node.t
(** Reserve a network node for an additional cache-like peer (the XG port, or
    an unsafe accelerator-side cache).  [count_peers] is called by
    {!finalize} with the number of *other* caches. *)

