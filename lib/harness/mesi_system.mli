(** Builder for a MESI-host system: private L1s over a shared inclusive L2 and
    a memory controller, on one unordered network.  Extra L1-position peers
    (the XG port, or an unsafe accelerator-side cache) can be attached before
    use; unlike the Hammer broadcast protocol no census finalization is
    needed, because only the L2 addresses its peers. *)

type t

val create :
  ?num_cpus:int ->
  ?variant:Xguard_host_mesi.L2.variant ->
  ?l1_sets:int ->
  ?l1_ways:int ->
  ?l2_sets:int ->
  ?l2_ways:int ->
  ?ordering:Xguard_network.Network.ordering ->
  ?seed:int ->
  ?mem_latency:int ->
  unit ->
  t

include
  Host.S
    with type t := t
     and type msg = Xguard_host_mesi.Msg.t
     and module Net = Xguard_host_mesi.Net
     and module Port = Xguard_host_mesi.Xg_port
(** The host hooks of the system builder ([finalize] is a no-op). *)

val l2 : t -> Xguard_host_mesi.L2.t
val cpus : t -> Xguard_host_mesi.L1.t array
val add_l1_node : t -> string -> Node.t
(** Reserve a network node in L1 position (for the XG port or an
    accelerator-side cache). *)
