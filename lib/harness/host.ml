(* What a host protocol contributes to a system, and nothing else: the
   host-parametric builder ([System.Build]) writes everything
   protocol-agnostic once over this signature, and [Hammer_system] /
   [Mesi_system] implement it.  A third host is one more module implementing
   [S] plus a case in [System.build]'s dispatch (DESIGN.md section 11).

   Hosts cannot see [System.guard] (the builder depends on them), so checks
   that need a guard receive its host-side port and core.  A guard-less
   organization's plain cache ([add_cache]) is a host peer like any CPU: the
   checks below include it, the CPU-only reports ([cpu_ctrls], the groups)
   do not. *)

(* Resident copies in the checker's stability lattice (see System). *)
type cls = [ `S | `E | `O | `M | `T ]
type lines = (Addr.t * cls * Data.t) list

module type S = sig
  type t
  type msg

  (* The host network. *)
  module Net : sig
    type t

    val messages_sent : t -> int
    val bytes_sent : t -> int
    val bytes_from : t -> Node.t -> int
    val set_monitor : t -> (src:Node.t -> dst:Node.t -> msg -> unit) -> unit
    val set_tracer : t -> (msg -> int * string) -> unit
    val enable_check_mode : t -> ?ctrl_of:(int -> int) -> addr_of:(msg -> int) -> unit -> unit
    val set_delay_chooser : t -> (lo:int -> hi:int -> int) -> unit
    val check_fingerprint : t -> Buffer.t -> unit
  end

  (* A guard's host-side port: a cache-position peer on the host network. *)
  module Port : sig
    type t

    val host_port : t -> Xguard_xg.Xg_core.host_port
    val attach_core : t -> Xguard_xg.Xg_core.t -> unit
    val node : t -> Node.t
    val stats : t -> Xguard_stats.Counter.Group.t
    val check_fingerprint : t -> Buffer.t -> unit
  end

  val msg_addr : msg -> Addr.t
  val add_msg_text : Buffer.t -> msg -> unit

  (* Construction: [of_config], then ports and plain caches in order, then
     [finalize] once every peer exists. *)
  val of_config : Config.t -> t
  val add_port : t -> string -> Port.t
  val add_cache : t -> string -> sets:int -> ways:int -> Access.port
  val finalize : t -> unit
  val engine : t -> Xguard_sim.Engine.t
  val rng : t -> Xguard_sim.Rng.t
  val registry : t -> Node.Registry.t
  val net : t -> Net.t
  val memory : t -> Memory_model.t
  val cpu_ports : t -> Access.port array

  (* Reports, host groups only: CPUs, then the host's own controllers. *)
  val cpu_ctrls : t -> int array
  val stats_groups : t -> (string * Xguard_stats.Counter.Group.t) list
  val coverage_groups : t -> (string * Xguard_stats.Counter.Group.t) list

  val coverage_sets :
    t -> (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list

  (* Checks.  [busy]: the block has an open host-side transaction.
     [recorded_owner]: node id the host records as the block's owner.
     [dir_name]/[cache_name]: how violation texts name the recording
     structure and a cache.  [caches]: every cache that can own a block
     (CPUs, then plain caches) with its node id.  [copies]: [f who addr
     class data] for every line of [caches], cache by cache, then for the
     host-level copies outside any cache, without building lists.
     [hidden_owner]: owner copies a guard cluster
     holds without a cache line.  [open_work]: why the host is not drained.
     [check_reverse]: every host ownership record names a live holder.
     [fingerprint]: host caches and controllers, canonically. *)
  val busy : t -> Addr.t -> bool
  val recorded_owner : t -> Addr.t -> int option
  val dir_name : string
  val cache_name : string
  val caches : t -> (string * int * lines) list
  val copies : t -> (string -> Addr.t -> cls -> Data.t -> unit) -> unit
  val hidden_owner : t -> Port.t -> Xguard_xg.Xg_core.t -> lines
  val open_work : t -> string option
  val check_reverse : t -> (Port.t * Xguard_xg.Xg_core.t) list -> string option
  val fingerprint : t -> Buffer.t -> unit
end
