(** Assembles a runnable system for any {!Config.t}: host protocol, CPUs,
    memory, and one of the four accelerator organizations of Figure 2 or a
    multi-accelerator topology.

    One builder serves both host protocols: it carries one {!guard} per
    {!Config.guard_specs} entry (a legacy XG organization is a one-spec
    topology), each with its own link, core and accelerator hierarchy, all
    attached to the same host; the guard-less organizations attach a plain
    cache instead.  Guard internals are reached through {!t.guards} — there
    are no single-guard accessors.

    The returned record exposes processor-side ports for workloads and
    testers, the Crossing Guard internals for the safety experiments, and
    bandwidth/statistics accessors for the measurement experiments. *)

(** One Crossing Guard instance and the accelerator hierarchy behind it.
    [g_id] is the spec id ([""] for a legacy XG organization, whose
    component names carry no suffix); [g_ports] are the accelerator-side
    processor ports served through this guard, and [g_l1s] / [g_l2] /
    [g_internal] describe the modeled accelerator cache hierarchy (all empty
    for an unattached guard driven by the fuzzer).

    [g_perms] is this accelerator's OS permission table.  Guard 0's is the
    system-level {!t.perms} (so the fuzzer's pool restrictions keep working);
    every further guard gets a private table.  The split is what keeps
    quarantine contained: revoking a misbehaving accelerator's grants must
    not touch its neighbors'. *)
type guard = {
  g_id : string;
  g_core : Xguard_xg.Xg_core.t;
  g_link : Xguard_xg.Xg_iface.Link.t;
  g_xg_node : Node.t;
  g_accel_node : Node.t;
  g_ports : Access.port array;
  g_l1s : Xguard_accel.L1_simple.t array;
  g_l2 : Xguard_accel.L2_shared.t option;
  g_internal : Xguard_xg.Xg_iface.Link.t option;
  g_perms : Xguard_xg.Perm_table.t;
}

type t = {
  config : Config.t;
  engine : Xguard_sim.Engine.t;
  rng : Xguard_sim.Rng.t;
  memory : Memory_model.t;
  perms : Xguard_xg.Perm_table.t;
  os : Xguard_xg.Os_model.t;
  cpu_ports : Access.port array;
  accel_ports : Access.port array;
      (** concatenation of every guard's [g_ports] (or the guard-less
          organization's single port); use {!guards} to slice per guard *)
  guards : guard array;
      (** every Crossing Guard in the system, in topology order; a single
          anonymous entry for the legacy XG organizations, empty for
          [Accel_side]/[Host_side] *)
  shard_engines : Xguard_sim.Engine.t array;
      (** always [[||]]; exists for xbench's [topo4] and goes with xbench
          v2 *)
  host_net_bytes : unit -> int;
  host_net_messages : unit -> int;
  xg_port_to_host_bytes : unit -> int;
      (** bytes the XG ports sourced on the host network, summed over guards
          (0 without XG) *)
  link_bytes : unit -> int;
  coverage_groups : unit -> (string * Xguard_stats.Counter.Group.t) list;
  coverage_sets :
    unit ->
    (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list;
      (** per-controller-kind transition spaces with every live coverage group
          of that kind, ready for {!Xguard_trace.Coverage.analyze} (or
          {!coverage_reports}); merge across systems/runs by matching the
          leading name *)
  stats_groups : unit -> (string * Xguard_stats.Counter.Group.t) list;
  set_host_monitor : (src:string -> dst:string -> addr:int -> text:string -> unit) -> unit;
      (** monitoring hook over the host network, for debugging and tests *)
  link_stats : unit -> (string * int) list;
      (** reliability-layer counters plus injected-fault tallies for every XG
          link with faults armed, keys prefixed by guard id under a topology;
          [[]] when no fault could ever fire, so fault-free reports are
          unchanged *)
  quarantined : unit -> bool;
      (** whether any guard quarantined its accelerator *)
  check_enable : unit -> unit;
      (** Arm every network and link for the model checker: deliveries get
          (controller, block) choice tags, in-flight payloads are tracked for
          fingerprinting, and the guard/port/accelerator controller aliases
          are installed so events that synchronously mutate shared state fall
          in one partial-order-reduction conflict cluster.  Irreversible for
          this system; adds per-message tracking cost. *)
  check_set_delay_chooser : (lo:int -> hi:int -> int) -> unit;
      (** Route every unordered-latency RNG draw through the checker's
          choice enumerator. *)
  check_fingerprint : Buffer.t -> unit;
      (** Append a canonical dump of all architecturally-visible state —
          cache lines, open TBEs, directory/L2 records, guard tracking,
          in-flight messages, committed memory and the pending-event horizon
          — suitable for hashing into a visited-set key.  Requires
          {!check_enable} for the in-flight part. *)
  check_invariant : unit -> string option;
      (** SWMR, single-owner, data-value, guard G1b and guard-inclusivity
          over the current state; [Some msg] describes the first violation.
          Sound at every event boundary (blocks with an open transaction are
          skipped). *)
  check_quiescent_invariant : unit -> string option;
      (** Stronger checks that only hold with no events pending: no open or
          queued transactions anywhere, no transient lines, and full
          directory-(or L2-)/cache/guard ownership agreement in both
          directions.  A guard-less organization's plain cache is checked
          like a CPU. *)
  check_cpu_ctrls : int array;
      (** Per-[cpu_ports] controller ids for tagging driver-side events
          (sequencer pumps/retries) into the owning cache's conflict
          cluster. *)
  check_accel_ctrls : int array;
      (** Per-[accel_ports] controller ids ([-1] when the organization has no
          XG link, in which case driver events stay untagged). *)
}

val coverage_reports : t -> Xguard_trace.Coverage.report list
(** One report per entry of [coverage_sets], in order. *)

val sampler_period : int
(** Period (cycles) of the observer sampler {!build} installs on the engine
    when the calling domain has spans or metrics armed
    ([Xguard_sim.Engine.set_sampler] running [Xguard_obs.Metrics.tick]). *)

val build : ?attach_accel:bool -> ?pdes:bool -> Config.t -> t
(** [attach_accel:false] (XG organizations only) leaves the accelerator side
    of the XG link unregistered so a fuzzer or fault injector can take its
    place; [accel_ports] is then empty.

    [pdes] is accepted and ignored; it exists for xbench's [topo4] and goes
    with xbench v2. *)
