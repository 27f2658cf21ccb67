(** Configuration space of the evaluation (paper §3, Figure 2).

    Two host protocols x (accelerator-side cache | host-side cache | Crossing
    Guard x {Full-State, Transactional} x {one-level, two-level accelerator
    protocol}) = the paper's 8 Crossing Guard configurations plus 4 without
    it. *)

type host = Topology.host = Hammer | Mesi
(** Re-exported from {!Topology} so a config and a topology description agree
    on the host protocol by construction. *)

type xg_variant = Topology.variant = Full_state | Transactional

type accel_org =
  | Accel_side  (** (a) unsafe: an accelerator cache speaking the host protocol *)
  | Host_side  (** (b) safe but slow: loads/stores cross to a host-side cache *)
  | Xg_one_level of xg_variant  (** (c) Crossing Guard + private accel L1 *)
  | Xg_two_level of xg_variant  (** (d) Crossing Guard + L1s over a shared accel L2 *)

type t = {
  host : host;
  org : accel_org;
  topology : Topology.t option;
      (** [Some topo]: the system is built from the declarative topology — N
          guards, each fronting its own accelerator, sharing [host]'s protocol
          (and [org] is ignored).  [None]: the historical single-accelerator
          organization picker, byte-for-byte. *)
  num_cpus : int;
  num_accel_cores : int;  (** forced to 1 unless the org is two-level *)
  seed : int;
  (* cache geometry *)
  cpu_sets : int;
  cpu_ways : int;
  accel_sets : int;
  accel_ways : int;
  accel_l2_sets : int;
  accel_l2_ways : int;
  host_l2_sets : int;  (** MESI shared L2 *)
  host_l2_ways : int;
  (* latencies *)
  host_net_min : int;
  host_net_max : int;
  link_latency : int;  (** XG-accelerator link / host-side-cache access link *)
  link_ordered : bool;
      (** ablation A1: the paper requires an ordered XG-accelerator link;
          [false] deliberately violates that requirement *)
  mem_latency : int;
  dir_occupancy : int;
      (** finite directory pipeline throughput (cycles a message holds the
          controller); 0 = unbounded.  Used by the DoS experiment E7. *)
  (* guard knobs *)
  xg_timeout : int;
  suppress_put_s : bool;
  rate_limit : (float * int) option;  (** tokens per cycle, burst *)
  os_policy : Xguard_xg.Os_model.policy;
  (* lossy XG-accelerator link (PR 3) *)
  link_faults : Xguard_network.Network.Fault.config option;
      (** [None]: the historical perfectly-reliable link, byte-for-byte.
          [Some f]: the link runs the seq+checksum reliability layer and
          injects faults per [f] ([Fault.zero] = reliability on, injection
          off). *)
  link_fault_scripts : Xguard_network.Network.Fault.script list;
      (** deterministic Nth-message faults; any script also turns the
          reliability layer on *)
  link_retry_timeout : int;  (** initial retransmission timeout, cycles *)
  link_max_retries : int;  (** silent rounds before a fault is escalated *)
  quarantine_after : int;  (** consecutive faults before quarantine *)
  (* recovery lifecycle and hang budgets (PR 8) *)
  recovery : Xguard_xg.Xg_core.recovery option;
      (** [None]: quarantine stays terminal, byte-for-byte.  [Some r]: every
          guard runs the quarantine → reset → probation → rejoin lifecycle;
          the reset handler flushes the guard's accelerator cache stack. *)
  budgets : Xguard_xg.Xg_core.budgets;
      (** per-phase hang budgets, {!Xguard_xg.Xg_core.no_budgets} (all off,
          byte-for-byte) by default *)
}

val default : t
(** Hammer + Transactional one-level XG, 2 CPUs, perf-sized caches. *)

val make : ?base:t -> host -> accel_org -> t

val of_topology : ?base:t -> Topology.t -> t
(** Wrap a validated topology in a config: host taken from the topology,
    cache geometry / host-net latencies / guard knobs inherited from [base]
    (default {!default}).  Per-accelerator link parameters live in the
    topology's specs and override the config-level [link_latency] and
    [link_faults] for each guard. *)

val stress_sized : t -> t
(** Shrink caches and widen network jitter for the random tester (§4.1). *)

val name : t -> string
(** e.g. ["hammer/xg-trans-1lvl"]. *)

val host_label : host -> string
val org_label : accel_org -> string

val all_configurations : ?base:t -> unit -> t list
(** The 12 evaluated configurations, Hammer first. *)

val guard_specs : t -> Topology.accel_spec list
(** Every Crossing Guard the system builds, in construction order: [[]] for
    [Accel_side]/[Host_side], the topology's specs under [topology], and for
    a legacy XG organization one anonymous spec ([id = ""]) that reproduces
    its historical guard: variant and two-level shape from [org] ([cores =
    num_accel_cores]), [link_latency], [link_jitter = 0] on an ordered link
    else [link_latency], and no per-link faults. *)

val uses_xg : t -> bool

val reliable_link : t -> bool
(** Whether the XG-accelerator link runs the reliability layer (a fault model
    is installed or scripts are present). *)

val faults_active : t -> bool
(** Whether any fault can actually be injected — [Some Fault.zero] with no
    scripts is reliable but fault-free. *)
