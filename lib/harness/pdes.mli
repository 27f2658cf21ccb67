(** Conservative parallel discrete-event simulation (intra-run [--sim-j]).

    Shards one run into per-domain {!Xguard_sim.Engine} instances along the
    guard links — domain 0 is the host side, domain [g + 1] guard [g]'s
    accelerator stack — and executes them over conservative time windows: if
    the earliest pending event anywhere is at [m] and the smallest guard-link
    latency is [L], every domain may fire through [m + L - 1] before any
    cross-domain message can arrive.  Deferred observability ops and
    cross-domain deliveries are replayed at the window barrier in canonical
    (time, domain, sequence) order.

    The decomposition, window bounds and replay order depend only on the
    configuration and simulated time, so output is byte-identical for every
    worker count (the workers only decide which thread runs a domain's
    window).  See DESIGN.md section 13 for the full argument. *)

val check_config : Config.t -> (unit, string) result
(** Whether a configuration is eligible for sharded execution.  Rejected:
    guard-less organizations, link fault injection / reliability, recovery
    policies, rate limiting, unordered guard links and jittered topology
    links (no fixed lookahead).  The [Error] is a user-facing reason. *)

val lookahead : Config.t -> int
(** The conservative lookahead [L]: the smallest guard-link Ordered latency
    (always >= 1). *)

type t
(** A window coordinator over a system built with [System.build ~pdes:true]. *)

val create : System.t -> t
(** @raise Invalid_argument if the system was not built with [~pdes:true]. *)

val domains : t -> int
(** Number of logical domains (guards + 1). *)

val engine_of : t -> dom:int -> Xguard_sim.Engine.t
(** Domain [dom]'s engine; [engine_of t ~dom:0] is the host engine. *)

val accel_port_domains : System.t -> int array
(** Per-[System.accel_ports]-index owning domain — drivers use it to create
    sequencers on the engine their port schedules on. *)

val events_fired : t -> int
(** Total events fired across all domain engines. *)

val cycles : t -> int
(** The run's clock: the furthest domain engine time. *)

type run_result = Drained | Hit_event_limit

val run_windows : ?max_events:int -> workers:int -> t -> run_result
(** Run the window loop to quiescence (or until [max_events] total events,
    checked at barriers).  [workers] sizes the worker team; any value >= 1
    produces identical simulation results.  Workers run their windows under
    the caller's observer context, whose recorder writes defer to the
    barrier.  When spans or metrics are armed, the observer samples
    ([Xguard_obs.Metrics.tick]) are taken between windows, at exactly the
    timestamps the sequential sampler would use: every period multiple the
    clock reaches, then the stop cycle. *)

val run_stress :
  workers:int ->
  seed:int ->
  ops_per_core:int ->
  ?event_limit:int ->
  Config.t ->
  System.t * Random_tester.outcome
(** The sharded random-coherence stress run: builds the system with
    [~pdes:true], arms one {!Random_tester} per domain (domain 0 on the CPU
    ports, domain [g + 1] on guard [g]'s ports, each over a disjoint
    6-block address slice, RNG derived from [(seed, domain)]), runs the
    window loop and merges the per-domain outcomes ([cycles] is the run
    clock, not the per-domain sum).  The workload decomposition differs from
    the sequential tester's (which shares addresses across all ports), so
    outcomes are comparable across worker counts — not with [--sim-j]-less
    runs. *)
