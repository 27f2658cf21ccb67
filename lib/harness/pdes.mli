(** The entry points xbench's [topo4] workload calls, run on the system's one
    sequential engine.  Each name exists for [topo4] (xbench/workloads.ml and
    xbench/test_xbench.ml are the only callers) and goes with xbench v2. *)

type t
(** A system to run; exists for xbench's [topo4]. *)

val create : System.t -> t
(** Wrap any system; exists for xbench's [topo4]. *)

val domains : t -> int
(** The system's guards + 1: [topo4]'s tester slices (0 for the CPU ports,
    [g + 1] for guard [g]'s).  Exists for xbench's [topo4]. *)

val engine_of : t -> dom:int -> Xguard_sim.Engine.t
(** The system's one engine, for every [dom]; exists for xbench's [topo4]. *)

type run_result = Drained | Hit_event_limit

val run_windows : ?max_events:int -> workers:int -> t -> run_result
(** {!Xguard_sim.Engine.run} on the system's engine; [workers] is ignored.
    Exists for xbench's [topo4]. *)

val cycles : t -> int
(** The engine clock; exists for xbench's [topo4]. *)

val events_fired : t -> int
(** Events the engine fired; exists for xbench's [topo4]. *)

val run_stress :
  workers:int -> seed:int -> ops_per_core:int -> Config.t -> System.t * Random_tester.outcome
(** [topo4]'s stress run: one {!Random_tester} per domain over a disjoint
    6-block slice, RNG derived from [(seed * 7 + 1, domain)], all on the one
    engine, outcomes merged with [cycles] the engine clock.  [workers] is
    ignored.  Exists for xbench's [topo4]. *)
