(** Random coherence tester (paper section 4.1).

    Reimplements the gem5 Ruby random-tester methodology: each core makes
    rapid loads and stores to a small pool of addresses (so contention and
    replacements are frequent) and the tester checks the data of every load.
    Message latencies are randomized by the system under test's network.

    The checker enforces per-location sequential consistency — the coherence
    invariant — without assuming anything about the protocol:

    - stores carry unique tokens; at most one store per address is in flight
      across all cores (the tester's issue discipline, as in Ruby's tester);
    - a load must observe either a value committed no earlier than the load's
      issue point, or the store currently in flight.

    Any stale or lost value is reported as a data error.  The tester also
    detects deadlock: if the event queue drains while accesses are
    outstanding, the run fails. *)

(** Issue mix of one tester core.  [Mixed] is the historical behaviour (a
    coin flip per issue, stores capped at one in flight per address);
    [Producer] stores whenever the address has no store in flight and loads
    otherwise; [Consumer] only loads.  A producer/consumer split across ports
    of different guards exercises inter-accelerator sharing: every consumer
    load validates data that crossed two guard links. *)
type role = Mixed | Producer | Consumer

type outcome = {
  ops_completed : int;
  data_errors : int;
  deadlocked : bool;
  cycles : int;
  first_error_addr : int option;
      (** the block of the first data error, for pulling its event trail out
          of an armed {!Xguard_trace.Trace} buffer *)
  ops_per_port : int array;
      (** completed operations per entry of [ports] — the per-accelerator
          progress counters behind the topology isolation experiments *)
}

val merge : outcome -> outcome -> outcome
(** Pure aggregation for sharded sweeps: operation, error and cycle counts
    add ([ops_per_port] element-wise, padding the shorter array), [deadlocked]
    ORs, and [first_error_addr] keeps the leftmost reported address.
    Associative, so per-seed outcomes fold in job order into exactly the
    totals a serial sweep would have accumulated. *)

type t
(** An armed tester: sequencers created and injection events scheduled on its
    engine, checker state live, but the engine not yet run.  The split lets a
    driver arm several testers on one engine (xbench's [topo4] arms one per
    address slice) and run the engine itself. *)

val prepare :
  engine:Xguard_sim.Engine.t ->
  rng:Xguard_sim.Rng.t ->
  ports:Access.port array ->
  ?roles:role array ->
  addresses:Addr.t array ->
  ops_per_core:int ->
  ?store_fraction:float ->
  ?max_gap:int ->
  unit ->
  t
(** Everything {!run} does before running the engine: create one sequencer
    per entry of [ports] and schedule each core's randomized injection
    events.  Defaults match {!run}. *)

val finish : t -> drained:bool -> outcome
(** The tester's verdict once its engine has been run to completion (by any
    driver).  [drained] is whether the event queue fully drained — a
    watchdog stop or leftover outstanding accesses both report deadlock.
    [cycles] reads the tester's own engine clock. *)

val run :
  engine:Xguard_sim.Engine.t ->
  rng:Xguard_sim.Rng.t ->
  ports:Access.port array ->
  ?roles:role array ->
  addresses:Addr.t array ->
  ops_per_core:int ->
  ?store_fraction:float ->
  ?max_gap:int ->
  ?event_limit:int ->
  unit ->
  outcome
(** Drives one sequencer per entry of [ports].  [roles] (default all [Mixed],
    length must equal [ports]) fixes each core's issue mix; only [Mixed]
    cores consume store/load coin flips, so the default reproduces the
    role-less tester's RNG stream exactly.  [max_gap] is the largest random
    delay between consecutive issues by one core.  [event_limit] bounds the
    run as a watchdog (default 50 million events). *)
