(** Fuzz harness (paper §4, "bombard the Crossing Guard with a stream of
    random coherence messages to random addresses").

    Replaces the accelerator with {!Xguard_accel.Chaos_accel} while CPU cores
    run checked random traffic on the same small address pool.  Safety means:
    the run never raises, never deadlocks, every CPU operation completes, and
    every CPU load still observes coherent data — no matter what arrives on
    the accelerator link.  Guarantee violations are *expected* here; their
    count is reported.

    Under a multi-guard topology ({!Config.t.topology}) the chaos accelerator
    takes over guard 0's link only; the remaining guards keep their modeled
    accelerators, and their ports are driven as load-only consumer cores in
    the same checked run (except with the [Disjoint] pool, which denies
    accelerators the CPU addresses).  Their completion extends the safety
    property across guards: chaos on one link must not wedge or starve the
    neighbors. *)

type crash_info = {
  exn_text : string;  (** the exception that escaped the run — a failure *)
  seed : int;  (** [cfg.seed]; rerun with it to replay the interleaving *)
  trace_tail : Xguard_trace.Trace.event list;
      (** last events of the armed trace ring, oldest first (empty when the
          run was not traced) *)
}

type outcome = {
  chaos_messages : int;
  invalidations_ignored : int;
  cpu_ops_completed : int;
  cpu_ops_expected : int;
  cpu_data_errors : int;
  violations : int;
  violations_by_kind : (Xguard_xg.Os_model.error_kind * int) list;
  deadlocked : bool;
  crashed : crash_info option;
  seed : int;  (** the config seed that reproduces this run *)
  first_error_addr : int option;  (** block of the first CPU data error *)
  trace_tail : Xguard_trace.Trace.event list;
      (** on any failure (crash, deadlock or data error): the last armed-trace
          events, restricted to [first_error_addr] when one is known *)
  trace_dropped : int;
      (** events the trace ring had already overwritten when [trace_tail] was
          cut — forensics readers should know the trail is incomplete *)
  coverage_sets :
    (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list;
      (** the system's transition-coverage groups, for cross-run merging *)
  link_faults : (string * int) list;
      (** reliability-layer counters and injected-fault tallies for the XG
          link ([System.link_stats]); [[]] when the link cannot fault *)
  quarantined : bool;
      (** the guard escalated link faults all the way to quarantine *)
  rejoins : int;
      (** completed reset handshakes, summed over guards (PR 8 recovery) *)
  permakilled : bool;
      (** some guard exhausted its recovery lives and killed the link for
          good *)
  budget_trips : int;  (** per-phase hang-budget violations, summed over guards *)
}

(** How the chaos accelerator's address pool relates to the CPUs':

    - [Shared_rw]: same blocks, accelerator has write permission.  The fuzzer
      can then *legitimately* own blocks and store garbage in them, so CPU
      data checks are only advisory (the paper's Guarantee 2 discussion:
      Crossing Guard cannot protect data the accelerator may write).
    - [Disjoint]: the CPUs use different blocks; their data must stay exact.
    - [Shared_ro]: same blocks, accelerator limited to read-only — Guarantee
      0b then implies the CPUs' data must stay exact even under fuzzing. *)
type pool = Shared_rw | Disjoint | Shared_ro

val merge : outcome -> outcome -> outcome
(** Pure aggregation for sharded fuzz sweeps.  Counts add;
    [violations_by_kind] is re-derived in the canonical
    {!Xguard_xg.Os_model.all_error_kinds} order; [deadlocked] ORs; [crashed],
    [first_error_addr] and [trace_tail] keep the leftmost failure; [seed]
    keeps the left run's seed (the replay handle for that first failure);
    coverage groups concatenate per controller kind; [link_faults] sums by
    label (left order first); [quarantined] ORs.  Associative, so N workers'
    outcomes fold in job order into the outcome of the equivalent serial
    sweep. *)

val run :
  Config.t ->
  ?pool:pool ->
  ?cpu_ops:int ->
  ?chaos_period:int ->
  ?chaos_duration:int ->
  ?respond_probability:float ->
  ?requests_only:bool ->
  ?tarpit:int ->
  ?num_addresses:int ->
  unit ->
  outcome
(** [Config.t] must be an XG organization.  Default pool is [Shared_rw].
    [tarpit] switches the chaos accelerator to slow-but-honest Invalidate
    replies that many cycles late (see {!Xguard_accel.Chaos_accel.create}).
    When the calling domain's observer context holds a trace ring
    ([Xguard_obs.Obs.trace]), a failed run's outcome carries its tail. *)
