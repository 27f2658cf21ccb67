(** Parallel stress/fuzz campaigns over configurations × seeds.

    The paper's evaluation (§4) is a sweep: the random coherence tester and
    the fuzzer, run across the 12 configurations of Figure 2 under many
    seeds.  A campaign shards that matrix into independent jobs — one
    (kind, configuration, derived seed) triple each — fans them out over an
    {!Xguard_parallel.Pool} of domains, and folds the per-job outcomes back
    into one report using the pure [merge] functions of
    {!Random_tester}, {!Fuzz_tester}, {!Xguard_stats.Table} and
    {!Xguard_trace.Coverage}.

    {b Determinism invariant}: the rendered report is byte-identical for any
    worker count.  Jobs are enumerated in a fixed order (stress before fuzz,
    configuration-major, seed-minor), each job's seed is derived from the
    campaign base seed by position ({!Xguard_parallel.Pool.Seed}), every job
    is a self-contained deterministic simulation, and merging happens in job
    order regardless of completion order.  [-j N] may only change wall-clock
    time, never output — this is asserted by [test/test_campaign.ml] and
    [tools/check_campaign.sh].

    {b Crash isolation}: a job whose harness raises is reported as a crashed
    run for its configuration; the rest of the sweep is unaffected.

    [xguard campaign], [stress] and [fuzz] all run their seeds here.  A job
    depends on its (kind, configuration, seed) triple alone, so any campaign
    job replays as a one-seed [stress] or [fuzz] run. *)

type kind =
  | Stress  (** random coherence tester on every selected configuration *)
  | Fuzz  (** chaos accelerator on every selected XG configuration *)
  | Both

(** {1 Observers} *)

type observers = {
  trace : bool;
      (** give each job its own protocol event ring (8,192 events), for
          failure trails *)
  spans : bool;  (** arm a span recorder and report its attribution tables *)
  timeline : bool;  (** the span recorder also buffers a Perfetto timeline *)
  metrics : bool;
      (** arm a {!Xguard_obs.Metrics} recorder, always beside an armed span
          recorder (per-tick quantiles read it) *)
  watchdog : Xguard_obs.Watchdog.config option;  (** the metrics recorder's rules *)
}

val no_observers : observers

val observe :
  observers ->
  label:string ->
  (unit -> 'a) ->
  'a * Xguard_obs.Spans.recorder option * Xguard_obs.Metrics.Summary.t
(** [observe obs ~label f] runs [f ()] under one fresh observer context
    ({!Xguard_obs.Obs}) on the calling domain, holding a recorder for each
    observer [obs] asks for, and returns [f]'s result, the span recorder and
    the metrics summary under [label] (empty when metrics are off).  [f]
    reads the trace ring, when there is one, from the context. *)

(** {1 Jobs} *)

type stress_run = {
  tester : Random_tester.outcome;
  violations : int;  (** guard violations recorded by the OS model *)
  link_faults : (string * int) list;
      (** reliability-layer counters for the XG link ([System.link_stats]);
          [[]] whenever the link could never fault *)
  quarantined : bool;
  budget_trips : int;  (** summed over guards *)
  rejoins : int;  (** summed over guards *)
  permakilled : bool;
  coverage :
    (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list;
      (** [[]] unless coverage was collected *)
  trail : string option;
      (** the failing block's event trail; only when [observers.trace] and
          the run failed *)
}

type run =
  | Stressed of stress_run
  | Fuzzed of Fuzz_tester.outcome
  | Crashed of string  (** the job's harness raised: [Printexc.to_string] *)

type outcome = {
  config : Config.t;  (** as selected, before stress sizing *)
  seed : int;
  label : string;  (** the job's name in metrics streams and span timelines *)
  run : run;
  spans : Xguard_obs.Spans.Summary.t;  (** empty unless spans or metrics were armed *)
  timeline : Xguard_obs.Spans.recorder option;
      (** the job's span recorder, kept only when [observers.timeline] *)
  metrics : Xguard_obs.Metrics.Summary.t;  (** empty unless metrics were armed *)
}

val failed : run -> bool
(** A stress run fails on data errors, deadlock or guard violations; a fuzz
    run only on crash or deadlock (violations are what the fuzzer provokes,
    and its data checks are advisory — paper §2.3.2). *)

val trail : run -> (int option * string) option
(** The run's failure event trail and the block it follows, when it was
    traced and failed (a wrapped ring is noted on the first line). *)

val link_totals : (string * int) list -> int * int
(** [(injected faults, retransmitted frames)] of a link counter list, summed
    over every guard (a topology guard's counters carry its id as a
    prefix). *)

(** Knobs of the chaos accelerator, forwarded to {!Fuzz_tester.run}; [None]
    keeps its default. *)
type chaos = {
  period : int option;
  respond : float option;
  requests_only : bool option;
  tarpit : int option;
}

(** Where each job's seed comes from. *)
type seeding =
  | Derived of int
      (** job [i] runs the [i]th seed of the stream rooted at this base
          ({!Xguard_parallel.Pool.Seed}) and is labelled [KIND/CONFIG/seedN] *)
  | Consecutive of int
      (** the [s]th seed of every configuration is this seed [+ s], and jobs
          are labelled [seed N] — the sweeps of [xguard stress] and [fuzz] *)

(** {1 Campaigns} *)

type t = {
  tables : Xguard_stats.Table.t list;
      (** one summary table per campaign kind actually run *)
  span_tables : Xguard_stats.Table.t list;
      (** per-configuration latency-attribution tables (segment x txn
          percentiles), merged in job order from each job's span summary;
          empty unless [observers.spans] *)
  coverage : Xguard_trace.Coverage.report list;
      (** per-controller-kind transition coverage merged over every run;
          empty unless requested *)
  outcomes : outcome array;  (** every job's outcome, in job order *)
  jobs : int;
  failures : int;  (** jobs whose run {!failed} *)
  crashes : int;  (** jobs whose harness raised (isolated by the pool) *)
  metrics : Xguard_obs.Metrics.Summary.t;
      (** whole-campaign metrics summary, blocks in job order; empty unless
          metrics were requested *)
  span_total : Xguard_obs.Spans.Summary.t;
      (** every job's span summary merged in job order — the segment x txn
          histograms behind the metrics stream's [shist] lines and quantile
          SLOs; empty unless spans or metrics were requested *)
}

val job_count : kind -> configs:Config.t list -> seeds:int -> int
(** Number of jobs [run] will execute for this selection (fuzz jobs exist
    only for configurations with a Crossing Guard). *)

val run :
  ?workers:int ->
  ?collect_coverage:bool ->
  ?stress_ops:int ->
  ?fuzz_cpu_ops:int ->
  ?seeding:seeding ->
  ?observers:observers ->
  ?chaos:chaos ->
  kind ->
  configs:Config.t list ->
  seeds:int ->
  unit ->
  t
(** [run kind ~configs ~seeds ()] executes [seeds] runs of every selected
    configuration.  [workers] defaults to 1 (serial); [stress_ops] is
    operations per core per stress run (default 500, matching the CLI);
    [fuzz_cpu_ops] is checked CPU operations per core per fuzz run (default
    300, {!Fuzz_tester.run}'s); [seeding] defaults to [Derived 42].  A stress
    job sizes its configuration with {!Config.stress_sized} and seeds its
    tester with [seed * 7 + 1].  A fuzz job forwards [chaos] to
    {!Fuzz_tester.run}.  [collect_coverage] (default false) merges every
    run's transition-coverage groups into {!t.coverage}.  [observers]
    (default {!no_observers}) arms one set of recorders per job through
    {!observe}, on whichever worker domain runs it — with [observers.trace],
    each job's own ring yields its failure trail; summaries and trails merge
    purely in job order, so the result is byte-identical for any
    [workers]. *)

val render : t -> string
(** The full merged report: tables, coverage matrices (when collected) and a
    [PASS]/[FAIL] summary line.  Byte-identical for any [workers]. *)

val passed : t -> bool
(** No job failed. *)
