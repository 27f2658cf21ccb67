(** Streaming run telemetry: periodic counter-delta / gauge / span-quantile
    samples, per-guard latency histograms, availability notes, and the
    {!Watchdog}'s anomaly verdicts — one recorder per job, merged with the
    same pure, job-ordered discipline as {!Spans} so campaign shards produce
    byte-identical streams for any [-j].

    Invisible unless armed: a recorder lives in the metrics slot of the
    domain's observer context ({!Obs}), and hook sites call the functions
    below only when one is armed, so metrics-off runs are byte-identical to
    builds without this module.

    Arming metrics arms the span layer too ([Campaign.observe] does it):
    per-tick quantiles read the context's span recorder. *)

type sample = Obs.sample = {
  m_ts : int;
  m_counters : (string * int) array;  (** nonzero deltas since previous tick *)
  m_gauges : (string * int) array;
  m_quants : (string * string * int * int * int * int) array;
      (** (segment, txn, n, p50, p95, p99) from the context's span recorder *)
}

type recorder = Obs.metrics

val create : ?watchdog:Watchdog.config -> ?sample_cap:int -> unit -> recorder

val with_armed : recorder -> (unit -> 'a) -> 'a
(** Run a thunk with [recorder] in the metrics slot of this domain's
    observer context, restoring the previous context afterwards. *)

(** {2 Sources} — registered by [System.build] and the drivers. *)

val reset_sources : recorder -> unit
val add_group : recorder -> name:string -> Xguard_stats.Counter.Group.t -> unit
(** Register a stats group; its counters stream as ["name.counter"]. *)

val add_gauge : recorder -> name:string -> (unit -> int) -> unit
(** Metrics-only gauge (e.g. a sequencer's completion count); the span
    layer's gauge registry is snapshotted automatically. *)

val watchdog_armed : recorder -> bool
val set_watchdog_reporter : recorder -> (rule:int -> event:int -> detail:string -> unit) -> unit

(** {2 Per-guard latency hooks} — fired by the guard link. *)

val e2e_open : recorder -> guard:string -> addr:int -> now:int -> unit
val e2e_close : recorder -> guard:string -> addr:int -> now:int -> unit
val inv_open : recorder -> guard:string -> addr:int -> now:int -> unit
val inv_close : recorder -> guard:string -> addr:int -> now:int -> unit

val note_avail : recorder -> guard:string -> down:int -> now:int -> unit
(** Record a guard's downtime for availability SLOs; called once post-run. *)

(** {2 Sampling} *)

val tick : Obs.t -> now:int -> unit
(** The one observer sample, timestamped [now]: the context's span gauges
    ({!Spans.sample_gauges}), then its metrics sample and the watchdog's
    verdicts on it.  Driven by the engine's sampler ([Engine.set_sampler],
    installed by [System.build]). *)

(** {2 Summaries} *)

module Summary : sig
  type block = {
    b_label : string;
    b_samples : sample list;
    b_events : Watchdog.event list;
    b_avails : (string * int * int) list;
  }

  type t

  val empty : t
  val is_empty : t -> bool

  val merge : t -> t -> t
  (** Pure and associative: blocks concatenate in job order, per-guard
      histograms merge-join on sorted (guard, metric) keys. *)

  val blocks : t -> block list
  val hists : t -> ((string * string) * Xguard_stats.Histogram.t) list
  val avails : t -> (string * int * int) list
  val events : t -> (string * Watchdog.event) list
  val trip_counts : t -> (string * int) list
  val samples : t -> int
  val replaced : t -> int
  val dropped : t -> int
end

val summary : label:string -> recorder -> Summary.t

(** {2 Emission} *)

val write_jsonl :
  out_channel ->
  period:int ->
  span_cells:(string * string * Xguard_stats.Histogram.t) list ->
  verdicts:Slo.verdict list ->
  Summary.t ->
  unit
(** The canonical [xguard-metrics-v1] JSONL stream: meta line, then per-job
    sample / watchdog / avail lines in job order, then merged per-guard and
    per-(segment, txn) histogram dumps, then SLO verdicts.  Deterministic for
    any [-j]. *)

val write_verdict : out_channel -> Slo.verdict -> unit

val write_prom :
  out_channel ->
  span_cells:(string * string * Xguard_stats.Histogram.t) list ->
  Summary.t ->
  unit
(** Prometheus-style text dump (counter totals, latency summaries,
    availability gauges). *)

(** {2 Stream merging} — the [xguard report] health dashboard. *)

module Report : sig
  type t

  val empty : t

  val add_stream : t -> name:string -> string list -> (t, string) result
  (** Parse one JSONL stream (its lines) and fold it in.  Histogram dumps
      merge exactly (bucket restoration is lossless), availability and
      watchdog trips accumulate, embedded SLO verdicts are kept per stream.
      Errors on unparsable JSON or a missing schema line. *)

  val streams : t -> (string * int) list
  (** (name, samples) per added stream, in add order. *)

  val samples : t -> int
  val guard_hists : t -> ((string * string) * Xguard_stats.Histogram.t) list
  val span_cells : t -> (string * string * Xguard_stats.Histogram.t) list
  val avails : t -> (string * int * int) list
  val trips : t -> (string * int * string * string) list
  (** (rule, ts, stream, detail) in stream order. *)

  val verdicts : t -> (string * Slo.verdict) list
  (** Embedded per-stream verdicts, for reports without [--slo]. *)

  val counters : t -> (string * int) list
  (** Counter totals summed across all streams, first-seen order. *)
end
