(** Transaction spans: latency attribution for coherence crossings.

    Every accelerator-originated transaction (GetS/GetM/PutS/PutE/PutM) gets a
    span id when it enters the guard link, and every sequencer access gets one
    when it is enqueued.  As the transaction moves — sequencer queue, link
    transit, XG decision, host protocol, response transit — instrumentation
    hooks close one {e segment} after another, each feeding a per-(segment,
    transaction-type) latency histogram and, optionally, a timeline buffer
    that {!Perfetto} turns into a Chrome trace.

    {2 Arming}

    A {!recorder} is armed per domain with {!with_armed}, which sets the
    span slot of the domain's observer context ({!Obs}): each campaign
    worker arms its own recorder and the summaries merge purely in job
    order.  Hook sites resolve the context once and call the hooks below
    with its recorder only when one is armed, so spans-off runs execute the
    exact seed instruction stream (byte-identical output).

    {2 Span id threading}

    Link frames are not widened to carry ids.  Instead the recorder keys
    open crossings by block address, exploiting the guard invariant that at
    most one accelerator transaction per block is in flight at a time (the
    XG stalls or NACKs the rest).  Hooks are defensive — unknown or
    replayed addresses are ignored, and a re-opened address replaces the
    stale entry (counted in {!Summary}) — so fault injection and the chaos
    accelerator cannot wedge the recorder.  DESIGN.md §9 has the full
    lifecycle. *)

(** Transaction type attached to each sample.  The five guard message kinds,
    [Inv] for host-initiated invalidate round trips, and [Load]/[Store] for
    sequencer-level segments (the sequencer sees memory accesses, not yet
    coherence messages). *)
type txn = Obs.txn = Get_s | Get_m | Put_s | Put_e | Put_m | Inv | Load | Store

(** Segment taxonomy — one per attributable phase of a crossing.  See
    DESIGN.md §9 for where each begins and ends. *)
type seg =
  | Seq_queue  (** sequencer enqueue -> cache accepted the access *)
  | Seq_retry  (** one cache-busy reject -> re-issue (per retry) *)
  | Seq_e2e  (** sequencer enqueue -> completion (matches seq latency hist) *)
  | Link_req  (** guard-bound request: link send -> delivered at XG *)
  | Xg_decide  (** XG delivery -> host issue or direct ack *)
  | Host_fetch  (** host port GET issue -> data granted *)
  | Host_writeback  (** host port PUT issue -> writeback settled *)
  | Host_defer  (** host port held the request behind a same-block put *)
  | Host_relinquish  (** host-prompted writeback (no core notify) *)
  | Link_resp  (** accel-bound response: link send -> delivered *)
  | Inv_roundtrip  (** XG invalidate send -> accel ack delivered back *)
  | Inv_race  (** a put crossed an in-flight invalidate (instant) *)
  | Inv_timeout  (** invalidate watchdog fired (instant) *)
  | Xg_stall  (** GET parked behind an in-flight put at the XG *)
  | Link_retry  (** one frame retransmission on the guard link *)

val txn_name : txn -> string

val txn_count : int
val seg_count : int

val txn_name_of_index : int -> string
val seg_name_of_index : int -> string

(** {2 Recorder lifecycle} *)

type recorder = Obs.spans

val create : ?timeline:bool -> ?timeline_cap:int -> ?sample_cap:int -> unit -> recorder
(** [timeline] (default [false]) additionally buffers every segment sample as
    a timeline event for Perfetto export, up to [timeline_cap] events
    (default 1_000_000); past the cap events are counted as dropped, and the
    histograms keep accumulating.  [sample_cap] bounds the time-series
    sampler the same way. *)

val with_armed : recorder -> (unit -> 'a) -> 'a
(** Run a thunk with [recorder] in the span slot of this domain's observer
    context, restoring the previous context afterwards (exceptions
    included). *)

(** {2 Recording} *)

val fresh_id : recorder -> int
(** Next span id. *)

val record : recorder -> seg -> txn -> span:int -> addr:int -> ts:int -> dur:int -> unit
(** Close one segment: observe [dur] in the (seg, txn) histogram and append a
    timeline event when the recorder buffers timelines. *)

(** {3 Crossing lifecycle (guard link + XG + host ports)} *)

val xreq_open : recorder -> txn -> addr:int -> now:int -> unit
(** An accelerator request entered the guard link ([To_xg_req] send). *)

val xreq_delivered : recorder -> addr:int -> now:int -> unit
(** That request arrived at the XG: closes [Link_req]. *)

val xg_decided : recorder -> addr:int -> now:int -> unit
(** The XG resolved the request (host issue or direct ack): closes
    [Xg_decide]. *)

val resp_sent : recorder -> addr:int -> now:int -> unit
(** The XG sent the accel-bound response ([To_accel_resp]). *)

val resp_delivered : recorder -> addr:int -> now:int -> unit
(** The response arrived at the accelerator: closes [Link_resp] and, for
    GETs, retires the crossing. *)

val host_put_issued : recorder -> addr:int -> unit
(** The XG forwarded this writeback to a host port; the crossing then stays
    open until {!put_settled}, even after the accel ack is delivered. *)

val put_settled : recorder -> addr:int -> unit
(** A host-forwarded writeback finished on the host side; retires the
    crossing once the accel response has also been delivered. *)

val lookup : recorder -> addr:int -> (int * txn) option
(** Span id and transaction type of the open crossing on [addr], for
    host-side hooks that attribute their own segments ([Host_fetch],
    [Host_defer]). *)

val lookup_put : recorder -> addr:int -> (int * txn) option
(** Like {!lookup}, but resolves the still-settling writeback on [addr] even
    after the accel ack retired the request/response half of the crossing —
    and even if a follow-up GET has already opened a new crossing on the
    same block.  Host ports use this to attribute [Host_writeback]. *)

(** {3 Host-port segments} *)

val host_segment :
  recorder -> seg -> ?put:bool -> addr:int -> born:int -> now:int -> txn:txn -> unit -> unit
(** A host port closes one of its own segments ([Host_fetch], [Host_defer])
    from [born] to [now], on the crossing open on [addr] ({!lookup}, or
    {!lookup_put} when [put]) or, when none is, on span 0 with [txn]. *)

val host_put_done : recorder -> addr:int -> born:int -> now:int -> notify_core:bool -> unit
(** A host port's writeback settled: [Host_writeback] on the settling
    crossing, or a fresh [Host_relinquish] span when the port initiated it;
    then {!put_settled} when the guard core is notified. *)

(** {3 Invalidate lifecycle} *)

val inv_open : recorder -> addr:int -> now:int -> unit
(** The XG sent an [Invalidate] to the accelerator. *)

val inv_closed : recorder -> addr:int -> now:int -> unit
(** The accelerator's ack came back to the XG: closes [Inv_roundtrip]. *)

val inv_race : recorder -> addr:int -> now:int -> unit
(** A put crossed the in-flight invalidate (instant event). *)

val inv_timeout : recorder -> addr:int -> now:int -> unit
(** The invalidate watchdog escalated (instant event). *)

(** {2 Time-series gauges} *)

val add_gauge : recorder -> name:string -> (unit -> int) -> unit
(** Register a gauge.  Gauges are read together at each sampler tick;
    registration order fixes the series order. *)

val reset_gauges : recorder -> unit
(** Drop all registered gauges.  Called at the top of [System.build] so
    rebuilt systems never sample stale closures. *)

val gauges : recorder -> (string * (unit -> int)) list
(** The gauge registry (registration order).  The metrics layer snapshots
    this at its own ticks instead of duplicating every registration site. *)

val sample_gauges : recorder -> now:int -> unit
(** Snapshot every registered gauge once, timestamped [now] — the span half
    of the one observer sample, {!Metrics.tick}. *)

(** {2 Summaries} *)

module Summary : sig
  type t
  (** Immutable per-(segment, txn) histogram set in canonical (segment, txn)
      index order, plus bookkeeping counters.  Safe to send across domains
      and merge in job order. *)

  val empty : t
  val is_empty : t -> bool

  val merge : t -> t -> t
  (** Pure; associative; canonical cell order, so sharded campaign merges
      are byte-identical to a serial run. *)

  val cells : t -> (string * string * Xguard_stats.Histogram.t) list
  (** [(segment, txn, histogram)] in canonical order. *)

  val replaced : t -> int
  (** Crossings whose address was re-opened before they retired (stale entry
      replaced — expected under faults/chaos, rare otherwise). *)

  val dropped : t -> int
  (** Timeline + sampler entries discarded at the caps. *)

  val attribution_table : ?title:string -> t -> Xguard_stats.Table.t option
  (** The latency-attribution table (segment / txn / count / p50 / p95 /
      p99 / max), or [None] when no samples were recorded.  [title] defaults
      to ["Latency attribution (cycles)"]. *)
end

val summary : recorder -> Summary.t

val hist : recorder -> seg:int -> txn:int -> Xguard_stats.Histogram.t
(** The live histogram of the (segment index, txn index) cell.  It changes
    only through {!record}, which always raises its count, so a reader can
    cache anything derived from it until the count moves. *)

(** {2 Timeline access (Perfetto exporter)} *)

val timeline_events : recorder -> (int * int * int * int * int * int) array
(** [(seg_index, txn_index, span, addr, ts, dur)] in record order. *)

val timeline_dropped : recorder -> int

val sample_series : recorder -> (int * (string * int) array) list
(** [(ts, [(gauge, value); ...])] snapshots in time order.  Each snapshot
    carries its own name/value pairs because gauges may be registered while
    the sampler is already running (drivers create sequencers after
    [System.build]). *)
